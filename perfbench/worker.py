"""One process of one workload: set up, run the timed phase, check outputs.

``run.py`` starts this script, which sets up, writes ``READY`` and takes
its set-up CPU time (``_ready``).  The worker then runs the timed phase,
checks the outputs with tracing off, and writes one JSON line with its
timings, counts and, under ``--trace``, its trace summary.  With
``--setup-only`` it writes only its set-up time after ``READY``.  Times are
CPU time scaled to the reference speed (``speed.py``).

    python3 perfbench/worker.py render-exact --seed 1 --seconds 15 [--trace]
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))

import speed  # noqa: E402
from spans import EXPERIMENTS, Tracer, experiment_charges, install  # noqa: E402

#: Frames rendered per second of ``--seconds``: the work is fixed, so
#: ``cpu_s`` measures speed.  Sized from this machine's rates (about 80 ms
#: per exact frame and 140 ms per Neo frame at 320x180).
FRAMES_PER_SECOND = {"render-exact": 12.5, "render-neo": 7.0}
WIDTH, HEIGHT, GAUSSIANS = 320, 180, 4000
#: An orbit step is 0.5 degrees, so 720 frames make a full circle.
ORBIT_FRAMES = 720
#: Every this many frames, a Neo frame is compared with the exact render.
PSNR_EVERY = 10

#: service-zipf traffic is ``repro loadgen``'s (``LoadGenConfig``: 150
#: requests/s, 4 tenants, 2 frames, ``1/(rank+1)`` cell weights).  Only the
#: grid is wider: every scene and system at three resolutions, 192 cells.
#: Over 4 tenants' caches the default 6-cell pool stops missing within the
#: first second; all scenes and systems at hd alone (64 cells) leave 2% of
#: the last third of a 15 s run missing, all three resolutions 11%.
SERVICE_RESOLUTIONS = ("hd", "fhd", "qhd")
#: Set-up warms each scene and resolution at both tile sizes (Neo 64 px,
#: GPU 16 px).
WARMUP_SYSTEMS = ("neo", "orin")
REQUEST_TIMEOUT_S = 30.0
#: Experiment cells replayed through the scalar pin after the cold run.
CELL_SAMPLES = 8
#: Calibrations after set-up; their median scales the set-up CPU time.
SETUP_CALIBRATIONS = 15
#: service-zipf takes one calibration every this many requests.
SERVICE_CALIBRATE_EVERY = 4


def _emit(line: str) -> None:
    os.write(1, (line + "\n").encode())


def _scratch_dir(tag: str) -> Path:
    path = Path.cwd() / ".perfbench_tmp" / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _ready(child_cpu_s: float = 0.0) -> dict:
    """Write ``READY`` and return the set-up time at the reference speed.

    Set-up is this process's CPU time since it started, plus ``child_cpu_s``
    (the server's, on service-zipf), scaled by calibrations taken after it.
    """
    cpu = time.process_time() + child_cpu_s
    _emit("READY")
    samples = [speed.calibrate() for _ in range(SETUP_CALIBRATIONS)]
    return {"setup_s": cpu * speed.REFERENCE_S / statistics.median(samples), "setup_cpu_s": cpu}


def _process_cpu_s(pid: int) -> float:
    """CPU seconds of process ``pid`` so far, all its threads, exited ones too."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _threads_cpu_ns(pid: int) -> int:
    """Nanoseconds of CPU the live threads of process ``pid`` have run."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            total += int(Path(f"/proc/{pid}/task/{task}/schedstat").read_text().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            pass
    return total


# ----------------------------------------------------------------------
# render-exact / render-neo
# ----------------------------------------------------------------------
def render_inputs(seed: int, frames: int):
    """Scene and camera path from the seed: a family scene, an orbit arc."""
    import numpy as np
    from repro.scene.datasets import default_trajectory, scene_spec
    from repro.scene.synthetic import generate_scene

    rng = np.random.default_rng(seed)
    spec = dataclasses.replace(scene_spec("family"), seed=int(rng.integers(2**31)))
    start = int(rng.integers(ORBIT_FRAMES))
    scene = generate_scene(spec, num_gaussians=GAUSSIANS)
    cameras = default_trajectory(
        "family", num_frames=start + frames, width=WIDTH, height=HEIGHT
    )[start:]
    return scene, cameras


def run_render(args, tracer: Tracer | None) -> dict:
    from repro.core.strategies import NeoSortStrategy
    from repro.metrics.image import psnr
    from repro.pipeline.renderer import Renderer
    from repro.pipeline.tiling import TileGrid

    import checks

    neo = args.workload == "render-neo"
    frames = max(1, round(args.seconds * FRAMES_PER_SECOND[args.workload]))
    scene, cameras = render_inputs(args.seed, frames)
    exact = Renderer(scene)
    exact.render(cameras[0])  # warm-up: fills the rasterizer's buffer pools
    renderer = Renderer(scene, strategy=NeoSortStrategy()) if neo else exact
    setup = _ready()
    if args.setup_only:
        return setup

    # Re-rasterizing through the scalar pin costs about 0.4 s a frame.
    pin_frames = {0, frames // 2, frames - 1}
    grid = TileGrid.for_camera(cameras[0], renderer.tile_size)
    # The traced run takes no calibrations: its spans would cover them.
    scale = speed.SpeedScale(enabled=tracer is None)
    timed, walls, errors, psnrs, failed = [], [], [], [], 0
    if tracer is not None:
        install(tracer)
    for index, camera in enumerate(cameras):
        moment = scale.calibrate()
        if tracer is not None:
            tracer.active = True
        wall = time.perf_counter()
        start = time.process_time()
        try:
            record = renderer.render(camera, index)
        except Exception as exc:  # a failed frame is counted, not checked
            print(f"frame {index} failed: {exc!r}", file=sys.stderr)
            failed += 1
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        timed.append((moment, time.process_time() - start))
        walls.append(time.perf_counter() - wall)
        errors += checks.check_neo_lists(record) if neo else checks.check_exact_order(record)
        if index in pin_frames:
            errors += checks.check_against_pin(record, grid, renderer.subtile_size)
        if neo and (index % PSNR_EVERY == 0 or index == frames - 1):
            db = psnr(exact.render(camera, index).image, record.image)
            psnrs.append(db)
            if not db >= checks.NEO_PSNR_FLOOR_DB:
                errors.append(f"frame {index}: PSNR {db:.2f} dB below the floor")
    ops = scale.scale(timed)
    result = {
        **setup,
        "attempted": frames,
        "failed": failed,
        "errors": errors,
        "cpu_s": sum(ops),
        "raw_cpu_s": sum(s for _, s in timed),
        "wall_s": sum(walls),
        "op_s": ops,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if psnrs:
        result["min_psnr_db"] = min(psnrs)
    if tracer is not None:
        frame_s = [(end - start) for name, _, start, end, _ in tracer.spans if name == "frame"]
        own = tracer.self_times()
        frame_self = sum(o for (name, *_), o in zip(tracer.spans, own) if name == "frame")
        result["extra"] = {"frame_coverage": 1.0 - frame_self / sum(frame_s)}
    return result


# ----------------------------------------------------------------------
# experiments-cold
# ----------------------------------------------------------------------
def run_experiments(args, tracer: Tracer | None) -> dict:
    import numpy as np
    from repro.experiments import registry
    from repro.experiments.engine import ExperimentEngine, SimJob
    from repro.runtime.cache import ResultCache

    import checks

    cache_dir = _scratch_dir("experiments")
    try:
        engine = ExperimentEngine(jobs=1, cache=ResultCache(cache_dir))
        names = registry.list_experiments()
        setup = _ready()
        if args.setup_only:
            return setup
        if tracer is not None:
            install(tracer)
        # The run is cut into segments at every engine cell and every
        # whole-experiment task; each segment's CPU time is scaled by the
        # calibration taken at its start.  The cells are this workload's
        # operations with a latency.
        scale = speed.SpeedScale(enabled=tracer is None)
        segments: list[tuple[int, float]] = []
        cells: list[tuple[int, float]] = []
        state = {"moment": scale.calibrate(), "start": time.process_time()}

        def mark() -> None:
            segments.append((state["moment"], time.process_time() - state["start"]))
            state["moment"] = scale.calibrate()
            state["start"] = time.process_time()

        simulate = SimJob.simulate

        def timed_simulate(job):
            mark()
            start = time.process_time()
            try:
                return simulate(job)
            finally:
                cells.append((state["moment"], time.process_time() - start))

        def marked(task):
            def run_task(*a, **kw):
                mark()
                return task(*a, **kw)
            return run_task

        tasks = dict(registry.EXPERIMENTS)
        for name, task in tasks.items():
            registry.EXPERIMENTS[name] = marked(task)
        SimJob.simulate = timed_simulate
        start = time.perf_counter()
        state["start"] = time.process_time()
        run = engine.run(names)
        wall = time.perf_counter() - start
        mark()
        if tracer is not None:
            tracer.active = False
        SimJob.simulate = simulate
        registry.EXPERIMENTS.update(tasks)
        scaled = scale.scale(segments)

        rows = {o.name: o.result.rows for o in run.outcomes}
        errors = [f"{name}: no result" for name in names if name not in rows]
        errors += checks.check_experiment_rows(rows)
        declared = {name: {job.resolved() for job in registry.PLANS[name]().cells} for name in names}
        unique = sorted({job for jobs in declared.values() for job in jobs}, key=repr)
        rng = np.random.default_rng(args.seed)
        sample = [unique[i] for i in rng.choice(len(unique), CELL_SAMPLES, replace=False)]
        stored = ResultCache(cache_dir)
        pairs = []
        for job in sample:
            report = stored.get(*job.cache_spec())
            if report is None:
                errors.append(f"{job}: no cached report")
            else:
                pairs.append((job, report))
        errors += checks.check_cell_reports(pairs)
        result = {
            **setup,
            "attempted": len(names),
            "failed": 0,
            "errors": errors,
            "cpu_s": sum(scaled),
            "raw_cpu_s": sum(s for _, s in segments),
            "wall_s": wall,
            "op_s": scale.scale(cells),
            "peak_rss_mb": _peak_rss_mb(),
        }
        if tracer is not None:
            charges, cell_pass = experiment_charges(tracer, declared)
            extra = {f"experiments.{name}.s": charges[name] for name in EXPERIMENTS}
            extra.update(cell_pass)
            extra["engine_own_s"] = wall - sum(charges.values())
            result["extra"] = extra
        return result
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# service-zipf
# ----------------------------------------------------------------------
def service_traffic(seed: int, seconds: float):
    """The requests, as (job payload, tenant), and the warm-up jobs.

    The requests are ``repro loadgen``'s own draws (``build_traffic``): a
    seeded permutation of the grid as the pool, ``1/(rank+1)`` cell weights
    and uniform tenants.  Its arrival times are not used: the loop is
    closed.  ``seconds`` sets the request count, ``rate * seconds``.
    """
    from itertools import product

    from repro.experiments.engine import SimJob
    from repro.hw.system import registered_systems
    from repro.scene.datasets import SCENE_SPECS
    from repro.service.loadgen import LoadGenConfig, build_traffic

    scenes, systems = tuple(sorted(SCENE_SPECS)), registered_systems()
    config = LoadGenConfig(
        seed=seed, scenes=scenes, systems=systems, resolutions=SERVICE_RESOLUTIONS,
        pool_size=len(scenes) * len(systems) * len(SERVICE_RESOLUTIONS),
    )
    config.requests = max(1, round(seconds * config.rate))
    pool, cells, tenants, _ = build_traffic(config)
    requests = [(pool[c].to_payload(), f"tenant{t}") for c, t in zip(cells, tenants)]
    warmup = [SimJob.make(system, scene, resolution, frames=config.frames).to_payload()
              for scene, resolution, system in product(scenes, SERVICE_RESOLUTIONS, WARMUP_SYSTEMS)]
    return requests, warmup


class _Connection:
    """One pipelined connection; replies are matched to requests by id."""

    def __init__(self, reader, writer, arrivals: dict) -> None:
        self.reader, self.writer = reader, writer
        self.arrivals = arrivals
        self.task = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            arrived = time.perf_counter()
            if not line:
                return
            reply = json.loads(line)
            future = self.arrivals.get(reply.get("id"))
            if future is not None and not future.done():
                future.set_result((arrived, reply))

    async def call(self, message: dict):
        future = asyncio.get_running_loop().create_future()
        self.arrivals[message["id"]] = future
        self.writer.write(json.dumps(message).encode() + b"\n")
        await self.writer.drain()
        return future

    async def close(self) -> None:
        self.writer.close()
        self.task.cancel()
        await asyncio.gather(self.task, return_exceptions=True)


async def _closed_loop(port: int, server_pid: int, traffic, warmup, args) -> dict:
    """Set up, then send the requests one at a time over one connection.

    Each request's operation time is the CPU the server's threads ran
    between sending it and reading its reply; the server is otherwise idle.
    """
    arrivals: dict = {}
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
    conn = _Connection(reader, writer, arrivals)
    try:
        _, pong = await asyncio.wait_for(await conn.call({"op": "ping", "id": -1}), 30)
        if pong.get("status") != "ok":
            raise RuntimeError(f"server did not answer ping: {pong}")
        # A long-running server has its scenes captured and tiled: one
        # request per scene, resolution and tile size, from a tenant of its
        # own, so the measured tenants' caches stay cold and every miss
        # still runs the hardware models.  One at a time: two executor
        # threads capturing one scene at once keep only one of the captures.
        for k, job in enumerate(warmup):
            message = {"op": "simulate", "id": -10 - k, "tenant": "warmup", "job": job}
            _, reply = await asyncio.wait_for(await conn.call(message), 120)
            if reply.get("status") != "ok":
                raise RuntimeError(f"warm-up request failed: {reply}")
        _, before = await asyncio.wait_for(await conn.call({"op": "stats", "id": -2}), 30)
        setup = _ready(_process_cpu_s(server_pid))
        if args.setup_only:
            return setup

        scale = speed.SpeedScale(enabled=args.trace is False)
        timed, replies = [], []
        moment = scale.calibrate()
        for i, (job, tenant) in enumerate(traffic):
            if i and i % SERVICE_CALIBRATE_EVERY == 0:
                moment = scale.calibrate()
            message = {"op": "simulate", "id": i, "tenant": tenant, "job": job,
                       "timeout_s": REQUEST_TIMEOUT_S}
            cpu = _threads_cpu_ns(server_pid)
            sent = time.perf_counter()
            try:
                arrived, reply = await asyncio.wait_for(
                    await conn.call(message), REQUEST_TIMEOUT_S + 10.0)
            except asyncio.TimeoutError:
                replies.append((None, {"status": "unanswered"}))
                continue
            timed.append((moment, (_threads_cpu_ns(server_pid) - cpu) * 1e-9))
            replies.append((arrived - sent, reply))
        _, after = await asyncio.wait_for(await conn.call({"op": "stats", "id": -3}), 30)
        counters = {
            key: after["metrics"][key] - before["metrics"][key]
            for key in ("executions", "cache_hits")
        }
        return {**setup, "ops": scale.scale(timed), "raw_cpu_s": sum(s for _, s in timed),
                "replies": replies, "counters": counters}
    finally:
        try:
            await asyncio.wait_for(await conn.call({"op": "shutdown", "id": -4}), 30)
        finally:
            await conn.close()


def run_service(args, tracer: Tracer | None) -> dict:
    traffic, warmup = service_traffic(args.seed, args.seconds)
    scratch = _scratch_dir("service")
    trace_out = scratch / "server-trace.json"
    if tracer is None:
        command = [sys.executable, "-m", "repro"]
    else:
        command = [sys.executable, str(HERE / "traced_serve.py"), str(trace_out)]
    command += ["serve", "--port", "0", "--cache-dir", str(scratch / "cache")]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    # The caller and the server (its threads inherit the mask) share one
    # vCPU, so the calibrations the caller takes measure the vCPU the
    # server runs on.  The loop is closed: the two never run at once.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    server = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True)
    try:
        announce = server.stdout.readline()
        if "listening on" not in announce:
            raise RuntimeError(f"server did not start: {announce!r}")
        port = int(announce.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        run = asyncio.run(_closed_loop(port, server.pid, traffic, warmup, args))
        server.wait(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
    try:
        if args.setup_only:
            return run
        import checks

        rtts, handle_ms, outside_ms, pairs, failed = [], [], [], [], 0
        for (job, _), (rtt, reply) in zip(traffic, run["replies"]):
            if reply.get("status") != "ok":
                failed += 1
                continue
            rtts.append(rtt)
            handle_ms.append(reply["elapsed_ms"])
            outside_ms.append(rtt * 1e3 - reply["elapsed_ms"])
            pairs.append((job, reply))
        result = {
            "setup_s": run["setup_s"],
            "setup_cpu_s": run["setup_cpu_s"],
            "attempted": len(traffic),
            "failed": failed,
            "errors": checks.check_replies(pairs),
            "cpu_s": sum(run["ops"]),
            "raw_cpu_s": run["raw_cpu_s"],
            "wall_s": sum(rtts),
            "op_s": run["ops"],
            "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        }
        if tracer is not None:
            result["server_trace"] = json.loads(trace_out.read_text())
            result["extra"] = {
                "handle_ms_p50": statistics.median(handle_ms) if handle_ms else 0.0,
                "outside_ms_p50": statistics.median(outside_ms) if outside_ms else 0.0,
                **run["counters"],
            }
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


WORKLOADS = {
    "render-exact": run_render,
    "render-neo": run_render,
    "experiments-cold": run_experiments,
    "service-zipf": run_service,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # Library output must not mix with the two protocol lines on stdout.
    sys.stdout = sys.stderr
    tracer = Tracer() if args.trace else None
    result = WORKLOADS[args.workload](args, tracer)
    if tracer is not None and not args.setup_only:
        result["trace"] = tracer.summary()
    _emit(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
