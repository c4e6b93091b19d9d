"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload render-exact --seed 1 --seconds 15 --trace 0

Run from the repository root.  Every workload runs in fresh worker
processes (``worker.py``).  With ``--trace 0`` the worker is started
``SETUP_PROBES`` extra times to set up and exit, and the end-to-end metrics
come from one untraced run; ``setup_s`` is the median set-up time.  Every
time is CPU time scaled to a reference speed (``speed.py``).  With
``--trace 1`` one untraced and one traced run give the per-layer metrics
and the tracing overhead.  Each metric is printed by name and unit on
stderr; the last line on stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in turn and ends with one JSON object per workload name; a workload
whose run fails is left out and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import layer_metrics, merge_summaries  # noqa: E402

WORKLOADS = ("render-exact", "render-neo", "experiments-cold", "service-zipf")
SETUP_PROBES = 4
#: ``op_ms_tail`` is the highest of these percentiles with at least ten
#: operations beyond it.
TAIL_LADDER = (99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)
#: Wall-clock budget for one workload, set-up probes and checks included.
BUDGET_S = 175.0


class WorkerFailed(RuntimeError):
    pass


def tail_percentile(n: int) -> float:
    return next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0), 50.0)


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spawn(workload: str, args, deadline: float, *flags: str) -> dict:
    """Run one worker; return its result line."""
    command = [
        sys.executable, str(HERE / "worker.py"), workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), *flags,
    ]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, start_new_session=True)

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), kill_group)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        kill_group()  # a server left behind by a failed worker
        proc.wait()
        proc.stdout.close()
    if ready.strip() != b"READY" or code != 0:
        raise WorkerFailed(f"{workload} worker {' '.join(flags)} exited with {code}")
    lines = rest.decode().strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{workload} worker {' '.join(flags)} printed no result")
    return json.loads(lines[-1])


def measure(workload: str, args, units: dict[str, str]) -> dict:
    deadline = time.monotonic() + BUDGET_S
    if not args.trace:
        setups = [spawn(workload, args, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES)]
        run = spawn(workload, args, deadline)
        setups.append(run["setup_s"])
        runs = [run]
        ops = run["op_s"]
        if not ops:
            raise WorkerFailed(f"{workload}: no operation succeeded")
        values = {
            "setup_s": statistics.median(setups),
            "cpu_s": run["cpu_s"],
            "peak_rss_mb": run["peak_rss_mb"],
            "op_cpu_ms_p50": statistics.median(ops) * 1e3,
            "op_cpu_ms_tail": percentile(ops, tail_percentile(len(ops))) * 1e3,
        }
        print(f"{workload}: as measured: CPU {run['raw_cpu_s']:.3f} s, "
              f"wall {run['wall_s']:.3f} s, set-up CPU {run['setup_cpu_s']:.3f} s",
              file=sys.stderr)
    else:
        base = spawn(workload, args, deadline)
        traced = spawn(workload, args, deadline, "--trace")
        runs = [base, traced]
        summary = merge_summaries(traced["trace"], traced.get("server_trace", {}))
        extra = dict(traced.get("extra", {}))
        extra.update(traced_cpu_s=traced["raw_cpu_s"], untraced_cpu_s=base["raw_cpu_s"])
        values = layer_metrics(summary, extra)
    errors = [e for run in runs for e in run["errors"]]
    for error in errors[:20]:
        print(f"{workload}: CHECK FAILED: {error}", file=sys.stderr)
    out = {
        "correct": not errors,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(f"{workload}: attempted {out['attempted']}, failed {out['failed']}, "
          f"correct {out['correct']}", file=sys.stderr)
    for run in runs:
        if "min_psnr_db" in run:
            print(f"{workload}: lowest Neo PSNR {run['min_psnr_db']:.2f} dB", file=sys.stderr)
    for name, metric in out["metrics"].items():
        print(f"{workload}: {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (Path.cwd() / "src" / "repro").is_dir():
        print("error: run from the repository root; src/repro is missing", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = measure(name, args, units)
        except WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
        finally:
            # Workers remove their own scratch; this also covers a killed one.
            shutil.rmtree(Path.cwd() / ".perfbench_tmp", ignore_errors=True)
    if args.workload == "all":
        # A failed workload is left out; the others' results still print.
        for name in results:
            print(json.dumps(results[name]))
        print(json.dumps(results))
    elif results:
        print(json.dumps(results[args.workload]))
    return 0 if len(results) == len(names) else 1


if __name__ == "__main__":
    sys.exit(main())
