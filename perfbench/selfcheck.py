"""Show that each workload's output check bites.

For every workload this computes one small output, shows that its check
passes, corrupts one value and shows that the same check then fails:

* render-exact: one pixel of a frame (re-rasterized through the pin);
* render-neo: a duplicated Gaussian in one tile's render list;
* experiments-cold: the Neo and Orin values of one fig15 row swapped;
* service-zipf: one field of a reply's report.

Run from the repository root; it takes a few seconds and exits 1 if
any check passes a corrupted output or fails a clean one.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from worker import render_inputs  # noqa: E402


def render_exact_case():
    from repro.pipeline.renderer import Renderer
    from repro.pipeline.tiling import TileGrid

    scene, cameras = render_inputs(seed=1, frames=1)
    renderer = Renderer(scene)
    record = renderer.render(cameras[0])
    grid = TileGrid.for_camera(cameras[0], renderer.tile_size)
    clean = checks.check_against_pin(record, grid, renderer.subtile_size)
    image = record.raster.image.copy()
    image[90, 160, 0] += 1.0 / 255.0
    record.raster.image = image
    return clean, checks.check_against_pin(record, grid, renderer.subtile_size)


def render_neo_case():
    from repro.core.strategies import NeoSortStrategy
    from repro.pipeline.renderer import Renderer
    from repro.pipeline.sorting import SortedTiles

    scene, cameras = render_inputs(seed=1, frames=2)
    renderer = Renderer(scene, strategy=NeoSortStrategy())
    renderer.render(cameras[0], 0)
    record = renderer.render(cameras[1], 1)
    clean = checks.check_neo_lists(record)
    tiles = record.sorted_tiles
    tile = int(np.argmax(tiles.stream.counts()))
    rows = [tiles.rows_for(t) for t in range(tiles.num_tiles)]
    ids = [tiles.ids_for(t) for t in range(tiles.num_tiles)]
    depths = [tiles.depths_for(t) for t in range(tiles.num_tiles)]
    rows[tile] = np.insert(rows[tile], 1, rows[tile][0])
    ids[tile] = np.insert(ids[tile], 1, ids[tile][0])
    depths[tile] = np.insert(depths[tile], 1, depths[tile][0])
    record.sorted_tiles = SortedTiles.from_tile_lists(rows, ids, depths)
    return clean, checks.check_neo_lists(record)


def fig15_case():
    from repro.experiments.engine import ExperimentEngine

    run = ExperimentEngine(jobs=1, frames=2, cache=None).run(["fig15"])
    rows = copy.deepcopy(run.outcomes[0].result.rows)
    clean = checks.check_experiment_rows({"fig15": rows})
    rows[0]["neo"], rows[0]["orin"] = rows[0]["orin"], rows[0]["neo"]
    return clean, checks.check_experiment_rows({"fig15": rows})


def service_case():
    from repro.experiments.engine import SimJob
    from repro.service.protocol import report_to_payload

    job = {"system": "neo", "scene": "family", "resolution": "hd", "frames": 2,
           "bandwidth_gbps": 51.2}
    report = report_to_payload(SimJob.from_payload(job).simulate())
    reply = {"id": 0, "status": "ok", "origin": "executed", "report": report}
    clean = checks.check_replies([(job, reply)])
    bad = copy.deepcopy(reply)
    bad["report"]["frames"][0]["traffic"]["sorting"] += 1.0
    return clean, checks.check_replies([(job, bad)])


CASES = {
    "render-exact: one pixel changed": render_exact_case,
    "render-neo: a Gaussian listed twice in one tile": render_neo_case,
    "experiments-cold: fig15 neo/orin swapped": fig15_case,
    "service-zipf: one report field changed": service_case,
}


def main() -> int:
    ok = True
    for label, case in CASES.items():
        clean, corrupted = case()
        bites = not clean and bool(corrupted)
        ok &= bites
        verdict = "check bites" if bites else "CHECK DOES NOT BITE"
        detail = clean[0] if clean else (corrupted[0] if corrupted else "corruption passed")
        print(f"{label}: {verdict} ({detail})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
