"""Output checks for every workload.

Each check compares the program's output with a computation made apart from
the code under measurement (the frozen scalar pins in
``repro.pipeline.reference`` and ``repro.hw.reference``), or tests a
property the method must have.  None compares against a stored copy of an
earlier output.  Every check returns a list of failure messages; an empty
list means the output passed.  ``selfcheck.py`` corrupts one output per
workload and shows that these checks then fail.
"""

from __future__ import annotations

import numpy as np

#: Lowest PSNR (dB) a Neo frame may reach against the exact render of the
#: same camera.  See the README for the measured minimum and why this floor.
NEO_PSNR_FLOOR_DB = 45.0

#: Largest |psnr_delta| (dB) table2 may report between exact and Neo sorting.
TABLE2_DELTA_FLOOR_DB = 0.01


def _pairs(stream, ids) -> np.ndarray:
    """(tile, Gaussian ID) keys of a flat per-tile stream."""
    tiles = np.repeat(np.arange(stream.num_tiles), np.diff(stream.offsets))
    return tiles.astype(np.int64) * (1 << 32) + ids.astype(np.int64)


def sorted_tiles_equal(got, want) -> bool:
    """Same per-tile rows, IDs and depths, in the same order."""
    return (
        np.array_equal(got.stream.offsets, want.stream.offsets)
        and np.array_equal(got.stream.values, want.stream.values)
        and np.array_equal(got.ids, want.ids)
        and np.array_equal(got.depths, want.depths)
    )


def raster_equal(got, want) -> list[str]:
    """Bit-for-bit comparison of two RasterResults."""
    errors = []
    if not np.array_equal(got.image, want.image):
        errors.append("image differs from the pin")
    if got.valid_bits.keys() != want.valid_bits.keys() or any(
        not np.array_equal(bits, want.valid_bits[t]) for t, bits in got.valid_bits.items()
    ):
        errors.append("valid bits differ from the pin")
    if got.stats != want.stats:
        errors.append(f"raster stats {got.stats} differ from the pin {want.stats}")
    return errors


def check_exact_order(record) -> list[str]:
    """The frame's tile order equals the frozen per-tile lexsort pin."""
    from repro.pipeline import reference

    want = reference.sort_tiles(record.assignment)
    if sorted_tiles_equal(record.sorted_tiles, want):
        return []
    return [f"frame {record.stats.frame_index}: tile order differs from the pin"]


def check_neo_lists(record) -> list[str]:
    """Each tile's render list holds every Gaussian assigned to it exactly once.

    Neo may also keep Gaussians that left the tile until lazy deletion drops
    them, so extra entries are allowed; a missing or repeated one is not.
    """
    assignment = record.assignment
    assigned = _pairs(assignment.stream, assignment.projected.ids[assignment.stream.values])
    listed = _pairs(record.sorted_tiles.stream, record.sorted_tiles.ids)
    errors = []
    frame = record.stats.frame_index
    if np.unique(listed).shape[0] != listed.shape[0]:
        errors.append(f"frame {frame}: a Gaussian appears twice in one tile list")
    if not np.isin(assigned, listed).all():
        errors.append(f"frame {frame}: an assigned Gaussian is missing from its tile list")
    return errors


def check_against_pin(record, grid, subtile_size) -> list[str]:
    """Re-rasterize the frame's own sorted tiles through the scalar pin."""
    from repro.pipeline import reference

    want = reference.rasterize(
        record.sorted_tiles, record.projected, grid, subtile_size=subtile_size
    )
    return [f"frame {record.stats.frame_index}: {e}" for e in raster_equal(record.raster, want)]


# ----------------------------------------------------------------------
# experiments-cold
# ----------------------------------------------------------------------
def check_experiment_rows(results: dict) -> list[str]:
    """Properties the paper's method must show in the finished tables.

    ``results`` maps experiment name to its rows; every experiment given
    must have returned rows.
    """
    errors = [f"{name}: no rows" for name, rows in results.items() if not rows]
    for row in results.get("fig15", []):
        if not row["neo"] > row["gscore"] > row["orin"]:
            errors.append(f"fig15 {row['scene']}/{row['resolution']}: fps not neo > gscore > orin")
    for row in results.get("fig16", []):
        if not row["neo"] < row["gscore"] < row["orin"]:
            errors.append(f"fig16 {row['scene']}: traffic not neo < gscore < orin")
    for row in results.get("table2", []):
        if not abs(row["psnr_delta"]) < TABLE2_DELTA_FLOOR_DB:
            errors.append(f"table2 {row['scene']}: |psnr_delta| {row['psnr_delta']} too large")
    return errors


def reference_report(job):
    """The cell replayed through the frozen scalar system-model loop."""
    from repro.experiments.runner import build_system_model, get_workload_model
    from repro.hw.dram import DramConfig
    from repro.hw.reference import scalar_simulate

    job = job.resolved()
    workload = get_workload_model(job.scene, num_frames=job.frames, speed=job.speed)
    model, tile = build_system_model(
        job.system,
        dram=DramConfig(bandwidth_gbps=job.bandwidth_gbps),
        cores=job.cores,
        **job.kwargs,
    )
    return scalar_simulate(model, workload.sequence_workloads(job.resolution, tile), scene=job.scene)


def check_cell_reports(pairs) -> list[str]:
    """Each ``(job, report)`` equals the scalar replay, frame by frame."""
    errors = []
    for job, report in pairs:
        want = reference_report(job)
        if (report.system, report.scene, tuple(report.resolution)) != (
            want.system, want.scene, tuple(want.resolution)
        ) or len(report.frames) != len(want.frames):
            errors.append(f"{job}: report header differs from the scalar replay")
            continue
        for got_frame, want_frame in zip(report.frames, want.frames):
            if got_frame != want_frame:
                errors.append(f"{job}: frame {want_frame.frame_index} differs from the scalar replay")
                break
    return errors


# ----------------------------------------------------------------------
# service-zipf
# ----------------------------------------------------------------------
def check_replies(replies) -> list[str]:
    """Every ``ok`` reply's report equals its cell replayed through the pin.

    ``replies`` is a list of ``(job payload, reply)`` pairs; the replay is
    computed once per distinct cell.
    """
    from repro.experiments.engine import SimJob
    from repro.service.protocol import canonical_bytes, report_to_payload

    expected: dict[bytes, bytes] = {}
    errors = []
    for payload, reply in replies:
        if reply.get("status") != "ok":
            continue
        key = canonical_bytes(payload)
        if key not in expected:
            job = SimJob.from_payload(payload)
            expected[key] = canonical_bytes(report_to_payload(reference_report(job)))
        if canonical_bytes(reply.get("report") or {}) != expected[key]:
            errors.append(f"reply {reply.get('id')}: report differs from the scalar replay")
    return errors
