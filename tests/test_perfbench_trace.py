"""Guard for the benchmark's traced mode (``perfbench/run.py --trace 1``).

The tracer patches each layer under the name its caller imports; a
refactor that renames or stops importing one of them would break the
traced benchmark without failing any other test.
"""
import repro.core.pipeline as pipeline
import repro.core.sflow as sflow
from perfbench.spans import traced
from repro.core.queries import query
from repro.world.datasets import nuscenes_lite

PATCHED = [
    (pipeline, name)
    for name in (
        "decode", "prune_frames", "detect", "prune_types", "estimate_3d_geometry",
        "estimate_3d_depth", "frame_view_hulls", "sample_frames", "track_objects",
    )
] + [
    (sflow, name)
    for name in (
        "run_video_processor", "movable_objects", "combination_count", "compile_filter",
        "save_videos",
    )
] + [(sflow.World, "save_videos")]


def test_traced_save_videos_records_layers_and_restores(spark):
    before = [owner.__dict__[name] for owner, name in PATCHED]
    w = sflow.World.from_dataset(spark, nuscenes_lite(1, seed=0, n_frames=24))
    w.filter(query("Q2"))
    with traced(spark, "trace-guard") as t:
        w.save_videos()
    layers = {s["layer"] for s in t.spans}
    assert {"sflow", "pipeline", "tracker", "query_engine.compile_filter"} <= layers
    assert [owner.__dict__[name] for owner, name in PATCHED] == before
