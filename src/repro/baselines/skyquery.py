"""SkyQuery baseline (§7.1.5) — aerial drone video sensing pipeline.

SkyQuery detects (customized YOLOv3), ground-projects (homography from
the drone's GPS+altitude — trivial for a top-down camera) and tracks
(plain SORT) every frame. §7.1.5's comparison keeps the *same* three ML
functions on both sides and lets Spatialyze add only the Road Visibility
Pruner; the measured speedup is therefore exactly the RVP's frame
pruning. Both sides run Spatialyze's video processor on Q10's plan with
the SORT tracker and geometry 3D (the homography: top-down camera rays
hit z=0), re-priced at SkyQuery's model costs. ``run_skyquery`` is the
baseline (no pruning); ``run_spatialyze_with_skyquery_models`` adds the
Road Visibility Pruner.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.pipeline import run_video_processor
from repro.core.planner import plan_workflow
from repro.core.queries import query
from repro.video.costmodel import C, CostReport
from repro.world.datasets import Dataset

__all__ = ["run_skyquery", "run_spatialyze_with_skyquery_models"]

# Spatialyze's detector and 3D entries, re-priced as SkyQuery's models.
_SKYQUERY_MODELS = {"yolo": ("yolov3", C.YOLOV3), "geom3d": ("sky3d", C.SKYQUERY_3D_OBJ)}


def _run(
    spark: SparkSession, ds: Dataset, optimizations: set[str]
) -> tuple[DataFrame, CostReport, dict]:
    plan = plan_workflow(query("Q10"), optimizations=optimizations, tracker_variant="sort")
    cams, gt, road = ds.tables(spark)
    vp = run_video_processor(cams, gt, road, plan, fps=ds.fps, road_pdf=ds.road.df)
    cost = CostReport()
    for op, (count, ms) in vp.cost.entries.items():
        if op in _SKYQUERY_MODELS:
            op, unit = _SKYQUERY_MODELS[op]
            ms = count * unit
        cost.add(op, count, ms)
    counts = {
        "frames_total": vp.counts["frames_total"],
        "frames_processed": vp.counts["frames_after_rvp"],
    }
    return vp.objects, cost, counts


def run_skyquery(spark: SparkSession, ds: Dataset) -> tuple[DataFrame, CostReport, dict]:
    """The SkyQuery pipeline: every frame, no pruning."""
    return _run(spark, ds, {"geom3d"})


def run_spatialyze_with_skyquery_models(
    spark: SparkSession, ds: Dataset
) -> tuple[DataFrame, CostReport, dict]:
    """Spatialyze's video processor with SkyQuery's ML functions: only
    the Road Visibility Pruner differs (§7.1.5)."""
    return _run(spark, ds, {"rvp", "geom3d"})
