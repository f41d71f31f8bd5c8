"""Video Processor execution (§5.2.2): run a :class:`Plan` over Spark.

Each operator is a DataFrame→DataFrame transformation; the plan decides
which run and in what order (Listing 2 + §6 placements). Alongside the
real execution, the calibrated cost model is charged with the *measured*
row counts of every stage — pruning effectiveness is observed, never
assumed. The paper's O(1)-frames streaming property maps to Spark's
pipelined execution within a stage; arbitrary-length videos stream
through without materializing frames.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.exit_frame_sampler import sample_frames
from repro.core.geom3d import estimate_3d_geometry
from repro.core.planner import Plan
from repro.core.road_visibility import frame_view_hulls, prune_frames
from repro.core.type_pruner import prune_types
from repro.video.costmodel import C, CostReport
from repro.video.decoder import decode
from repro.video.depth import estimate_3d_depth
from repro.video.detector import detect
from repro.video.tracker import charge_tracking, track_objects

__all__ = ["VPResult", "run_video_processor"]


@dataclass
class VPResult:
    """Tracked, 3D-located detections + the frames that passed the Road
    Visibility Pruner (all decoded frames if it is not in the plan) +
    modeled cost + stage counts."""

    objects: DataFrame
    frames: DataFrame
    cost: CostReport
    counts: dict[str, float] = field(default_factory=dict)


def _lane_list(road_df) -> list[tuple[np.ndarray, float]]:
    lanes = road_df[road_df["type"] == "lane"]
    return [(np.array(p), float(h)) for p, h in zip(lanes["poly"], lanes["heading"])]


def run_video_processor(
    cameras: DataFrame,
    gt: DataFrame,
    road: DataFrame,
    plan: Plan,
    *,
    fps: float,
    road_pdf,
    seed: int = 0,
    efs_max_skip: int | None = None,
) -> VPResult:
    """Execute ``plan`` over one dataset's frames; returns objects+cost.

    ``road_pdf`` (the pandas road table) is read only when the Exit
    Frame Sampler is in the plan (its per-video algorithm carries the
    lane polygons as a broadcast-sized list).
    """
    cost = CostReport()
    counts: dict[str, float] = {}

    frames = decode(cameras)
    n_frames = frames.count()
    counts["frames_total"] = n_frames
    cost.add("decode", n_frames, n_frames * C.DECODE)

    if plan.use_rvp:
        frames = prune_frames(frames, road, plan.rvp_types, plan.rvp_distance).persist()
        n_kept = frames.count()
        cost.add("rvp", n_frames, n_frames * C.RVP_FRAME)
        counts["frames_after_rvp"] = n_kept
    else:
        counts["frames_after_rvp"] = n_frames
        n_kept = n_frames

    if not plan.include_detector:
        empty = detect(frames.limit(0), gt.limit(0), seed=seed)
        empty = empty.withColumn("track_id", F.lit(-1).cast("long"))
        return VPResult(empty, frames, cost, counts)

    dets = detect(frames, gt, seed=seed).persist()
    n_dets = dets.count()
    cost.add("yolo", n_kept, n_kept * C.YOLO)
    counts["detections"] = n_dets

    if plan.use_otp:
        dets = prune_types(dets, plan.otp_types).persist()
        n_after = dets.count()
        cost.add("otp", n_dets, n_dets * C.OTP_OBJ)
        counts["detections_after_otp"] = n_after
    else:
        counts["detections_after_otp"] = n_dets

    if plan.include_loc3d:
        if plan.loc3d_impl == "geometry":
            dets3 = estimate_3d_geometry(dets).persist()
            n3 = counts["detections_after_otp"]
            cost.add("geom3d", n3, n3 * C.GEOM3D_OBJ)
            fb = (
                dets3.filter(F.col("est_src") == "depth_fallback")
                .select("video_id", "frame_idx").distinct().count()
            )
            counts["depth_fallback_frames"] = fb
            if fb:
                cost.add("depth", fb, fb * C.DEPTH)
        else:
            dets3 = estimate_3d_depth(dets).persist()
            fwd = dets3.select("video_id", "frame_idx").distinct().count()
            counts["frames_with_dets"] = fwd
            cost.add("depth", fwd, fwd * C.DEPTH)
    else:
        dets3 = (
            dets.withColumn("wx", F.lit(None).cast("double"))
            .withColumn("wy", F.lit(None).cast("double"))
            .withColumn("wz", F.lit(None).cast("double"))
            .withColumn("est_src", F.lit("none"))
        )

    if not plan.include_tracker:
        # Per-frame objects: each detection is its own Movable Object.
        out = dets3.withColumn("track_id", F.col("det_id"))
        return VPResult(out, frames, cost, counts)

    if plan.use_efs:
        hulls = frame_view_hulls(frames, plan.rvp_distance)
        sampled = sample_frames(
            dets3, hulls, _lane_list(road_pdf), fps=fps, max_skip=efs_max_skip
        )
        frames_in = dets3.select("video_id", "frame_idx").distinct().count()
        dets_t = dets3.join(sampled, on=["video_id", "frame_idx"], how="leftsemi").persist()
        counts["frames_into_efs"] = frames_in
        cost.add("efs", frames_in, frames_in * C.EFS_FRAME)
    else:
        dets_t = dets3

    tracked = track_objects(dets_t, variant=plan.tracker_variant).persist()
    counts["frames_tracked"], counts["dets_tracked"] = charge_tracking(
        tracked, cost, plan.tracker_variant
    )
    return VPResult(tracked, frames, cost, counts)
