"""OTIF baseline (§7.1.4) — tracker pre-processing with proxy gating.

The two OTIF mechanisms the paper describes:

* a *segmentation proxy model* runs on every frame and decides whether
  the (expensive) detector must run — frames with no objects skip it;
* *recurrent reduced-rate tracking*: the tracker runs at a fixed reduced
  frame rate (every k-th frame) regardless of content.

OTIF also needs a per-dataset training phase (61m37s in the paper); we
model it as a reported constant that is excluded from the FPS numbers,
exactly as §7.1.4 does. The comparison metric is frames processed per
second of modeled runtime.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.video.costmodel import C, CostReport
from repro.video.decoder import decode
from repro.video.detector import detect
from repro.video.tracker import charge_tracking, track_objects

__all__ = ["run_otif", "OTIF_TRAINING_MS"]

OTIF_TRAINING_MS = (61 * 60 + 37) * 1000.0  # reported, not counted


def run_otif(
    cameras: DataFrame,
    gt: DataFrame,
    *,
    track_every: int = 2,
) -> tuple[DataFrame, CostReport, dict]:
    """OTIF-style tracking over a dataset; returns (tracks, cost, counts)."""
    cost = CostReport()
    frames = decode(cameras)
    n_frames = frames.count()
    cost.add("decode", n_frames, n_frames * C.DECODE)
    cost.add("otif_proxy", n_frames, n_frames * C.OTIF_SEG_PROXY)
    dets = detect(frames, gt).persist()
    # Detector only on frames the proxy flags (frames with objects).
    frames_with = dets.select("video_id", "frame_idx").distinct().count()
    cost.add("yolo", frames_with, frames_with * C.YOLO)
    # OTIF is tracker *pre-processing*: it tracks in 2D, no depth stage.
    # Reduced-rate tracking: every k-th frame only.
    sampled = dets.filter(F.col("frame_idx") % track_every == 0)
    tracked = track_objects(sampled, variant="strongsort").persist()
    nf, _ = charge_tracking(tracked, cost, "strongsort")
    counts = {"frames_total": n_frames, "frames_detected": frames_with,
              "frames_tracked": nf}
    return tracked, cost, counts
