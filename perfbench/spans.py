"""Per-layer spans, timed from outside the program.

``traced(spark, group)`` patches each layer's public function under the name its
caller imports (``repro.core.pipeline.detect``, ``repro.core.sflow.
compile_filter``, ...) with a wrapper that opens a span, runs the layer,
and — because DataFrames are lazy — persists and counts the layer's output
inside the span so the span owns that work. The patches are undone when the
context exits. Each span runs its Spark jobs under its own job group, so its
jobs, stages and tasks are read from the status tracker as it closes.

Counts that need an extra Spark action (distinct frames, input rows) run
under a separate job group; their time is taken out of every enclosing
span, so self times stay those of the layer.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

from pyspark.sql import functions as F

COST_OPS = (
    "decode", "rvp", "yolo", "otp", "geom3d", "depth", "efs", "track",
    "integrate", "query_engine", "compose",
)


def spark_counts(sc, group: str) -> tuple[int, int, int]:
    """(jobs, stages run, tasks run) of one job group."""
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stage_ids = set()
    for j in jobs:
        info = st.getJobInfo(j)
        if info is not None:
            stage_ids.update(info.stageIds)
    stages = tasks = 0
    for s in stage_ids:
        info = st.getStageInfo(s)
        if info is not None and info.numCompletedTasks > 0:
            stages += 1
            tasks += info.numCompletedTasks
    return len(jobs), stages, tasks


def cached_state(sc) -> tuple[int, float]:
    """(persisted RDDs, MiB of their cached blocks in memory and on disk)."""
    jsc = sc._jsc.sc()
    n = jsc.getPersistentRDDs().size()
    size = sum(i.memSize() + i.diskSize() for i in jsc.getRDDStorageInfo())
    return n, size / (1 << 20)


class Tracer:
    """Spans of one traced pass, kept in memory."""

    def __init__(self, spark, root_group: str):
        self.sc = spark.sparkContext
        self.groups = [root_group]
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.aux_s = 0.0
        self._n = 0

    @contextmanager
    def span(self, layer: str):
        self._n += 1
        group = f"{self.groups[0]}-span{self._n}"
        rec = {"layer": layer, "parent": self.stack[-1]["id"] if self.stack else None,
               "id": self._n, "children_s": 0.0}
        self.groups.append(group)
        self.stack.append(rec)
        self.sc.setJobGroup(group, layer)
        aux0, t0 = self.aux_s, time.perf_counter()
        try:
            yield rec
        finally:
            rec["s"] = time.perf_counter() - t0 - (self.aux_s - aux0)
            self.stack.pop()
            self.groups.pop()
            self.sc.setJobGroup(self.groups[-1], "perfbench")
            rec["jobs"], rec["stages"], rec["tasks"] = spark_counts(self.sc, group)
            if self.stack:
                self.stack[-1]["children_s"] += rec["s"]
            self.spans.append(rec)

    def aux(self, fn):
        """Run a counting action outside every span's time."""
        group = f"{self.groups[0]}-aux"
        self.sc.setJobGroup(group, "perfbench trace counts")
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.aux_s += time.perf_counter() - t0
            self.sc.setJobGroup(self.groups[-1], "perfbench")

    def count(self, key: str, value: float) -> None:
        self.counts[key] += value

    # ---------------------------------------------------------- wrappers
    def wrap_df(self, layer: str, fn, on_out=None, on_in=None):
        """A layer whose first argument and result are DataFrames."""

        def wrapped(*args, **kw):
            if on_in is not None:
                on_in(self, args[0])
            with self.span(layer):
                out = fn(*args, **kw).persist()
                n = out.count()
            if on_out is not None:
                on_out(self, out, n)
            return out

        return wrapped

    def wrap_value(self, layer: str, fn, on_out=None):
        """A layer returning something already materialized."""

        def wrapped(*args, **kw):
            with self.span(layer):
                out = fn(*args, **kw)
            if on_out is not None:
                on_out(self, out)
            return out

        return wrapped


def _distinct_frames(t: Tracer, df) -> int:
    return t.aux(lambda: df.select("video_id", "frame_idx").distinct().count())


def _on_geom3d(t, out, n):
    t.count("geom3d.rows", n)
    fb = out.filter(F.col("est_src") == "depth_fallback")
    t.count("geom3d.fallback_frames", _distinct_frames(t, fb))


def _on_output(t, out, n):
    frames = t.aux(lambda: out.agg(F.sum("n_frames")).first()[0])
    t.count("output.frames_out", frames or 0)


def _patches(t: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every layer boundary."""
    pipeline = importlib.import_module("repro.core.pipeline")
    sflow = importlib.import_module("repro.core.sflow")

    def counter(key):
        return lambda t, out, n: t.count(key, n)

    def in_counter(key, distinct=False):
        def on_in(t, df):
            t.count(key, _distinct_frames(t, df) if distinct else t.aux(df.count))
        return on_in

    def on_track(t, out, n):
        t.count("tracker.dets", n)
        t.count("tracker.frames", _distinct_frames(t, out))

    def on_depth(t, out, n):
        t.count("depth.frames", _distinct_frames(t, out))

    def on_comb(t, n):
        t.count("query_engine.combinations", n)

    save = sflow.World.save_videos

    def save_videos(self, *a, **kw):
        with t.span("sflow"):
            return save(self, *a, **kw)

    return [
        (pipeline, "decode", t.wrap_df("decoder", pipeline.decode, counter("decoder.frames"))),
        (pipeline, "prune_frames", t.wrap_df(
            "rvp", pipeline.prune_frames, counter("rvp.frames_kept"), in_counter("rvp.frames_in"))),
        (pipeline, "detect", t.wrap_df("detector", pipeline.detect, counter("detector.dets"))),
        (pipeline, "prune_types", t.wrap_df(
            "otp", pipeline.prune_types, counter("otp.dets_kept"), in_counter("otp.dets_in"))),
        (pipeline, "estimate_3d_geometry", t.wrap_df(
            "geom3d", pipeline.estimate_3d_geometry, _on_geom3d)),
        (pipeline, "estimate_3d_depth", t.wrap_df("depth", pipeline.estimate_3d_depth, on_depth)),
        (pipeline, "frame_view_hulls", t.wrap_df("efs", pipeline.frame_view_hulls)),
        (pipeline, "sample_frames", t.wrap_df(
            "efs", pipeline.sample_frames, counter("efs.frames_kept"),
            in_counter("efs.frames_in", distinct=True))),
        (pipeline, "track_objects", t.wrap_df("tracker", pipeline.track_objects, on_track)),
        (sflow, "run_video_processor", t.wrap_value("pipeline", sflow.run_video_processor)),
        (sflow, "movable_objects", t.wrap_df("query_engine.movable_objects", sflow.movable_objects)),
        (sflow, "combination_count", t.wrap_value(
            "query_engine.combination_count", sflow.combination_count, on_comb)),
        (sflow, "compile_filter", t.wrap_df(
            "query_engine.compile_filter", sflow.compile_filter, counter("query_engine.result_rows"))),
        (sflow, "save_videos", t.wrap_df("output", sflow.save_videos, _on_output)),
        (sflow.World, "save_videos", save_videos),
    ]


@contextmanager
def traced(spark, root_group: str):
    """Patch every layer boundary for the duration of the block."""
    t = Tracer(spark, root_group)
    patches = _patches(t)
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, fn in patches:
            setattr(owner, name, fn)
        yield t
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of one traced pass."""
    kids: dict[int, list[dict]] = defaultdict(list)
    for s in t.spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)

    def inclusive(s, key):
        return s[key] + sum(inclusive(c, key) for c in kids[s["id"]])

    m: dict[str, float] = defaultdict(float)
    for s in t.spans:
        layer = s["layer"]
        if layer.startswith("query_engine."):
            m[f"{layer}_s"] += s["s"]
            m["query_engine.jobs"] += s["jobs"]
            m["query_engine.stages"] += s["stages"]
            continue
        key = "sflow.save_videos_s" if layer == "sflow" else f"{layer}.s"
        m[key] += s["s"]
        if layer in ("sflow", "pipeline"):
            m[f"{layer}.self_s"] += s["s"] - s["children_s"]
        if layer in ("pipeline", "rvp"):
            m[f"{layer}.jobs"] += inclusive(s, "jobs")
            m[f"{layer}.stages"] += inclusive(s, "stages")
    m.update(t.counts)
    for layer, kin, kout in (("rvp", "frames_in", "frames_kept"),
                             ("otp", "dets_in", "dets_kept"),
                             ("efs", "frames_in", "frames_kept")):
        if m[f"{layer}.{kin}"]:
            m[f"{layer}.keep_ratio"] = m[f"{layer}.{kout}"] / m[f"{layer}.{kin}"]
    if m["query_engine.combinations"]:
        m["query_engine.hit_ratio"] = m["query_engine.result_rows"] / m["query_engine.combinations"]
    return m
