"""Spatialyze benchmark: one workload, one closed-loop run, one JSON line.

    python3 perfbench/run.py --workload sflow_optimized --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is imported from ``src/``; a
single local Spark session with pinned settings runs the workload (see
``workloads.py``). Set-up — session start, dataset generation (repeated,
median kept) and the workload's untimed warm-up passes — is timed as
``setup_s``. Then passes of the
workload's query list run back to back until ``--seconds`` have passed;
Spark's cache is cleared before each pass, so no pass reuses the frames
an earlier one persisted. ``run_s`` is the median pass.

``--trace 1`` adds one traced pass (``spans.py``) and reports the
per-layer metrics instead; ``trace.overhead_s`` is its wall-clock minus
the median untraced pass.

Every query's answer and modeled cost is checked against
``reference.json``, and every pass must run the same number of Spark jobs
and stages. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when the run was correct.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sflow_unoptimized", "sflow_optimized")
PREPARE_REPEATS = 3

# The test fixture's session settings, pinned here rather than read from
# the environment. Two differ: 4 shuffle partitions instead of 64, which
# make one pass too slow for the run budget (an unoptimized Q2 pass took
# 23 s at 64 against 6-9 s at 4), and a fixed 2g driver heap instead of
# one sized from the machine.
SPARK_CONF = {
    "spark.master": "local[*]",
    "spark.driver.memory": "2g",
    "spark.driver.host": "127.0.0.1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.sql.shuffle.partitions": "4",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    # Keep every job and stage of a run in the status store (default 1000).
    "spark.ui.retainedJobs": "100000",
    "spark.ui.retainedStages": "100000",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process; prints one result line per workload."""
    rc = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if result is None:
            sys.stderr.write(proc.stderr[-4000:])
            print(f"{name}: exit {proc.returncode}, no result")
            rc = rc or proc.returncode or 1
            continue
        rc = rc or proc.returncode
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for k, v in result["metrics"].items():
            print(f"  {k:36s} {v['value']:>14.6g} {v['unit']}")
    return rc


def use_program(src: Path) -> Path:
    """Point this process and Spark's Python workers at ``src``; returns
    the run's scratch directory inside the checkout."""
    work = HERE / ".work" / f"run-{os.getpid()}"
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    sys.dont_write_bytecode = True
    return work


def start_session(work: Path):
    from pyspark.sql import SparkSession

    (work / "tmp").mkdir(parents=True)
    b = SparkSession.builder.appName("perfbench")
    for k, v in SPARK_CONF.items():
        b = b.config(k, v)
    b = (
        b.config("spark.local.dir", str(work / "spark-local"))
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={work / 'tmp'}")
    )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait for the JVM (and with it the Python workers)."""
    from pyspark import SparkContext

    spark.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def env_facts(spark) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    sc = spark.sparkContext
    return {
        "nproc": os.cpu_count(),
        "mem_gib": round(mem / (1 << 30), 1),
        "commit": commit,
        "python": platform.python_version(),
        "spark": spark.version,
        "java": sc._jvm.System.getProperty("java.version"),
        "default_parallelism": sc.defaultParallelism,
        "spark_conf": SPARK_CONF,
    }


class Runner:
    """Runs passes of one workload and checks every answer."""

    def __init__(self, spark, wl, ds, ref):
        self.spark, self.wl, self.ds, self.ref = spark, wl, ds, ref
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self._n = 0

    def run_pass(self, tracer_ctx=None) -> dict:
        from spans import cached_state, spark_counts

        from workloads import check_answer, digest_by_video

        self._n += 1
        group = f"perfbench-pass{self._n}"
        sc = self.spark.sparkContext
        self.spark.catalog.clearCache()
        sc.setJobGroup(group, "perfbench")
        outcomes = []
        with tracer_ctx(self.spark, group) if tracer_ctx else nullcontext() as tracer:
            t0 = time.perf_counter()
            for q in self.wl.queries:
                try:
                    outcomes.append((q, *self.wl.run_query(self.spark, self.ds, q)))
                except Exception:  # a failed query is counted, the run goes on
                    outcomes.append((q, None, None))
                    self.errors.append(f"{q}: {traceback.format_exc()}")
            dt = time.perf_counter() - t0
        costs = []
        for q, pdf, cost in outcomes:
            self.attempted += 1
            if pdf is None:
                self.failed += 1
                continue
            errs = check_answer(self.ref, self.wl.name, q,
                                digest_by_video(pdf, self.ds.video_ids), cost)
            self.errors += errs
            self.failed += bool(errs)
            costs.append(cost)
        jobs, stages, tasks = spark_counts(sc, group)
        rdds, mb = cached_state(sc)
        return {"s": dt, "modeled_s": sum(c.total_ms for c in costs) / 1000.0,
                "jobs": jobs, "stages": stages, "tasks": tasks,
                "cached_rdds_end": rdds, "cached_mb_end": mb, "costs": costs, "tracer": tracer}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no program sources under {src}", file=sys.stderr)
        return 2
    work = use_program(src)

    from spans import COST_OPS, layer_metrics, traced

    from workloads import WORKLOADS, load_reference, pick_scenes, scene_dataset

    wl = WORKLOADS[args.workload]
    ref = load_reference()
    spark = start_session(work)
    try:
        session_s = time.perf_counter() - T_START
        print("env " + json.dumps(env_facts(spark)), flush=True)
        # Input preparation is cheap, so it is repeated and its median kept.
        scenes = pick_scenes(args.seed)
        prep = []
        for _ in range(PREPARE_REPEATS):
            t0 = time.perf_counter()
            ds = scene_dataset(scenes)
            prep.append(time.perf_counter() - t0)
        prepare_s = statistics.median(prep)
        runner = Runner(spark, wl, ds, ref)
        warmups = [runner.run_pass() for _ in range(wl.warmups)]
        warm, warmup_s = warmups[0], sum(p["s"] for p in warmups)
        setup_s = session_s + prepare_s + warmup_s
        print(f"setup scenes={scenes} session_s={session_s:.3f} prepare_s={prepare_s:.3f} "
              f"warmup_s={warmup_s:.3f} jobs={warm['jobs']} stages={warm['stages']}", flush=True)

        passes = []
        t_meas = time.perf_counter()
        while not passes or time.perf_counter() - t_meas < args.seconds:
            p = runner.run_pass()
            passes.append(p)
            print(f"pass {len(passes)} s={p['s']:.3f} jobs={p['jobs']} stages={p['stages']} "
                  f"tasks={p['tasks']} cached_rdds={p['cached_rdds_end']} "
                  f"cached_mb={p['cached_mb_end']:.3f}", flush=True)
        run_s = statistics.median(p["s"] for p in passes)
        for p in warmups[1:] + passes:
            if (p["jobs"], p["stages"]) != (warm["jobs"], warm["stages"]):
                runner.errors.append(
                    f"pass ran {p['jobs']} jobs / {p['stages']} stages, "
                    f"warm-up {warm['jobs']} / {warm['stages']}")

        if args.trace:
            tp = runner.run_pass(traced)
            print(f"traced s={tp['s']:.3f}", flush=True)
            values = layer_metrics(tp["tracer"])
            last = passes[-1]
            for k in ("jobs", "stages", "tasks", "cached_rdds_end", "cached_mb_end"):
                values[f"spark.{k}"] = last[k]
            for op in COST_OPS:
                values[f"costmodel.{op}_ms"] = sum(c.ms(op) for c in tp["costs"])
            values.update({"setup.session_s": session_s, "setup.prepare_s": prepare_s,
                           "setup.warmup_s": warmup_s, "trace.overhead_s": tp["s"] - run_s})
            wanted = spec["per_layer"]
        else:
            values = {"run_s": run_s, "setup_s": setup_s, "modeled_s": passes[0]["modeled_s"]}
            wanted = spec["end_to_end"]
    finally:
        stop_session(spark)
        shutil.rmtree(work, ignore_errors=True)

    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    for e in runner.errors:
        print(f"error: {e}", file=sys.stderr)
    correct = not runner.errors
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
