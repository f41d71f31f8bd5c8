"""Record ``reference.json``: each query's answer digest and modeled ms,
per workload and pool scene, at the current commit.

    python3 perfbench/record.py

Each pool scene runs alone. A two-scene run then measures the modeled
cost a query charges once however many scenes it covers (the road
network's share of the Data Integrator), and checks that its answers are
the union of the single-scene answers — the property that lets any seed's
scene subset be checked against this file.
"""
from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    work = run.use_program(run.ROOT / "src")
    from workloads import (
        DATA_SEED, POOL_SCENES, REFERENCE, SCENE_FRAMES, WORKLOADS, digest_by_video,
        scene_dataset,
    )

    spark = run.start_session(work)
    ref = {"data": {"generator": "nuscenes_lite", "data_seed": DATA_SEED,
                    "pool_scenes": POOL_SCENES, "scene_frames": SCENE_FRAMES},
           "env": run.env_facts(spark), "workloads": {}}
    try:
        for wl in WORKLOADS.values():
            def answers(scenes):
                ds = scene_dataset(scenes)
                out = {}
                for q in wl.queries:
                    spark.catalog.clearCache()
                    pdf, cost = wl.run_query(spark, ds, q)
                    out[q] = (digest_by_video(pdf, ds.video_ids), cost.total_ms)
                return out

            wref = {"queries": {q: {} for q in wl.queries}, "shared_ms": {}}
            for s in range(POOL_SCENES):
                for q, (dig, ms) in answers([s]).items():
                    [(vid, d)] = dig.items()
                    wref["queries"][q][vid] = {"answer": d, "ms": ms}
                    print(wl.name, q, vid, d, ms, flush=True)
            for q, (dig, ms) in answers([0, 1]).items():
                singles = wref["queries"][q]
                for vid, d in dig.items():
                    if d != singles[vid]["answer"]:
                        raise RuntimeError(f"{wl.name} {q} {vid}: not per-video independent")
                wref["shared_ms"][q] = sum(singles[v]["ms"] for v in dig) - ms
            ref["workloads"][wl.name] = wref
    finally:
        run.stop_session(spark)
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
