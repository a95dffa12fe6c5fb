"""The benchmark's four workloads over a range of seeds, as one run.

    python3 tools/bench_workloads.py [--seeds 1-3] [--seconds 20]

Runs `perfbench/run.py --trace 0` once per workload and seed, one process
at a time, and adds this checkout's run to BENCH_workloads.json at the
repository root, replacing an earlier run of the same code with the same
seeds and run length. For each workload the run holds every end-to-end
metric's median and quartiles over the seeds, with its unit, and the
attempted and failed operation counts summed over them, whether every
seed was correct, and the median of the seeds' host_ms readings. The run
also records the seeds, the run length, the Python version, the commit
and a digest of src/rmlattice/*.py (tools/benchlib.py).

run.py already scales each time to the reference host speed; the median
and quartiles are taken over the seeds, one value per seed.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from benchlib import ROOT, add_run, identity, run_workload, seeds, spread

OUT = ROOT / "BENCH_workloads.json"
WORKLOADS = ("pool", "conductor", "numtheory", "cli")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-3", help="a seed or a range a-b (default 1-3)")
    parser.add_argument("--seconds", default="20", help="run.py's --seconds (default 20)")
    args = parser.parse_args()
    workloads = {}
    for workload in WORKLOADS:
        results, records = [], []
        for seed in seeds(args.seeds):
            result, record = run_workload(ROOT, workload, seed, args.seconds)
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)
            results.append(result)
            records.append(record)
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = {**{k: round(v, 4) for k, v in spread(values).items()},
                             "unit": first["unit"]}
        workloads[workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "host_ms": round(statistics.median(r["host_ms"] for r in records), 4),
            "metrics": metrics,
        }
    run = {**identity(), "seeds": args.seeds, "seconds": float(args.seconds), "workloads": workloads}
    add_run(OUT, run, ("src_sha256", "seeds", "seconds"))


if __name__ == "__main__":
    main()
