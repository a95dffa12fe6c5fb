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
import json
import statistics
import subprocess
import sys

from benchlib import ROOT, add_run, identity

OUT = ROOT / "BENCH_workloads.json"
WORKLOADS = ("pool", "conductor", "numtheory", "cli")


def _seeds(text: str) -> list[int]:
    """The seeds of a range a-b, or the one seed a."""
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def _run(workload: str, seed: int, seconds: str) -> tuple[dict, dict]:
    """(result, record) of one run.py run: its last line and its RECORD line."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    record = next(json.loads(line[len("RECORD "):]) for line in lines if line.startswith("RECORD "))
    return json.loads(lines[-1]), record


def _spread(values: list[float]) -> dict:
    """Median and quartiles; the quartiles are the median itself for one value."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-3", help="a seed or a range a-b (default 1-3)")
    parser.add_argument("--seconds", default="20", help="run.py's --seconds (default 20)")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    workloads = {}
    for workload in WORKLOADS:
        results, records = [], []
        for seed in seeds:
            result, record = _run(workload, seed, args.seconds)
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)
            results.append(result)
            records.append(record)
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = {**{k: round(v, 4) for k, v in _spread(values).items()},
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
