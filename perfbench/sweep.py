"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 20 --out perfbench/results/NAME.json
    python3 perfbench/sweep.py --seeds 0-23 --seconds 0 --record-digests

For each workload and seed it runs run.py once, in sequence, and keeps the
result line, the RECORD line and the run's wall time. Per workload and
metric it reports the median, the quartiles (statistics.quantiles, n=4)
and the spread: the distance between the quartiles as a share of the
median. `--record-digests` stores each run's first-pass digest in
digests.json, which run.py then checks on every later run with the same
workload and seed. It writes nothing if any run has a failure other than
a digest mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median and len(values) > 1 else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary, digests, broken = {}, json.loads((HERE / "digests.json").read_text()), []
    for workload in WORKLOADS:
        runs = []
        for seed in args.seeds:
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=200,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            record = json.loads(lines[-2].removeprefix("RECORD "))
            wall_s = perf_counter() - start
            runs.append({"seed": seed, "wall_s": wall_s, "result": result, "record": record})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"refused={record['refused']} wall={wall_s:.1f}s", flush=True)
            if any(f["kind"] != "digest" for f in record["failures"]):
                broken.append(f"{workload} seed {seed}")
            if args.record_digests:
                digests.setdefault(workload, {})[str(seed)] = record["first_pass_digest"]
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            stats = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            metrics[name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound and stats["spread"] is not None:
                flag = "ok" if stats["spread"] < bound / 3 else ("within bound" if stats["spread"] <= bound else "OVER BOUND")
            spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.3f}"
            unit = runs[0]["result"]["metrics"][name]["unit"]
            print(f"  {workload:<10} {name:<36} median {stats['median']:<10.5g} {unit:<5} "
                  f"spread {spread} {flag}  [{' '.join(f'{v:.4g}' for v in stats['values'])}]")
        summary[workload] = {"metrics": metrics, "runs": runs}
    if args.record_digests and broken:
        print(f"not recording digests: runs with failures: {', '.join(broken)}", file=sys.stderr)
        return 1
    if args.record_digests:
        for workload in digests:
            digests[workload] = dict(sorted(digests[workload].items(), key=lambda kv: int(kv[0])))
        (HERE / "digests.json").write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
