"""A/B timing: the working tree against a base commit, on the benchmark's
workloads, in alternating pairs of runs.

    python3 tools/bench_ab.py BASE [--workloads pool,cli] [--seeds 7-16]
                              [--seconds 20] [--out BENCH_ab.json]

Writes src/ and perfbench/ of commit BASE (with `git archive`) and of this
working tree side by side into a temporary directory, removed afterwards,
so the two differ in nothing but their files. Then, per workload and seed
(ten seeds by default, as a gain claim needs ten pairs),
it runs `perfbench/run.py --trace 0` once in each copy, each in its own
subprocess (tools/benchlib.py), as one pair; the round after swaps which
of the two runs first. run.py scales each time to the reference host
speed and pins itself to one CPU, the same one for both.

Adds one run to BENCH_ab.json (or --out) at the repository root. A run
holds base, BASE's commit, and head, this checkout's (with "-dirty" when
src/ differs from it), the digests of both src/rmlattice/*.py, the Python
version, the seeds as a-b and the run length. Per workload it holds,
under "base" and "head", whether every run of that side was correct, its
attempted and failed operation counts summed over the seeds and the
median host_ms of its RECORD lines; and per end-to-end metric: the pairs,
how many of them head won and lost, as the metric's "better" in
BENCHMARK.json reads, the median and quartiles of the ratio head/base over
the pairs, and under "base" and "head" the median and quartiles of each
side's own values, so that a claimed gain can be checked: head's median
should beat base's by more than base's q3 - q1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from benchlib import ROOT, add_run, identity, run_workload, seeds, spread, src_sha256

WORKLOADS = ("pool", "conductor", "numtheory", "cli")
# the default --seeds: ten seeds, one pair of runs each per workload
SEEDS = "7-16"
PARTS = ("src", "perfbench")


def _export(base: str, into: Path) -> None:
    """PARTS of commit base, written under into."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", base, *PARTS], cwd=ROOT, capture_output=True, check=True
    ).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def _copy(into: Path) -> None:
    """PARTS of this working tree, without bytecode, written under into."""
    for part in PARTS:
        shutil.copytree(ROOT / part, into / part, ignore=shutil.ignore_patterns("__pycache__"))


def _compare(base: list[float], head: list[float], better: str) -> dict:
    ratios = [h / b for h, b in zip(head, base)]
    won = sum(r < 1 if better == "lower" else r > 1 for r in ratios)
    lost = sum(r > 1 if better == "lower" else r < 1 for r in ratios)
    return {
        "pairs": len(ratios),
        "won": won,
        "lost": lost,
        **{f"ratio_{k}": round(v, 4) for k, v in spread(ratios).items()},
        **{side: {k: round(v, 4) for k, v in spread(values).items()}
           for side, values in (("base", base), ("head", head))},
    }


def _side(runs: list[tuple[dict, dict]]) -> dict:
    """Whether every (result, record) run was correct, the summed operation
    counts and the median host_ms reading."""
    return {
        "correct": all(result["correct"] for result, _ in runs),
        "attempted": sum(result["attempted"] for result, _ in runs),
        "failed": sum(result["failed"] for result, _ in runs),
        "host_ms": round(statistics.median(record["host_ms"] for _, record in runs), 4),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the commit to compare against, as git names it")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads (default all four)")
    parser.add_argument("--seeds", type=seeds, default=SEEDS,
                        help=f"a seed or a range a-b (default {SEEDS})")
    parser.add_argument("--seconds", default="20", help="run.py's --seconds (default 20)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_ab.json")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    if not set(workloads) <= set(WORKLOADS):
        parser.error(f"--workloads must name some of {', '.join(WORKLOADS)}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    base_commit = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", "--short=12", f"{args.base}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True,
    ).stdout.strip()
    if not base_commit:
        parser.error(f"{args.base!r} names no commit")
    head = identity()

    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        base_root, head_root = Path(tmp) / "base", Path(tmp) / "head"
        _export(base_commit, base_root)
        _copy(head_root)
        base_src = src_sha256(base_root)
        rounds = 0
        results = {}
        for workload in workloads:
            sides = {"base": [], "head": []}
            for seed in args.seeds:
                order = [("base", base_root), ("head", head_root)]
                if rounds % 2:
                    order.reverse()
                rounds += 1
                for side, root in order:
                    sides[side].append(run_workload(root, workload, seed, args.seconds))
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{side} correct={runs[-1][0]['correct']} failed={runs[-1][0]['failed']}"
                    for side, runs in sides.items()), file=sys.stderr)
            metrics = {}
            for name in sides["head"][0][0]["metrics"]:
                base_values, head_values = (
                    [result["metrics"][name]["value"] for result, _ in sides[side]]
                    for side in ("base", "head")
                )
                metrics[name] = _compare(base_values, head_values, better[name])
            results[workload] = {side: _side(runs) for side, runs in sides.items()}
            results[workload]["metrics"] = metrics

    run = {
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "base": base_commit,
        "base_src_sha256": base_src,
        "head": head["commit"],
        "head_src_sha256": head["src_sha256"],
        "python": head["python"],
        "seeds": f"{args.seeds[0]}-{args.seeds[-1]}",
        "seconds": float(args.seconds),
        "workloads": results,
    }
    # keyed on its date, so every call adds a run
    add_run(args.out, run, ("date",))


if __name__ == "__main__":
    main()
