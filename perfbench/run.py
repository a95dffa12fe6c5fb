"""The rmlattice benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pool --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is taken from `src/` next to this directory.
With `--trace 0` it prints every end-to-end metric; with `--trace 1` it
runs the same workload under the span tracer and prints the per-layer
metrics instead. The last line of stdout is the result as one JSON object:
{"correct", "attempted", "failed", "metrics"}. The line before it, starting
with RECORD, holds the Python version, commit, nproc, seed, each operation
kind's sample count and tail percentile, refusals and failures.

Besides the checks worker.py makes on every operation, a run fails if its
refusal count is not REFUSED_PER_PASS times its passes, or if its
first-pass digest differs from the one pinned in digests.json for the
workload and seed. A seed with no pinned digest is named in the table.

Times come from worker.py scaled to a reference host speed (see there).
A run does several passes, each with every shape of the workload once
(workloads.py); each shape's mean over its passes is one sample, and
p50 and tail are Harrell-Davis quantiles of those samples. chains_per_s
is completed chains per pass over the sum of the shapes' mean chain
times.

The workload runs in a fresh worker process (worker.py). Set-up is also
measured in SETUP_SAMPLES - 1 extra worker processes that stop after
set-up, and setup_s is the median. Exit code 1 means the benchmark itself
could not run; then no result line is printed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import host_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("pool", "conductor", "numtheory", "cli")
SETUP_SAMPLES = 5
# generate's PreconditionErrors per pass. They depend only on the fixed
# (D, f, primes) shapes, so not on the seed: conductor has one shape
# whose suborder has no norm +-p element.
REFUSED_PER_PASS = {"pool": 0, "conductor": 1, "numtheory": 0, "cli": 0}
RUN_LIMIT_S = 170.0
END_TO_END = (
    ("setup_s", "s"),
    ("generate_p50_ms", "ms"),
    ("generate_tail_ms", "ms"),
    ("principalize_p50_ms", "ms"),
    ("principalize_tail_ms", "ms"),
    ("verify_p50_ms", "ms"),
    ("verify_tail_ms", "ms"),
    ("info_p50_ms", "ms"),
    ("chains_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (90 at most)."""
    if n <= 20:
        return 50
    return min(90, math.floor(100 * (n - 10) / n))


def quantile(values, q: float, steps: int = 20) -> float:
    """Harrell-Davis estimate of quantile q: a Beta((n+1)q, (n+1)(1-q))-weighted mean of the order statistics.

    Unlike a single order statistic it moves smoothly when a sample crosses
    it, so a quantile that falls in a gap between two groups of samples
    (pool's principalize times cluster by shape) does not jump between them.
    Each order statistic's weight is the Beta density integrated over its
    1/n slice of [0, 1] by the midpoint rule.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    m = n * steps
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t) for t in ((k + 0.5) / m for k in range(m))]
    top = max(logs)
    density = [math.exp(v - top) for v in logs]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def per_shape(times_by_shape) -> list[float]:
    """Each shape's mean time over the passes that reached it: one sample per shape.

    A mean, not a median: one shape's instances often cost either about x
    or about 2x (numtheory's generate), and a median of three instances
    jumps between the two where a mean moves by a third.
    """
    return [statistics.fmean(times) for times in times_by_shape if times]


def _commit() -> str | None:
    """HEAD of the checkout's own git repository, or None outside one."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _worker(args, tmp: Path, out: Path, limit: float, setup_only: bool = False) -> dict:
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src", str(SRC), "--tmp", str(tmp), "--out", str(out),
    ]
    if setup_only:
        argv.append("--setup-only")
    host0 = host_ms()
    t0 = perf_counter()
    # A session of its own, so a timeout also kills the CLI commands it runs.
    proc = subprocess.Popen(
        [*argv, "--t0", repr(t0), "--host0", repr(host0)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(limit, 0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(1)
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one rmlattice benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rmlattice" / "__init__.py").is_file():
        print(f"error: no rmlattice package under {SRC}", file=sys.stderr)
        return 1

    # One CPU for this process and every one it starts: the host's CPUs
    # differ in speed from moment to moment, and host_ms() reads only the
    # CPU it runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    begin = perf_counter()
    compileall.compile_dir(str(SRC), quiet=1)
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    out = ROOT / ".bench_out"
    tmp.mkdir(parents=True, exist_ok=True)
    out.mkdir(exist_ok=True)
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                left = RUN_LIMIT_S - (perf_counter() - begin)
                setup.append(_worker(args, tmp, out, left, setup_only=True)["setup_s"])
        result = _worker(args, tmp, out, RUN_LIMIT_S - (perf_counter() - begin))
    except subprocess.TimeoutExpired:
        print("error: the workload process overran its time limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setup.append(result["setup_s"])

    failures = result["failures"]
    attempted = result["attempted"] + 1
    expected = REFUSED_PER_PASS[args.workload] * result["passes"]
    if result["refused"] != expected:
        failures.append({
            "kind": "refused", "request": f"seed={args.seed}",
            "error": f"{result['refused']} generate refusals, expected {expected}: {result['refusals']}",
        })
    digests = json.loads((HERE / "digests.json").read_text())
    recorded = digests.get(args.workload, {}).get(str(args.seed))
    if recorded is not None:
        attempted += 1
        if recorded != result["first_pass_digest"]:
            failures.append({
                "kind": "digest", "request": f"seed={args.seed}",
                "error": f"first-pass digest {result['first_pass_digest']} != recorded {recorded}",
            })
    correct = not result["incorrect"] and not any(f["kind"] in ("refused", "digest") for f in failures)

    samples = {kind: per_shape(v) for kind, v in result["samples"].items()}
    if not all(samples.values()):
        print(f"error: an operation kind has no samples: {failures[:3]}", file=sys.stderr)
        return 1
    tails = {kind: tail_percentile(len(v)) for kind, v in samples.items()}
    if args.trace:
        import tracer

        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit} for name, unit in tracer.PER_LAYER
        }
    else:
        values = {
            "setup_s": statistics.median(setup),
            "info_p50_ms": quantile(samples["info"], 0.5),
            "chains_per_s": result["chains"] / result["passes"] / (sum(per_shape(result["chain_ms"])) / 1000),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        for kind in ("generate", "principalize", "verify"):
            values[f"{kind}_p50_ms"] = quantile(samples[kind], 0.5)
            values[f"{kind}_tail_ms"] = quantile(samples[kind], tails[kind] / 100)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']} of {result['pass_size']}  chains {result['chains']}  "
          f"refused {result['refused']}  failed {len(failures)}/{attempted}")
    if recorded is None:
        print(f"  digest not pinned for seed {args.seed}: first-pass output unchecked against digests.json")
    for kind, v in samples.items():
        print(f"  {kind:<13} n={len(v):<5} tail=p{tails[kind]}")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    for f in failures:
        print(f"  FAILED {f['kind']} [{f['request']}]: {f['error']}")
    record = {
        "python": platform.python_version(),
        "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {k: {"n": len(v), "tail_pct": tails[k]} for k, v in samples.items()},
        "setup_samples": setup,
        "passes": result["passes"],
        "host_ms": result["host_ms"],
        "refused": result["refused"],
        "refusals": result["refusals"],
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "first_pass_digest": result["first_pass_digest"],
        "digest_recorded": recorded is not None,
    }
    print("RECORD " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
