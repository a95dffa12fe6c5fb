"""Codec timings: the JSON writer and reader per chain, and decimal text of
big integers both ways.

    python3 tools/bench_codec.py

Adds this checkout's run to BENCH_codec.json at the repository root,
replacing an earlier run of the same code (same src digest). A run holds:

- per workload (pool, conductor, numtheory; the first pass of seed 1, as
  perfbench/workloads.py builds it): microseconds per chain to serialize
  the principal instance and the certificate, and to parse the certificate
  and the input instance, with a digest of every text written, which is
  equal across runs whose writers agree byte for byte;
- arith.int_text and arith._text_int in seconds on random integers of
  150k, 840k and 3.6M bits, with the log-log slope fitted over them.

Every time is the median of RUNS runs. The run records the Python version,
the commit (with "-dirty" when src/ differs from it) and a digest of
src/rmlattice/*.py.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from rmlattice import arith, formats  # noqa: E402
from rmlattice.errors import PreconditionError  # noqa: E402
from rmlattice.generator import generate_instance  # noqa: E402
from rmlattice.reduction import principalize  # noqa: E402

RUNS = 5
SEED = 1
WORKLOADS = ("pool", "conductor", "numtheory")
BITS = (150_000, 840_000, 3_600_000)
OUT = ROOT / "BENCH_codec.json"


def _median_s(fn) -> float:
    times = []
    for _ in range(RUNS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def codec_point(workload: str) -> dict:
    chains = []
    for req in workloads.build(workload, SEED, 1)[0]:
        try:
            start = generate_instance(req.D, req.f, list(req.primes), req.gen_seed)
        except PreconditionError:
            continue
        result, cert = principalize(start)
        chains.append((
            result,
            cert,
            formats.serialize_instance(start),
            formats.serialize_certificate(cert),
        ))
    digest = hashlib.sha256()
    for result, cert, inst_text, cert_text in chains:
        digest.update(formats.serialize_instance(result).encode())
        digest.update(cert_text.encode())
        digest.update(inst_text.encode())

    def serialize():
        for result, cert, _, _ in chains:
            formats.serialize_instance(result)
            formats.serialize_certificate(cert)

    def parse():
        for _, _, inst_text, cert_text in chains:
            formats.parse_certificate(cert_text)
            formats.parse_instance(inst_text)

    n = len(chains)
    return {
        "chains": n,
        "serialize_us_per_chain": round(_median_s(serialize) * 1e6 / n, 1),
        "parse_us_per_chain": round(_median_s(parse) * 1e6 / n, 1),
        "output_sha256": digest.hexdigest(),
    }


def _slope(points: list[tuple[int, float]]) -> float:
    xs = [math.log(b) for b, _ in points]
    ys = [math.log(s) for _, s in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def digits_points() -> dict:
    rng = random.Random("bench_codec")
    rows = {"int_text": [], "_text_int": []}
    for bits in BITS:
        value = rng.getrandbits(bits) | (1 << (bits - 1))
        text = arith.int_text(value)
        if arith._text_int(text) != value:
            raise SystemExit(f"_text_int(int_text(v)) != v at {bits} bits")
        rows["int_text"].append((bits, _median_s(lambda: arith.int_text(value))))
        rows["_text_int"].append((bits, _median_s(lambda: arith._text_int(text))))
    return {
        name: {
            "seconds": {str(bits): round(s, 4) for bits, s in points},
            "slope": round(_slope(points), 3),
        }
        for name, points in rows.items()
    }


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def main() -> None:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rmlattice").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    dirty = _git("status", "--porcelain", "--", "src") != ""
    run = {
        "commit": _git("rev-parse", "--short=12", "HEAD") + ("-dirty" if dirty else ""),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "runs_per_point": RUNS,
        "codec": {w: codec_point(w) for w in WORKLOADS},
        "digits": digits_points(),
    }
    print(json.dumps(run, indent=2))
    runs = json.loads(OUT.read_text())["runs"] if OUT.exists() else []
    runs = [r for r in runs if r["src_sha256"] != run["src_sha256"]] + [run]
    OUT.write_text(json.dumps({"runs": runs}, indent=2) + "\n")


if __name__ == "__main__":
    main()
