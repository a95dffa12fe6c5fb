"""Codec timings: the JSON writer and reader per chain, and decimal text of
big integers both ways.

    python3 tools/bench_codec.py

Adds this checkout's run to BENCH_codec.json at the repository root,
replacing an earlier run of the same code (same src digest) under the same
int/str digit limit. A run holds:

- per workload (pool, conductor, numtheory; the first pass of seed 1, as
  perfbench/workloads.py builds it): microseconds per chain to serialize
  the principal instance and the certificate, and to parse the certificate
  and the input instance, with a digest of every text written, which is
  equal across runs whose writers agree byte for byte. The writer keeps
  each surface's text, so the instance and the certificate's final block
  share one render, and each run serializes fresh copies of the principal
  surfaces, made outside the timed call;
- arith.int_text and arith._text_int in seconds on random integers of
  150k, 840k and 3.6M bits, with the log-log slope fitted over them.

Every time is the median of RUNS runs, each scaled by the host_ms()
readings around it (tools/benchlib.py); the run records the median reading
as host_ms. Runs without host_ms were timed unscaled. The per-chain codec
times are descriptive only: runs of the same code minutes apart differ by
up to about 15%. A codec gain is claimed from tools/bench_ab.py's
principalize_p50_ms, which includes the writer, and verify_p50_ms, which
includes the reader. The run records the Python version, the commit (with
"-dirty" when src/ differs from it), a digest of src/rmlattice/*.py and
the interpreter's int/str digit limit as int_max_str_digits (0 when it is
off, or on a Python without one).
"""

from __future__ import annotations

import copy
import hashlib
import math
import random
import statistics
import sys

from benchlib import ROOT, HostClock, add_run, identity

# benchlib has put src/ and perfbench/ on sys.path
import workloads
from rmlattice import arith, formats
from rmlattice.errors import PreconditionError
from rmlattice.generator import generate_instance
from rmlattice.reduction import CertificateData, principalize

RUNS = 5
SEED = 1
WORKLOADS = ("pool", "conductor", "numtheory")
BITS = (150_000, 840_000, 3_600_000)
OUT = ROOT / "BENCH_codec.json"
CLOCK = HostClock()


def _median_s(fn, fresh=lambda: ()) -> float:
    """The median of RUNS scaled times of fn(*fresh()), each fresh() called
    before its timing starts."""
    times = []
    for _ in range(RUNS):
        args = fresh()
        times.append(CLOCK.seconds(lambda: fn(*args)))
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

    def fresh() -> tuple[list]:
        # the writer has kept the text on each result above; a copy keeps
        # none, and the certificate on it refers to it as principalize's does
        certs = [
            CertificateData(steps=cert.steps, final=copy.copy(result))
            for result, cert, _, _ in chains
        ]
        if any("text" in vars(cert.final) for cert in certs):
            raise SystemExit("a copied surface holds its instance text")
        return (certs,)

    def serialize(certs):
        for cert in certs:
            formats.serialize_instance(cert.final)
            formats.serialize_certificate(cert)

    def parse():
        for _, _, inst_text, cert_text in chains:
            formats.parse_certificate(cert_text)
            formats.parse_instance(inst_text)

    n = len(chains)
    return {
        "chains": n,
        "serialize_us_per_chain": round(_median_s(serialize, fresh) * 1e6 / n, 1),
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


def main() -> None:
    run = {
        **identity(),
        "int_max_str_digits": getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        "runs_per_point": RUNS,
        "codec": {w: codec_point(w) for w in WORKLOADS},
        "digits": digits_points(),
    }
    run["host_ms"] = CLOCK.median_host_ms()
    add_run(OUT, run, ("src_sha256", "int_max_str_digits"))


if __name__ == "__main__":
    main()
