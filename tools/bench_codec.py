"""Growth of the decimal codec on big integers: arith.int_text and
arith._text_int in seconds on random integers of 150k, 840k and 3.6M bits,
with the log-log slope fitted over them.

    python3 tools/bench_codec.py

Adds this checkout's run to BENCH_codec.json at the repository root,
replacing an earlier run of the same code (same src digest) under the same
int/str digit limit. Every time is the median of RUNS runs, each scaled by
the host_ms() readings around it (tools/benchlib.py); the run records the
median reading as host_ms. Runs without host_ms were timed unscaled. The
run records the Python version, the commit (with "-dirty" when src/
or perfbench/ differs from it), a digest of src/rmlattice/*.py and the
interpreter's int/str digit limit as int_max_str_digits (0 when it is
off, or on a Python without one).
"""

from __future__ import annotations

import math
import random
import statistics
import sys

from benchlib import ROOT, HostClock, add_run, identity

# benchlib has put src/ on sys.path
from rmlattice import arith

RUNS = 5
BITS = (150_000, 840_000, 3_600_000)
OUT = ROOT / "BENCH_codec.json"
CLOCK = HostClock()


def _median_s(fn) -> float:
    """The median of RUNS scaled times of fn()."""
    return statistics.median(CLOCK.seconds(fn) for _ in range(RUNS))


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
        "digits": digits_points(),
    }
    run["host_ms"] = CLOCK.median_host_ms()
    add_run(OUT, run, ("src_sha256", "int_max_str_digits"))


if __name__ == "__main__":
    main()
