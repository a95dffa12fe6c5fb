"""Run one rmlattice CLI command under the span tracer.

Usage: python cli_shim.py SPANS_OUT COMMAND ARGS...  (with PYTHONPATH=src)

The traced `cli` workload starts this in place of `python -m rmlattice.cli`,
so each command still runs in a fresh interpreter with empty caches. The
spans, and the fundamental_unit cache hits and misses, go to SPANS_OUT.
"""

import sys

import rmlattice.cli
import tracer as tracer_mod


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    tracer = tracer_mod.Tracer()
    tracer.install()
    tracer.on = True
    try:
        return rmlattice.cli.main(args)
    finally:
        tracer.on = False
        hits, misses = tracer.cache_counts()
        tracer.dump(out, {"fu_hits": hits, "fu_misses": misses})


if __name__ == "__main__":
    raise SystemExit(main())
