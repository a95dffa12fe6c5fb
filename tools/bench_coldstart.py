"""CLI cold start: a bare interpreter, the package import and the README's
four commands, each in a fresh interpreter.

    python3 tools/bench_coldstart.py

Adds this checkout's run to BENCH_coldstart.json at the repository root,
replacing an earlier run of the same code with the same bytecode state. A
run holds, in milliseconds:

- interpreter_ms: `python -c pass`;
- import_ms: `import rmlattice.cli`, timed inside the child;
- generate_ms, info_ms, principalize_ms, verify_ms: the README example
  (`generate --D 5 --conductor 3 --degree-primes 11 --seed 42`, then
  `info`, `principalize` and `verify` on its output), each
  `python -m rmlattice.cli` wall to wall, and commands_ms, their sum.

The measurements take turns, RUNS rounds of each; every time is the median
of its RUNS, each scaled by the host_ms() readings around it
(tools/benchlib.py), and the run records the median reading as host_ms.
Children run with PYTHONDONTWRITEBYTECODE=1, so the run leaves src/ as it
found it; src_bytecode says whether src/rmlattice held bytecode for this
interpreter. The run also records the Python version, the commit, a digest
of src/rmlattice/*.py and the modules the import adds to a `python -S`
interpreter, so to one that site has preloaded nothing into.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile

from benchlib import ROOT, HostClock, add_run, identity

RUNS = 11
OUT = ROOT / "BENCH_coldstart.json"
SRC = ROOT / "src"
IMPORT = (
    "import time; t = time.perf_counter(); import rmlattice.cli; "
    "print(time.perf_counter() - t)"
)
ADDED = (
    "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
    "import rmlattice.cli; print(' '.join(sorted(set(sys.modules) - before)))"
)


def _commands(tmp: str) -> dict[str, list[str]]:
    inst, out, cert = (os.path.join(tmp, n) for n in ("inst.json", "out.json", "cert.json"))
    return {
        "generate": ["generate", "--D", "5", "--conductor", "3", "--degree-primes", "11",
                     "--seed", "42", "-o", inst],
        "info": ["info", inst],
        "principalize": ["principalize", inst, "-o", out, "--cert-out", cert],
        "verify": ["verify", inst, cert],
    }


def _child(argv: list[str], env: dict) -> str:
    """Run a child interpreter to completion; its stdout."""
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    tag = sys.implementation.cache_tag
    bytecode = any((SRC / "rmlattice" / "__pycache__").glob(f"*.{tag}.pyc"))
    added = _child([sys.executable, "-S", "-c", ADDED, str(SRC)], env).split()
    clock = HostClock()
    ms: dict[str, list[float]] = {"interpreter": [], "import": []}
    with tempfile.TemporaryDirectory() as tmp:
        commands = _commands(tmp)
        for _ in range(RUNS):
            ms["interpreter"].append(clock.seconds(lambda: _child([sys.executable, "-c", "pass"], env)))
            ms["import"].append(
                clock.seconds(lambda: float(_child([sys.executable, "-c", IMPORT], env)), own_time=True)
            )
            for name, args in commands.items():
                argv = [sys.executable, "-m", "rmlattice.cli", *args]
                ms.setdefault(name, []).append(clock.seconds(lambda: _child(argv, env)))
    run = {**identity(), "src_bytecode": bytecode, "runs_per_point": RUNS}
    run.update({f"{name}_ms": round(statistics.median(t) * 1000, 2) for name, t in ms.items()})
    run["commands_ms"] = round(sum(run[f"{name}_ms"] for name in commands), 2)
    run["host_ms"] = clock.median_host_ms()
    run["import_adds"] = added
    add_run(OUT, run, ("src_sha256", "src_bytecode"))


if __name__ == "__main__":
    main()
