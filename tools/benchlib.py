"""The helpers of the timing tools. bench_ab.py and bench_codec.py share
host-speed scaling, the identity of a run and the committed file of runs;
bench_ab.py alone uses the --seeds type, the quartiles and one
perfbench/run.py run in a subprocess.

A time is scaled as perfbench/worker.py scales its samples: by the
host_ms() readings taken just before and just after it, to the host speed
worker.REFERENCE_MS stands for, so runs taken while the shared host is
slower or faster stay comparable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# the parts of a checkout that a timing run runs
PARTS = ("src", "perfbench")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from worker import REFERENCE_MS, host_ms  # noqa: E402


class HostClock:
    """Scaled wall times, keeping every host_ms() reading taken for them."""

    def __init__(self) -> None:
        self.readings: list[float] = []

    def seconds(self, fn) -> float:
        """fn()'s wall time in seconds, scaled by the readings just before
        and after the call."""
        before = host_ms()
        start = perf_counter()
        fn()
        elapsed = perf_counter() - start
        after = host_ms()
        self.readings += [before, after]
        return elapsed * REFERENCE_MS / ((before + after) / 2)

    def median_host_ms(self) -> float:
        return round(statistics.median(self.readings), 4)


def seeds(text: str) -> range:
    """The seeds of a range a-b, or the one seed a; as an argparse type, it
    refuses a text that names no seed."""
    low, dash, high = text.partition("-")
    try:
        span = range(int(low), int(high if dash else low) + 1)
    except ValueError:
        span = range(0)
    if not span:
        raise argparse.ArgumentTypeError(f"{text!r} is neither a seed nor a range a-b with a <= b")
    return span


def spread(values: list[float]) -> dict:
    """Median and quartiles; the quartiles are the median itself for one value."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def run_workload(root: Path, workload: str, seed: int, seconds: str) -> tuple[dict, dict]:
    """(result, record) of one `perfbench/run.py --trace 0` run of the checkout
    at root: its last line and its RECORD line."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    record = next(json.loads(line[len("RECORD "):]) for line in lines if line.startswith("RECORD "))
    return json.loads(lines[-1]), record


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def src_sha256(root: Path) -> str:
    """A digest of src/rmlattice/*.py in the checkout at root."""
    src = hashlib.sha256()
    for path in sorted((root / "src" / "rmlattice").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return src.hexdigest()


def identity() -> dict:
    """The commit (with "-dirty" when src/ or perfbench/ differs from it), a
    digest of src/rmlattice/*.py and the Python version."""
    dirty = git("status", "--porcelain", "--", *PARTS) != ""
    return {
        "commit": git("rev-parse", "--short=12", "HEAD") + ("-dirty" if dirty else ""),
        "src_sha256": src_sha256(ROOT),
        "python": platform.python_version(),
    }


def add_run(out: Path, run: dict, keys: tuple[str, ...]) -> None:
    """Print run and add it to the runs in out, replacing an earlier run
    that agrees with it on every key."""
    print(json.dumps(run, indent=2))
    runs = json.loads(out.read_text())["runs"] if out.exists() else []
    runs = [r for r in runs if any(r.get(k) != run[k] for k in keys)] + [run]
    out.write_text(json.dumps({"runs": runs}, indent=2) + "\n")
