"""What the bench_* tools share: host-speed scaling, the identity of a run
and the committed file of runs.

A time is scaled as perfbench/worker.py scales its samples: by the
host_ms() readings taken just before and just after it, to the host speed
worker.REFERENCE_MS stands for, so runs taken while the shared host is
slower or faster stay comparable.
"""

from __future__ import annotations

import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from worker import REFERENCE_MS, host_ms  # noqa: E402


class HostClock:
    """Scaled wall times, keeping every host_ms() reading taken for them."""

    def __init__(self) -> None:
        self.readings: list[float] = []

    def seconds(self, fn, own_time: bool = False) -> float:
        """fn()'s wall time in seconds, or with own_time the seconds fn()
        returns, scaled by the readings just before and after the call."""
        before = host_ms()
        start = perf_counter()
        value = fn()
        elapsed = value if own_time else perf_counter() - start
        after = host_ms()
        self.readings += [before, after]
        return elapsed * REFERENCE_MS / ((before + after) / 2)

    def median_host_ms(self) -> float:
        return round(statistics.median(self.readings), 4)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def identity() -> dict:
    """The commit (with "-dirty" when src/ differs from it), a digest of
    src/rmlattice/*.py and the Python version."""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rmlattice").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    dirty = _git("status", "--porcelain", "--", "src") != ""
    return {
        "commit": _git("rev-parse", "--short=12", "HEAD") + ("-dirty" if dirty else ""),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
    }


def add_run(out: Path, run: dict, keys: tuple[str, ...]) -> None:
    """Print run and add it to the runs in out, replacing an earlier run
    that agrees with it on every key."""
    print(json.dumps(run, indent=2))
    runs = json.loads(out.read_text())["runs"] if out.exists() else []
    runs = [r for r in runs if any(r.get(k) != run[k] for k in keys)] + [run]
    out.write_text(json.dumps({"runs": runs}, indent=2) + "\n")
