"""The arithmetic of tools/bench_ab.py, on which every gain claim rests:
pairs won and lost as a metric's "better" reads, ratio and side quartiles,
the --seeds ranges and bases it refuses, and its default of ten seeds;
and the growth slope that
tools/bench_codec.py fits."""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}


def _load_tool(name: str):
    """tools/<name>.py as a module; sys.path is as it was afterwards."""
    saved = list(sys.path)
    sys.path.insert(0, str(TOOLS))
    try:
        spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


bench_ab = _load_tool("bench_ab")
bench_codec = _load_tool("bench_codec")

BASE = [100.0, 200.0, 400.0, 800.0]
HEAD = [110.0, 180.0, 400.0, 1000.0]  # ratios 1.1, 0.9, 1.0 (a tie), 1.25
QUARTILES = {
    "ratio_median": 1.05,
    "ratio_q1": 0.975,
    "ratio_q3": 1.1375,
    "base": {"median": 300.0, "q1": 175.0, "q3": 500.0},
    "head": {"median": 290.0, "q1": 162.5, "q3": 550.0},
}


def test_bench_ab_loads_without_changing_sys_path():
    before = list(sys.path)
    _load_tool("bench_ab")
    assert sys.path == before


def test_bench_codec_loads_without_changing_sys_path():
    before = list(sys.path)
    _load_tool("bench_codec")
    assert sys.path == before


def test_compare_a_lower_metric():
    assert BETTER["principalize_p50_ms"] == "lower"
    assert bench_ab._compare(BASE, HEAD, BETTER["principalize_p50_ms"]) == {
        "pairs": 4, "won": 1, "lost": 2, **QUARTILES
    }


def test_compare_a_higher_metric():
    assert BETTER["chains_per_s"] == "higher"
    assert bench_ab._compare(BASE, HEAD, BETTER["chains_per_s"]) == {
        "pairs": 4, "won": 2, "lost": 1, **QUARTILES
    }


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_a_tie_counts_for_neither_side(better):
    compared = bench_ab._compare([0.25, 3.0], [0.25, 3.0], better)
    assert (compared["pairs"], compared["won"], compared["lost"]) == (2, 0, 0)
    assert compared["ratio_median"] == compared["ratio_q1"] == compared["ratio_q3"] == 1.0


def test_spread_of_one_value_is_that_value():
    assert bench_ab.spread([0.616]) == {"median": 0.616, "q1": 0.616, "q3": 0.616}


@pytest.mark.parametrize("text, expected", [("1", [1]), ("7-12", [7, 8, 9, 10, 11, 12]), ("3-3", [3])])
def test_seeds_of_a_seed_or_a_range(text, expected):
    assert list(bench_ab.seeds(text)) == expected


@pytest.mark.parametrize("text", ["3-1", "a", "", "5-", "-3", "1-b"])
def test_seeds_refuses_a_text_naming_no_seed(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_ab.seeds(text)


def _refused(argv, monkeypatch, capsys, tmp_path) -> str:
    """bench_ab's stderr when main refuses argv with exit 2, having
    exported no tree and written no file."""
    def export(*args):
        raise AssertionError("a tree was exported")

    monkeypatch.setattr(bench_ab, "_export", export)
    monkeypatch.setattr(bench_ab, "_copy", export)
    out = tmp_path / "ab.json"
    monkeypatch.setattr(sys, "argv", ["bench_ab.py", *argv, "--out", str(out)])
    with pytest.raises(SystemExit) as exit_:
        bench_ab.main()
    assert exit_.value.code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    return err


def test_the_default_seeds_are_ten():
    # a gain claim needs ten pairs of runs per workload
    assert len(bench_ab.seeds(bench_ab.SEEDS)) == 10


@pytest.mark.parametrize("text", ["3-1", "a"])
def test_bad_seeds_exit_2_before_anything_is_exported(text, monkeypatch, capsys, tmp_path):
    _refused(["HEAD", "--seeds", text], monkeypatch, capsys, tmp_path)


@pytest.mark.parametrize("base", ["nosuchcommit", "HEAD^{tree}"])
def test_a_base_naming_no_commit_exits_2_before_anything_is_exported(
    base, monkeypatch, capsys, tmp_path
):
    err = _refused([base], monkeypatch, capsys, tmp_path)
    assert err.endswith(f"bench_ab.py: error: {base!r} names no commit\n")


@pytest.mark.parametrize("exponent", [1.0, 1.5])
def test_slope_of_a_power_law_is_its_exponent(exponent):
    # rounded as a run records it: the fit itself is exact only up to float
    # rounding (1.5000000000000004 at these points)
    points = [(b, b**exponent) for b in bench_codec.BITS]
    assert round(bench_codec._slope(points), 3) == exponent
