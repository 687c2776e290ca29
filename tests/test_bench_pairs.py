"""tools/bench_pairs.py's verdicts on synthetic runs: pair wins, the bound
and gain_met (at least 9 in 10 pairs won, ties for neither side, and the
medians apart by more than the parent's q3 - q1, in the better direction)."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def summary(better: str, parent: list, change: list, bound: float = 0.1) -> dict:
    metric = {"name": "m", "unit": "u", "better": better, "bound": bound}
    runs = {side: [{"metrics": {"m": {"value": v}}} for v in values] for side, values in
            (("parent", parent), ("change", change))}
    return bench_pairs.summarize(metric, runs)


PARENT = [10.0 + 0.1 * i for i in range(10)]  # q3 - q1 = 0.45


def test_a_lower_better_gain():
    got = summary("lower", PARENT, [p - 1.0 for p in PARENT])
    assert got["change_wins"] == 10 and got["gain_met"] and got["within_bound"]
    assert abs(got["parent"]["q3"] - got["parent"]["q1"] - 0.45) < 1e-12
    # The same runs read as a higher-better metric are a loss outside a 5% bound.
    got = summary("higher", PARENT, [p - 1.0 for p in PARENT], bound=0.05)
    assert got["change_wins"] == 0 and not got["gain_met"] and not got["within_bound"]


def test_a_higher_better_gain():
    got = summary("higher", PARENT, [p + 1.0 for p in PARENT])
    assert got["change_wins"] == 10 and got["gain_met"] and got["within_bound"]
    assert summary("lower", PARENT, [p + 1.0 for p in PARENT])["gain_met"] is False


def test_ties_count_for_neither_side():
    nine = [p if i == 0 else p - 1.0 for i, p in enumerate(PARENT)]
    got = summary("lower", PARENT, nine)
    assert got["change_wins"] == 9 and got["gain_met"]
    eight = [p if i < 2 else p - 1.0 for i, p in enumerate(PARENT)]
    got = summary("lower", PARENT, eight)
    assert got["change_wins"] == 8 and not got["gain_met"]
    got = summary("lower", PARENT, PARENT)
    assert got["change_wins"] == 0 and got["median_change"] == 0.0 and got["within_bound"] and not got["gain_met"]


def test_a_spread_wider_than_the_difference_is_no_gain():
    wide = [100.0 + 10.0 * i for i in range(10)]  # q3 - q1 = 45
    got = summary("lower", wide, [p - 5.0 for p in wide])
    assert got["change_wins"] == 10 and got["within_bound"] and not got["gain_met"]
    assert summary("lower", wide, [p - 50.0 for p in wide])["gain_met"]
