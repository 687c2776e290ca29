"""tools/bench_pairs.py's verdicts on synthetic runs: pair wins, the bound
and gain_met (at least 9 in 10 pairs won, ties for neither side, and the
medians apart by more than the parent's q3 - q1, in the better direction);
its sweep with stubbed runs, and how it reads a failed run."""

import importlib.util
import json
from pathlib import Path

import pytest

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


def test_main_sweeps_alternating_pairs_and_records_failed_runs(tmp_path, monkeypatch, capsys):
    spec = {"run_seconds": 3, "workloads": [{"name": "good"}, {"name": "flaky"}],
            "end_to_end": [{"name": "m", "unit": "u", "better": "lower", "bound": 0.1}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.chdir(tmp_path)
    calls = []

    def run(directory, workload, seed, seconds):
        side = directory.name
        calls.append((workload, side, seed, seconds))
        if (workload, side, seed) == ("flaky", "change", 2):
            raise bench_pairs.RunFailed(1, "RuntimeError: boom")
        return {"correct": True, "failed": 0, "metrics": {"m": {"value": 10.0 + seed - 5 * (side == "change")}}}

    monkeypatch.setattr(bench_pairs, "extract", lambda revision, directory: revision.lower())
    monkeypatch.setattr(bench_pairs, "run", run)
    assert bench_pairs.main(["P", "C", "--label", "T", "--seeds", "1", "2", "3", "--workdir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "BENCH_T.json\n"
    doc = json.loads((tmp_path / "BENCH_T.json").read_text())
    seeds = [1, 2, 3, 1, 2, 3, 1, 2, 3, 1]  # pair i runs seeds[i % 3]
    assert doc["seeds"] == seeds and doc["commits"] == {"parent": "p", "change": "c"}
    # The parent runs first on even pairs, the change on odd ones.
    order = [(side, seed, 3) for i, seed in enumerate(seeds) for side in ("parent", "change")[:: 1 - 2 * (i % 2)]]
    assert [call[1:] for call in calls if call[0] == "good"] == order
    assert [call[1:] for call in calls if call[0] == "flaky"] == order

    good = doc["workloads"]["good"]
    assert good["correct"] == {"parent": True, "change": True} and good["failed_runs"] == []
    m = good["metrics"]["m"]
    assert m["parent"]["values"] == [10.0 + seed for seed in seeds]
    assert m["change"]["median"] == m["parent"]["median"] - 5
    assert m["change_wins"] == 10 and m["gain_met"] is True

    # The failed run is listed, its side is not correct, and its pair is in no metric.
    flaky = doc["workloads"]["flaky"]
    assert flaky["correct"] == {"parent": True, "change": False}
    assert flaky["failed_runs"] == [{"side": "change", "seed": 2, "exit_code": 1, "stderr": "RuntimeError: boom"}] * 3
    m = flaky["metrics"]["m"]
    assert m["parent"]["values"] == [10.0 + seed for seed in seeds if seed != 2]
    assert len(m["change"]["values"]) == 7 and m["change_wins"] == 7


@pytest.mark.parametrize(
    "script, exit_code, stderr",
    [
        ("print('{}'); sys.stderr.write('warming\\nTraceback: boom\\n'); sys.exit(3)", 3, "Traceback: boom"),
        ("print('{}'); print('done')", 0, ""),
        ("print(3)", 0, ""),
        ("pass", 0, ""),
    ],
    ids=["exit-3", "last-line-not-json", "json-not-a-result", "no-output"],
)
def test_run_raises_run_failed_on_a_bad_run(tmp_path, script, exit_code, stderr):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("import sys\n" + script + "\n")
    with pytest.raises(bench_pairs.RunFailed) as failure:
        bench_pairs.run(tmp_path, "w", 1, 1)
    assert (failure.value.exit_code, failure.value.stderr) == (exit_code, stderr)
    (tmp_path / "perfbench" / "run.py").write_text("print('noise')\nprint('{\"correct\": true}')\n")
    assert bench_pairs.run(tmp_path, "w", 1, 1) == {"correct": True}
