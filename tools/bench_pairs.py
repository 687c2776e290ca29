"""Alternating parent/change pairs of benchmark runs, written to a BENCH_<label>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --label LABEL --seeds 131 132 ... [--workdir DIR]

Run from the repository root. PARENT and CHANGE are git revisions; each is
extracted with `git archive` into a fresh directory of DIR (`parent/` and
`change/`, names of equal length, since the checkout path moves some
metrics). DIR defaults to a new temporary directory, which is left in
place. Every run is `python3 perfbench/run.py` inside one extraction with
PYTHONDONTWRITEBYTECODE=1, so `setup_s` includes compiling `src/` as it does
for a fresh checkout, and lasts BENCHMARK.json's `run_seconds`. Every
workload of BENCHMARK.json runs PAIRS pairs; pair i runs seed
seeds[i % len(seeds)] on both sides, and the side that runs first alternates.
For each workload and end-to-end metric the file gives q1/median/q3 per
side, the pairs the change wins (lower or higher is better as BENCHMARK.json
says), the relative change of the medians against the metric's bound, whether
a claimed gain would be met (gain_met: the change wins at least 9 in 10
pairs, ties counting for neither side, and its median beats the parent's by
more than the parent's q3 - q1), and every raw value. A run that exits
non-zero or whose last stdout line is not a JSON result is listed under its
workload's `failed_runs` (side, seed, exit code, last stderr line); its side
reads `correct: false`, its pair is left out of the wins and quartiles, and
the sweep goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def extract(revision: str, directory: Path) -> str:
    """Extract revision into directory; return its full commit id."""
    commit = subprocess.run(["git", "rev-parse", revision], check=True, capture_output=True, text=True).stdout.strip()
    directory.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    return commit


class RunFailed(Exception):
    """A run that exited non-zero or printed no JSON result: its exit code and last stderr line."""

    def __init__(self, exit_code: int, stderr: str):
        super().__init__(exit_code, stderr)
        self.exit_code, self.stderr = exit_code, stderr


def run(directory: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in directory: its result line as a dict, or RunFailed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=directory, env=env, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        raise RunFailed(proc.returncode, (proc.stderr.splitlines() or [""])[-1])
    return result


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(metric: dict, runs: dict) -> dict:
    """One metric's sides, pair wins and verdicts against its bound and as a claimed gain."""
    name, lower = metric["name"], metric["better"] == "lower"
    values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
    wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    sides = {side: {**quartiles(values[side]), "values": values[side]} for side in SIDES}
    parent, change = (sides[side]["median"] for side in SIDES)
    gain = parent - change if lower else change - parent
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        **sides,
        "change_wins": wins,
        "median_change": (change - parent) / abs(parent) if parent else 0.0,
        "within_bound": (-gain / abs(parent) if parent else 0.0) <= metric["bound"],
        "gain_met": 10 * wins >= 9 * len(values["parent"]) and gain > sides["parent"]["q3"] - sides["parent"]["q1"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    dirs = {side: workdir / side for side in SIDES}
    commits = {side: extract(rev, dirs[side]) for side, rev in zip(SIDES, (args.parent, args.change))}

    result = {
        "label": args.label,
        "commits": commits,
        "pairs": PAIRS,
        "seconds": seconds,
        "seeds": [args.seeds[i % len(args.seeds)] for i in range(PAIRS)],
        "environment": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
                        "PYTHONDONTWRITEBYTECODE": "1"},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs, failed, correct = {side: [] for side in SIDES}, [], dict.fromkeys(SIDES, True)
        for i, seed in enumerate(result["seeds"]):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                try:
                    pair[side] = run(dirs[side], workload, seed, seconds)
                except RunFailed as bad:
                    failed.append({"side": side, "seed": seed, "exit_code": bad.exit_code, "stderr": bad.stderr})
                ok = side in pair and pair[side]["correct"] is True and pair[side]["failed"] == 0
                correct[side] = correct[side] and ok
            if len(pair) == len(SIDES):
                for side in SIDES:
                    runs[side].append(pair[side])
            print(f"# {workload} pair {i + 1}/{PAIRS} (seed {seed}, {order[0]} first)", file=sys.stderr)
        result["workloads"][workload] = {
            "correct": correct,
            "failed_runs": failed,
            # Quartiles need two complete pairs.
            "metrics": {m["name"]: summarize(m, runs) for m in spec["end_to_end"]} if len(runs["parent"]) > 1 else {},
        }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
