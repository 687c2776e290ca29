"""Set-up, output checks, timed passes, and the metrics built from them.

A run of one workload, in order:

1. Set-up: a fresh import of the coronawalk package (numpy already loaded),
   input generation from the seed, one warm-up op. It is repeated
   SETUP_SAMPLES - 1 more times, spread evenly over the timed passes (and
   outside their timers) so that the samples meet the machine in different
   states; setup_s is their median.
2. One plain untimed pass; peak_mb is the process's peak resident set size
   after it (set-up and this pass are all the process has run so far).
   tracemalloc would count allocations exactly, but it slows pgst_search's
   per-ell Python loop twentyfold (about 24 s per pass).
3. The check pass, untimed: each op once, its output checked against the
   workload's reference. The output's digest is kept.
4. Timed passes: the op list in a closed loop, whole passes until the time
   budget is spent. Each op's output is compared with the digest of its
   checked output, outside the op's timer.
5. With tracing, half the budget runs untraced and half traced; the per-layer
   metrics come from the traced half, per pass of the op list.
6. Every op and set-up time is calibrated to the host's reference speed
   (see hostspeed.py): a reference kernel is timed between ops, and each
   time is divided by the host slowdown it shows at that moment. The
   per-layer self times stay raw.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import references as ref
from hostspeed import NEIGHBOURS, HostSpeed
from tracer import LAYERS, OP_LAYER, Tracer
from workloads import OUT_DIR, ROOT, WORKLOADS

SETUP_SAMPLES = 15

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_mb": "MB",
    "pass_ratio": "ratio",
    "accuracy_digits": "digits",
}

PER_LAYER_SECONDS = [f"{layer}.self_s" for layer in LAYERS]
PER_LAYER_CALLS = ["graphs.calls", "corona.calls", "numtheory.calls"]
PER_LAYER_COUNTS = [
    "corona_spectrum.projector_bytes",
    "corona_spectrum.satellite_eigensolves",
    "spectral.eigendecompose_calls",
    "spectral.eigh_dim_sum",
    "spectral.projector_bytes",
    "walk.evals",
    "walk.records_built",
    "statetransfer.ell_evaluated",
    "statetransfer.pst_pairs",
    "statetransfer.indeterminate",
    "cli.bytes_written",
]
PER_LAYER_RATIOS = [
    "corona_spectrum.vs_dense_ratio",
    "walk.evals_per_s",
    "statetransfer.ell_wasted_ratio",
    "statetransfer.pgst_hit_ratio",
    "trace.overhead_ratio",
    "trace.layer_share",
]
PER_LAYER_UNITS = {
    **{name: "s" for name in PER_LAYER_SECONDS},
    **{name: "count" for name in PER_LAYER_CALLS + PER_LAYER_COUNTS},
    **{name: "ratio" for name in PER_LAYER_RATIOS},
    "corona_spectrum.projector_bytes": "B",
    "spectral.projector_bytes": "B",
    "cli.bytes_written": "B",
    "walk.evals_per_s": "1/s",
}


def fresh_import():
    """Import coronawalk afresh; returns the package with cli loaded."""
    for name in [n for n in sys.modules if n == "coronawalk" or n.startswith("coronawalk.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = importlib.import_module("coronawalk")
    importlib.import_module("coronawalk.cli")
    return lib


def fingerprint(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": threads,
        "seed": seed,
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a
    repository (the benchmark also runs from plain checkouts)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        refname = head[5:]
        if (git / refname).exists():
            return (git / refname).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + refname):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One workload run: counters shared by the check pass and timed passes."""

    def __init__(self, workload_name: str, seed: int, small: bool = False):
        self.workload_cls = WORKLOADS[workload_name]
        self.seed = seed
        self.small = small
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup_spans: list[tuple[float, float]] = []  # (start, raw seconds)
        self.speed = HostSpeed()

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)
            print(f"# FAIL {message}", file=sys.stderr)

    def setup(self) -> None:
        """Set up the run's library and workload, recording the time."""
        if not self.speed.times:
            for _ in range(NEIGHBOURS):
                self.speed.sample()
        t0 = perf_counter()
        self.lib = fresh_import()
        self.wl = self.workload_cls(self.lib, self.seed, small=self.small)
        self.wl.ops[0].fn()
        self.setup_spans.append((t0, perf_counter() - t0))
        self.speed.sample()

    def setup_sample(self) -> None:
        """Time one more set-up, keeping the run's library and workload."""
        lib, wl = self.lib, self.wl
        self.setup()
        self.lib, self.wl = lib, wl

    def peak_pass(self) -> float:
        """Run every op once; returns the process's peak RSS in MB."""
        for op in self.wl.ops:
            try:
                op.fn()
            except Exception:
                pass  # the check pass runs the op again and records the failure
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    def check_pass(self) -> float:
        """Run every op once and check it; returns accuracy digits."""
        self.digests = []
        errors = []
        for i, op in enumerate(self.wl.ops):
            self.attempted += 1
            try:
                out = op.fn()
                check = self.wl.check(i, out)
                digest = self.wl.digest(i, out)
            except Exception:
                self._fail(f"{op.name}: {traceback.format_exc(limit=3)}")
                self.digests.append(None)
                continue
            finally:
                out = None
            errors.extend(check.errors)
            if not check.ok:
                self._fail(f"{op.name}: {check.detail}")
            self.digests.append(digest)
        return ref.accuracy_digits(errors)

    def _median_pass_rate(self, latencies: list) -> float:
        n = len(self.wl.ops)
        return statistics.median(n / sum(latencies[k : k + n]) for k in range(0, len(latencies), n))

    def timed(self, budget_s: float, tracer: Tracer | None = None, setups: int = 0) -> dict:
        """Whole passes of the op list until budget_s is spent, with `setups`
        set-up samples taken between passes at evenly spaced times.

        Returns every op latency, raw and calibrated, and ops_per_s: the
        median over passes of ops per second of calibrated op time. The
        median keeps a rare stall of the host to the pass it hit."""
        spans = []
        written = 0
        passes = 0
        target = len(self.setup_spans) + setups
        gc.collect()
        start = perf_counter()
        while True:
            for i, op in enumerate(self.wl.ops):
                self.attempted += 1
                fn = op.fn if tracer is None else (lambda i=i, fn=op.fn: tracer.op_span(i, fn))
                error = None
                t0 = perf_counter()
                try:
                    out = fn()
                except Exception as exc:
                    error = exc
                spans.append((t0, perf_counter() - t0))
                self.speed.maybe_sample()
                try:
                    if error is not None:
                        raise error
                    if self.wl.digest(i, out) != self.digests[i]:
                        self._fail(f"{op.name}: output differs from the checked output")
                    elif tracer is not None:
                        written += self.wl.bytes_out(i, out)
                except Exception:
                    self._fail(f"{op.name}: {traceback.format_exc(limit=3)}")
                out = error = None
            passes += 1
            elapsed = perf_counter() - start
            if elapsed >= budget_s:
                break
            done = len(self.setup_spans)
            if done < target and elapsed >= budget_s * done / target:
                self.setup_sample()
        self.speed.sample()
        latencies = [self.speed.calibrate(t0, dt) for t0, dt in spans]
        raw = [dt for _, dt in spans]
        return {
            "latencies": latencies,
            "raw_latencies": raw,
            "ops_per_s": self._median_pass_rate(latencies),
            "raw_ops_per_s": self._median_pass_rate(raw),
            "passes": passes,
            "bytes_written": written,
        }


def p50_p90_ms(latencies: list) -> tuple[float, float]:
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    return statistics.median(latencies) * 1e3, p90 * 1e3


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    run.setup()
    peak_mb = run.peak_pass()
    digits = run.check_pass()
    timed = run.timed(seconds, setups=SETUP_SAMPLES - 1)
    lat = timed["latencies"]
    p50, p90 = p50_p90_ms(lat)
    raw_p50, raw_p90 = p50_p90_ms(timed["raw_latencies"])
    values = {
        "setup_s": statistics.median(run.speed.calibrate(t0, dt) for t0, dt in run.setup_spans),
        "ops_per_s": timed["ops_per_s"],
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_mb": peak_mb,
        "pass_ratio": (run.attempted - run.failed) / run.attempted,
        "accuracy_digits": digits,
    }
    samples = {
        "latency_samples": len(lat),
        "samples_beyond_p90": sum(1 for x in lat if x * 1e3 > p90),
        "passes": timed["passes"],
        "ops_per_pass": len(run.wl.ops),
        "setup_samples": len(run.setup_spans),
        "checked_ops": len(run.wl.ops),
        "calibration_samples": len(run.speed.times),
        "host_slowdown_median": run.speed.median_slowdown(),
        "raw": {
            "setup_s": statistics.median(dt for _, dt in run.setup_spans),
            "ops_per_s": timed["raw_ops_per_s"],
            "op_p50_ms": raw_p50,
            "op_p90_ms": raw_p90,
        },
    }
    return values, samples


def per_layer(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    run.setup()
    run.check_pass()
    untraced = run.timed(seconds / 2)
    tracer = Tracer(run.lib)
    tracer.install()
    try:
        traced = run.timed(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    passes = traced["passes"]
    totals = tracer.layer_totals()

    def layer(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    counts = tracer.counts
    values = {f"{name}.self_s": layer(name, "self_s") / passes for name in LAYERS}
    for name in ("graphs", "corona", "numtheory"):
        values[f"{name}.calls"] = layer(name, "calls") / passes
    for name in PER_LAYER_COUNTS:
        values[name] = counts[name] / passes
    values["cli.bytes_written"] = traced["bytes_written"] / passes
    dense = run.wl.dense_seconds
    values["corona_spectrum.vs_dense_ratio"] = layer("corona_spectrum", "outermost_s") / passes / dense if dense else 0.0
    walk_s = layer("walk", "self_s")
    values["walk.evals_per_s"] = counts["walk.evals"] / walk_s if walk_s else 0.0
    evaluated = counts["statetransfer.ell_evaluated"]
    values["statetransfer.ell_wasted_ratio"] = counts["statetransfer.ell_wasted"] / evaluated if evaluated else 0.0
    searches = counts["statetransfer.pgst_searches"]
    values["statetransfer.pgst_hit_ratio"] = counts["statetransfer.pgst_hits"] / searches if searches else 0.0
    values["trace.overhead_ratio"] = traced["ops_per_s"] / untraced["ops_per_s"]
    values["trace.layer_share"] = sum(layer(name, "self_s") for name in LAYERS) / layer(OP_LAYER, "outermost_s")
    tracer.write(spans_path)
    samples = {
        "traced_passes": passes,
        "untraced_passes": untraced["passes"],
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return values, samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one workload and return the result object run.py prints."""
    run = Run(workload, seed, small)
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        values, samples = per_layer(run, seconds, out_dir / f"spans-{workload}-seed{seed}.csv.gz")
        units = PER_LAYER_UNITS
    else:
        values, samples = end_to_end(run, seconds)
        units = END_TO_END
    env = fingerprint(seed)
    print("# env " + json.dumps(env, sort_keys=True))
    print("# samples " + json.dumps(samples, sort_keys=True))
    for name, value in values.items():
        print(f"# {workload} {name} = {value:.6g} {units[name]}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in values.items()},
    }
    (out_dir / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"env": env, "samples": samples, "failures": run.failures, **result}, indent=2) + "\n"
    )
    return result
