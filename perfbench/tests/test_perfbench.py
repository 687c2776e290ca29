"""Tests of the benchmark itself: each workload runs clean at reduced size,
and each output check flags a corrupted output, so that a pass_ratio of 1
means something.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json

import numpy as np
import pytest

import harness
from harness import END_TO_END, PER_LAYER_UNITS, Run
from hostspeed import NEIGHBOURS, HostSpeed
from workloads import ROOT, WORKLOADS

SEED = 11


def small_run(name: str) -> Run:
    run = Run(name, SEED, small=True)
    run.setup()
    return run


def checked_outputs(run: Run) -> list:
    return [op.fn() for op in run.wl.ops]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_smoke(name, capsys):
    result = json.loads(json.dumps(harness.run_workload(name, SEED, 0.05, trace=False, small=True)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(END_TO_END)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"} and np.isfinite(metric["value"]) and metric["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke(name, capsys):
    result = harness.run_workload(name, SEED, 0.05, trace=True, small=True)
    assert result["correct"]
    assert set(result["metrics"]) == set(PER_LAYER_UNITS)
    assert result["metrics"]["trace.layer_share"]["value"] > 0.5


def test_tracer_restores_library():
    run = small_run("pgst_scan")
    before = run.lib.pgst_search, run.lib.statetransfer.corona_transition_values, run.lib.Graph.degree
    tracer = harness.Tracer(run.lib)
    tracer.install()
    assert run.lib.statetransfer.corona_transition_values is not before[1]
    tracer.uninstall()
    assert (run.lib.pgst_search, run.lib.statetransfer.corona_transition_values, run.lib.Graph.degree) == before


def test_host_speed_divides_by_the_slowdown_of_the_nearest_samples():
    speed = HostSpeed()
    speed.times = [float(t) for t in range(4 * NEIGHBOURS)]
    # the host runs at reference speed, then three times slower
    speed.ratios = [(1.0, 1.0, 1.0)] * (2 * NEIGHBOURS) + [(3.0, 3.0, 3.0)] * (2 * NEIGHBOURS)
    assert speed.calibrate(1.0, 0.5) == pytest.approx(0.5)
    assert speed.calibrate(4 * NEIGHBOURS - 2.0, 0.6) == pytest.approx(0.2)
    speed.ratios = [(4.0, 1.0, 2.0)] * (4 * NEIGHBOURS)  # kernels disagree: geometric mean
    assert speed.slowdown(10.0) == pytest.approx(2.0)


def test_timed_loop_flags_output_that_differs_from_the_checked_one():
    run = small_run("pgst_scan")
    run.check_pass()
    assert run.failed == 0
    run.digests[0] = "not the digest of this output"
    run.timed(0.01)
    assert run.failed >= 1


def test_timed_loop_counts_a_raising_op_as_failed():
    run = small_run("pst_certify")
    run.check_pass()

    def broken():
        raise ValueError("broken op")

    run.wl.ops[1] = dataclasses.replace(run.wl.ops[1], fn=broken)
    run.timed(0.01)
    assert run.failed >= 1 and any("broken op" in f for f in run.failures)


def test_corona_ladder_flags_perturbed_projector():
    run = small_run("corona_ladder")
    cs, d, values = run.wl.ops[0].fn()
    assert run.wl.check(0, (cs, d, values)).ok
    projectors = d.projectors.copy()
    projectors[0, 0, 0] += 1e-6
    assert not run.wl.check(0, (cs, dataclasses.replace(d, projectors=projectors), values)).ok
    assert not run.wl.check(0, (cs, d, values * (1 + 1e-7))).ok


def test_pgst_scan_flags_wrong_ell_and_perturbed_fidelity():
    run = small_run("pgst_scan")
    out = run.wl.ops[0].fn()  # a frozen fixture case
    assert run.wl.searches[0].frozen_ell is not None and run.wl.check(0, out).ok
    wrong_ell = dataclasses.replace(out, best=dataclasses.replace(out.best, ell=out.best.ell + 1))
    assert not run.wl.check(0, wrong_ell).ok
    i = len(run.wl.ops) - 1  # a seeded extra, checked against mpmath alone
    out = run.wl.ops[i].fn()
    assert run.wl.searches[i].frozen_ell is None and run.wl.check(i, out).ok
    perturbed = dataclasses.replace(out, best=dataclasses.replace(out.best, fidelity=out.best.fidelity - 1e-6))
    assert not run.wl.check(i, perturbed).ok


def test_pst_certify_flags_wrong_verdicts():
    run = small_run("pst_certify")
    outs = checked_outputs(run)
    kinds = [case[0] for case in run.wl.cases]
    for i, out in enumerate(outs):
        assert run.wl.check(i, out).ok, run.wl.ops[i].name
    cube = kinds.index("hypercube")
    flipped = [dataclasses.replace(v, pst=not v.pst) for v in outs[cube]]
    assert not run.wl.check(cube, flipped).ok
    cor = kinds.index("corona")
    verdicts, witnesses = outs[cor]
    square = [dataclasses.replace(w, lam=3.0, m=2, delta_sq=16) for w in witnesses]
    assert not run.wl.check(cor, (verdicts, square)).ok
    sweep = kinds.index("sweep")
    bad = list(outs[sweep])
    square_flag, split = bad[5]
    bad[5] = (square_flag, dataclasses.replace(split, s=split.s + 1))
    assert not run.wl.check(sweep, bad).ok


def test_cli_figures_flags_flipped_csv_byte():
    run = small_run("cli_figures")
    out = run.wl.ops[0].fn()
    assert run.wl.cases[0][0] == "figures" and run.wl.check(0, out).ok
    name = next(n for n in run.wl.expected_figures if n.endswith(".csv"))
    path = ROOT / name
    data = bytearray(path.read_bytes())
    data[-3] ^= 1
    path.write_bytes(bytes(data))
    try:
        assert not run.wl.check(0, out).ok
    finally:
        run.wl.ops[0].fn()
    assert run.wl.check(0, out).ok


def test_cli_fidelity_check_flags_perturbed_value():
    run = small_run("cli_figures")
    i = next(i for i, case in enumerate(run.wl.cases) if case[0] == "fidelity")
    out = run.wl.ops[i].fn()
    assert run.wl.check(i, out).ok
    path = out[2]
    lines = path.read_text().splitlines()
    t, fidelity, *rest = lines[500].split(",")
    lines[500] = ",".join([t, repr(float(fidelity) + 1e-6), *rest])
    path.write_text("\n".join(lines) + "\n")
    assert not run.wl.check(i, out).ok

