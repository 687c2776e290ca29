import hashlib
import itertools
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import MIXED3, random_connected_graph, scalar_fidelity_phase

from coronawalk import (
    Graph,
    build_named,
    corona,
    corona_spectrum,
    corona_transition_values,
    eigendecompose,
    graph_from_dict,
    graph_to_dict,
    hypercube_graph,
    laplacian,
    transition_values,
    walk_matrix,
)
from coronawalk import statetransfer
from coronawalk.cli import _csv_text, _fig3, _fmt, _jsonable, main, parse_graph_spec, parse_satellites
from coronawalk.walk import _fidelity


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    return rc, json.loads(out)


def test_spectrum_k2(capsys):
    rc, doc = run_json(capsys, "spectrum", "--graph", "k2")
    assert rc == 0
    assert doc["eigenvalues"] == [0.0, 2.0]
    assert doc["multiplicities"] == [1, 1]
    assert doc["config"]["command"] == "spectrum"
    assert doc["config"]["flags"]["graph"] == "k2"


def test_spectrum_projectors_and_kind(capsys):
    rc, doc = run_json(capsys, "spectrum", "--graph", "k2", "--kind", "adjacency", "--projectors")
    assert rc == 0
    assert doc["eigenvalues"] == [-1.0, 1.0]
    assert doc["projectors"][0] == [[0.5, -0.5], [-0.5, 0.5]]


def test_config_header(capsys):
    rc, doc = run_json(capsys, "spectrum", "--graph", "p4")
    assert rc == 0
    assert doc["config"] == {
        "command": "spectrum",
        "flags": {"graph": "p4", "kind": "laplacian", "projectors": False},
        "seed": 0,
        "output": "-",
        "format": "json",
    }


def test_jsonable_refuses_what_it_cannot_serialize():
    # A value of no JSON kind is an error, not a str() of it in the document.
    with pytest.raises(TypeError, match="cannot serialize object"):
        _jsonable(object())
    with pytest.raises(TypeError, match="cannot serialize set"):
        _jsonable({"flags": [1, {2}]})


def test_build_and_file_round_trip(capsys, tmp_path):
    out = tmp_path / "graph.json"
    rc = main(["build", "--graph", "cocktail:2", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 4
    assert graph_from_dict(doc).edges == frozenset({(0, 1), (0, 3), (1, 2), (2, 3)})

    rc, echo = run_json(capsys, "build", "--graph", f"@{out}")
    assert rc == 0
    assert echo["n"] == 4 and graph_from_dict(echo) == graph_from_dict(doc)


def test_corona_command(capsys):
    rc, doc = run_json(capsys, "corona", "--g", "k2", "--h", "o6")
    assert rc == 0
    assert doc["n"] == 14
    assert doc["m"] == 6
    assert doc["base"]["n"] == 2
    assert len(doc["satellites"]) == 2
    flat = graph_from_dict(doc)
    assert flat.degree(0) == 7


def test_corona_labels_follow_flat_index(capsys, tmp_path):
    # Each flat vertex is labelled "(l,w)", l 1-based, by CoronaGraph.flat_index.
    rc, doc = run_json(capsys, "corona", "--g", "k2", "--h", "k1")
    assert rc == 0
    assert doc["labels"] == {"0": "(1,0)", "1": "(1,1)", "2": "(2,0)", "3": "(2,1)"}
    for g, h in (("k2", "o6"), ("q2", "o3,p3,p3,k3"), ("c5", "k1"), ("p3", "k2,o2,p2")):
        rc, doc = run_json(capsys, "corona", "--g", g, "--h", h)
        assert rc == 0
        base = parse_graph_spec(g)
        cg = corona(base, parse_satellites(h, base.n))
        want = {str(cg.flat_index(v, w)): f"({v + 1},{w})" for v in range(base.n) for w in range(cg.m + 1)}
        assert doc["labels"] == want
        assert sorted(map(int, doc["labels"])) == list(range(doc["n"]))

    # a corona output file is a graph file: its labels, m, base and satellites are ignored
    out = tmp_path / "corona.json"
    assert main(["corona", "--g", "k2", "--h", "o6", "--output", str(out)]) == 0
    rc, echo = run_json(capsys, "build", "--graph", f"@{out}")
    assert rc == 0
    assert graph_from_dict(echo) == corona(build_named("complete", 2), [build_named("empty", 6)] * 2).flat
    assert "labels" not in echo
    rc, doc = run_json(capsys, "pst-check", "--graph", f"@{out}", "--from", "0", "--to", "7")
    assert rc == 2 and doc["verdict"]["pst"] is False


def test_corona_satellite_list_and_errors(capsys):
    rc, doc = run_json(capsys, "corona", "--g", "k2", "--h", "o3,p3")
    assert rc == 0 and doc["n"] == 8

    rc, _ = run(capsys, "corona", "--g", "k2", "--h", "o1,o2,o3")
    assert rc == 1  # wrong list length
    rc, _ = run(capsys, "corona", "--g", "k2", "--h", "o1,o2")
    assert rc == 1  # unequal satellite orders


def test_corona_spectrum_command(capsys):
    rc, doc = run_json(capsys, "corona-spectrum", "--g", "k2", "--h", "o6")
    assert rc == 0
    assert doc["m"] == 6
    assert doc["class_a"] == {"multiplicity": 10}
    assert doc["class_b"] == []
    assert doc["class_c"][1]["delta_sq"] == 73
    assert doc["class_c"][1]["s"] == 1 and doc["class_c"][1]["c"] == 73
    assert doc["total_multiplicity"] == 14
    values = [v for v, _ in doc["eigenvalues"]]
    assert values == sorted(values)


def test_fidelity_csv(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    argv = [
        "fidelity", "--graph", "k2", "--from", "0", "--to", "1",
        "--t-max", "6.0", "--steps", "7", "--output", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config ")
    header_config = json.loads(lines[0][len("# config "):])
    assert header_config["command"] == "fidelity"
    assert header_config["format"] == "csv"
    assert lines[1] == "t,fidelity,phase_re,phase_im"
    assert len(lines) == 2 + 7
    first = lines[2].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    assert (first[2], first[3]) == ("", "")  # zero fidelity has no phase

    again = tmp_path / "curve2.csv"
    argv[-1] = str(again)
    assert main(argv) == 0
    assert again.read_bytes().replace(str(again).encode(), b"X") == out.read_bytes().replace(
        str(out).encode(), b"X"
    )


def loop_csv_text(config, ts, values):
    """Reference for _csv_text: the writer the CLI ran on one scalar value
    per time, before rows were written from arrays."""
    lines = [
        "# config " + json.dumps(config, sort_keys=True),
        "t,fidelity,phase_re,phase_im",
    ]
    for t, value in zip(ts, values):
        fidelity, phase = scalar_fidelity_phase(value)
        if phase is None:
            pre = pim = ""
        else:
            pre, pim = f"{phase.real:.12g}", f"{phase.imag:.12g}"
        lines.append(f"{float(t):.12g},{fidelity:.12g},{pre},{pim}")
    return "\n".join(lines) + "\n"


def relabelled(g, rng):
    perm = rng.permutation(g.n)
    return Graph(g.n, frozenset(tuple(sorted((int(perm[a]), int(perm[b])))) for a, b in g.edges))


def test_csv_text_equals_the_record_writer():
    rng = np.random.default_rng(4242)
    config = {"command": "fidelity", "format": "csv"}
    graphs = [relabelled(hypercube_graph(d), rng) for d in (3, 3, 4, 4)]
    graphs += [random_connected_graph(rng, n, 0.4) for n in (6, 10, 13, 16)]
    curves = []
    for g in graphs:
        u, v = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        ts = np.linspace(0.0, float(rng.uniform(5.0, 20.0)), 1001)
        curves.append((ts, transition_values(eigendecompose(laplacian(g)), u, v, ts)))
    base = hypercube_graph(2)
    ts = np.linspace(0.0, 200.0, 2001)
    cs = corona_spectrum(base, MIXED3)
    curves.append((ts, corona_transition_values(cs, eigendecompose(laplacian(base)), 0, 3, ts)))
    double_star = corona(build_named("complete", 2), [build_named("empty", 6)] * 2).flat
    ts = np.linspace(0.0, 2000.0, 2001)
    curves.append((ts, transition_values(eigendecompose(walk_matrix(double_star, "adjacency")), 0, 7, ts)))

    for ts, values in curves:
        text = _csv_text(config, ts, values)
        assert text == loop_csv_text(config, ts, values)
        assert ",,\n" in text  # t = 0 lies below the phase floor


def test_fidelity_grid_guards(capsys, tmp_path):
    argv = ["fidelity", "--graph", "k2", "--from", "0", "--to", "1"]
    for bad in (["--t-max", "nan"], ["--t-max", "inf"], ["--t-max", "-inf"],
                ["--t-max", "1", "--steps", "0"], ["--t-max", "1", "--steps", "-3"]):
        rc, out = run(capsys, *argv, *bad)
        assert (rc, out) == (1, "")
    rc, out = run(capsys, *argv, "--t-max", "1", "--steps", "1")
    assert rc == 0 and out.splitlines()[2] == "0,0,,"

    # A finite t_max whose phases t*lambda are rounding noise (1e300) or
    # overflow (1e308): the evaluator refuses the time before evaluating it.
    curve = tmp_path / "curve.csv"
    for source, t_max, output in itertools.product(
        (["--graph", "k2"], ["--g", "k2", "--h", "o3"]), ("1e300", "1e308"), (["--output", str(curve)], [])
    ):
        argv = ["fidelity", *source, "--from", "0", "--to", "1", "--t-max", t_max, "--steps", "3"]
        assert main(argv + output) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not curve.exists()
        assert captured.err.startswith("error: time ") and captured.err.count("\n") == 1
    # The bound is |t_max| * max|lambda| < 2**52; K2's largest eigenvalue is 2.
    argv = ["fidelity", "--graph", "k2", "--from", "0", "--to", "1", "--steps", "3", "--t-max"]
    assert run(capsys, *argv, str(2**51 - 1))[0] == 0
    assert run(capsys, *argv, str(2**51)) == (1, "")


def test_fidelity_corona_and_errors(capsys):
    rc, out = run(capsys, "fidelity", "--g", "k2", "--h", "o3", "--from", "0", "--to", "1",
                  "--t-max", "10", "--steps", "11")
    assert rc == 0
    assert len(out.splitlines()) == 13

    rc, _ = run(capsys, "fidelity", "--graph", "k2", "--g", "k2", "--h", "o3",
                "--from", "0", "--to", "1", "--t-max", "1")
    assert rc == 1  # both sources
    # --h belongs to --g: with --graph it is an error, not ignored
    assert main(["fidelity", "--graph", "k2", "--h", "o3", "--from", "0", "--to", "1", "--t-max", "1",
                 "--steps", "2"]) == 1
    assert capsys.readouterr() == ("", "error: give exactly one of --graph or --g/--h\n")
    rc, _ = run(capsys, "fidelity", "--h", "o3", "--from", "0", "--to", "1", "--t-max", "1")
    assert rc == 1  # --h alone
    rc, _ = run(capsys, "fidelity", "--from", "0", "--to", "1", "--t-max", "1")
    assert rc == 1  # no source
    assert main(["fidelity", "--g", "k2", "--from", "0", "--to", "1", "--t-max", "1"]) == 1
    assert capsys.readouterr().err == "error: --g needs --h\n"
    rc, _ = run(capsys, "fidelity", "--g", "k2", "--h", "o3", "--kind", "adjacency",
                "--from", "0", "--to", "1", "--t-max", "1")
    assert rc == 1  # closed form is Laplacian-only


def test_pst_check_positive(capsys):
    rc, doc = run_json(capsys, "pst-check", "--graph", "q3", "--from", "0", "--to", "7")
    assert rc == 0
    verdict = doc["verdict"]
    assert verdict["pst"] is True
    assert verdict["t0_over_pi"] == 0.5
    assert verdict["g"] == 2
    assert verdict["fidelity_at_t0"] >= 1 - 1e-9
    assert verdict["support"] == [0, 2, 4, 6]


def test_pst_check_negative(capsys):
    rc, doc = run_json(capsys, "pst-check", "--graph", "p3", "--from", "0", "--to", "2")
    assert rc == 2
    assert doc["verdict"]["pst"] is False
    assert doc["verdict"]["conditions"]["sign_pattern_ok"] is False


def test_no_pst_witness_command(capsys):
    rc, doc = run_json(capsys, "no-pst-witness", "--g", "k2", "--m", "6")
    assert rc == 0
    assert doc["witness"]["delta_sq"] == 73
    assert doc["witness"]["base_vertex"] == 0
    rc, _ = run(capsys, "no-pst-witness", "--g", "o2", "--m", "1")
    assert rc == 1  # disconnected base
    # An m past the exact range refuses itself by name, not through a helper's
    # message about (m+lam-1)^2 + 4m.
    assert main(["no-pst-witness", "--g", "k2", "--m", "10000000000"]) == 1
    assert capsys.readouterr() == (
        "", "error: satellite order m=10000000000 is too large: (m+n-1)^2 + 4m exceeds 2**63 - 1\n"
    )


def test_pgst_search_command(capsys):
    rc, doc = run_json(capsys, "pgst-search", "--g", "k2", "--h", "o1",
                       "--family", "4pi", "--target", "0.999")
    assert rc == 0
    assert doc["target_met"] is True
    assert doc["best"]["ell"] == 67
    assert doc["best"]["t_over_pi"] == 268.0
    assert doc["best"]["family"] == "four_pi_ell"
    assert doc["history"][-1] == doc["best"]

    rc, doc = run_json(capsys, "pgst-search", "--g", "k2", "--h", "o1",
                       "--family", "4pi", "--target", "0.999", "--ell-max", "3")
    assert rc == 2
    assert doc["target_met"] is False


def test_pgst_search_refuses_noise_phases(capsys, monkeypatch):
    # t = 4*pi*1e14 against lambda_+ = 3 + sqrt(5) passes 2**52: one line on
    # stderr and exit 1 before any evaluation, where the search used to run
    # for minutes. An evaluation fails the test at once instead.
    def evaluated(*args):
        raise AssertionError("the search evaluated an ell past its range check")

    monkeypatch.setattr(statetransfer, "corona_transition_values", evaluated)
    monkeypatch.setattr(statetransfer, "_corona_kernel", evaluated)
    argv = ["pgst-search", "--g", "c6", "--h", "k1", "--from", "0", "--to", "3", "--family", "4pi",
            "--target", "0.9", "--ell-max", str(10**14)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ell_max=100000000000000 is too large: |t_max| * max|eigenvalue| reaches 2**52\n"


def test_pgst_search_default_pair_and_satellite_file(capsys, tmp_path):
    sat = tmp_path / "kite.json"
    sat.write_text(json.dumps(graph_to_dict(Graph(3, frozenset({(0, 1)})))))
    rc, doc = run_json(capsys, "pgst-search", "--g", "q2", "--h", f"o3,@{sat},p3,k3",
                       "--family", "shifted", "--target", "0.99")
    assert rc == 0
    assert doc["best"]["r"] == 1
    assert "from_vertex" not in doc["config"]["flags"]  # None flags are omitted
    assert doc["best"]["t_over_pi"] == 4 * doc["best"]["ell"] + 1

    # on a one-vertex base the default pair (0, n-1) is one vertex: no transfer to search
    assert run(capsys, "pgst-search", "--g", "k1", "--h", "o3", "--family", "4pi")[0] == 1


def test_parse_errors_exit_1(capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "spectrum")[0] == 1  # missing --graph
    assert run(capsys, "spectrum", "--graph", "z9")[0] == 1
    assert run(capsys, "pgst-search", "--g", "k2", "--h", "o1", "--family", "6pi")[0] == 1
    # r is derived from the base pair's support: there is no flag for it
    assert run(capsys, "pgst-search", "--g", "q2", "--h", "o3", "--family", "shifted", "--r", "1")[0] == 1
    assert run(capsys, "spectrum", "--graph", "p0")[0] == 1


def test_bad_vertices_and_graph_files_exit_1(capsys, tmp_path):
    # Each is one error line on stderr and exit 1, not a traceback or an
    # answer for a truncated graph.
    bad_n = tmp_path / "bad_n.json"
    bad_n.write_text(json.dumps({"n": 2.9, "edges": [[0, 1]]}))
    bad_edge = tmp_path / "bad_edge.json"
    bad_edge.write_text(json.dumps({"n": 3, "edges": [[0, 1.7], [1, 2]]}))
    bool_edge = tmp_path / "bool_edge.json"  # operator.index reads true and false as 1 and 0
    bool_edge.write_text(json.dumps({"n": 2, "edges": [[True, False]]}))
    malformed = []  # (argv, what the message names)
    for i, (doc, named) in enumerate((
        ([1, 2], "JSON object"),
        (None, "JSON object"),
        ({"edges": []}, "missing ['n']"),
        ({"n": 3, "edges": 5}, "edges"),
        ({"n": 3, "edges": [[0, 1, 2]]}, "edges"),
        ({"n": 3, "edges": [[0, 1], 5]}, "edges"),  # len is never called on the int
        ({"n": 3, "edges": ["01"]}, "edges"),  # a string of length 2 is not a pair
    )):
        path = tmp_path / f"malformed{i}.json"
        path.write_text(json.dumps(doc))
        malformed.append((("pst-check", "--graph", f"@{path}", "--from", "0", "--to", "1"), named))
    for argv, named in (
        (("pgst-search", "--g", "k2", "--h", "o6", "--family", "4pi", "--from", "0", "--to", "5"), "range"),
        (("pgst-search", "--g", "k2", "--h", "o6", "--family", "4pi", "--from", "-1", "--to", "1"), "range"),
        (("pst-check", "--graph", f"@{bad_edge}", "--from", "0", "--to", "2"), "integers"),
        (("pst-check", "--graph", f"@{bad_n}", "--from", "0", "--to", "1"), "integers"),
        (("build", "--graph", f"@{bool_edge}"), "integers"),
        *malformed,
    ):
        assert main(list(argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err, err


def test_parse_graph_spec_units(tmp_path):
    assert parse_graph_spec("k2").n == 2
    assert parse_graph_spec("q3").n == 8
    assert parse_graph_spec("cocktail:3").n == 6
    assert parse_graph_spec("cocktail_party:3").n == 6
    assert parse_graph_spec("path:4").edges == parse_graph_spec("p4").edges
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_dict(Graph(2, frozenset({(0, 1)})))))
    assert parse_graph_spec(f"@{path}").n == 2
    for bad in ("", "z9", "k", "paths", "k2.5", "path: 4", "p:+4", "k 2"):
        with pytest.raises(ValueError):
            parse_graph_spec(bad)
    assert len(parse_satellites("o2", 3)) == 3
    with pytest.raises(ValueError):
        parse_satellites("o2,o2", 3)


def test_figures_fig3(capsys, tmp_path):
    rc, doc = run_json(capsys, "figures", "fig3", "--outdir", str(tmp_path))
    assert rc == 0
    summary = doc["summaries"]["fig3"]
    assert summary["target_met"] is True
    assert summary["laplacian_best_fidelity"] >= 0.999
    assert summary["laplacian_best_fidelity"] > summary["adjacency_max_fidelity"]
    assert summary["adjacency_grid"] == {"points": 200000, "t_max": 2000.0}
    for name in ("fig3_laplacian_curve.csv", "fig3_adjacency_curve.csv", "fig3_summary.json"):
        assert (tmp_path / name).exists()
    ondisk = json.loads((tmp_path / "fig3_summary.json").read_text())
    assert ondisk["summary"]["laplacian_best_fidelity"] == summary["laplacian_best_fidelity"]
    assert ondisk["config"]["command"] == "figures"


def test_figures_fig3_screen_finds_the_dense_grid_maximum(tmp_path):
    # The scan the screen replaced: every one of the 200,000 grid points
    # through transition_values, and the maximum by the fidelity rule.
    summary, _, _ = _fig3(tmp_path, {})
    adj = eigendecompose(walk_matrix(corona(build_named("complete", 2), [build_named("empty", 6)] * 2).flat,
                                     "adjacency"))
    grid = np.linspace(0.0, 2000.0, 200_000)
    dense = _fidelity(transition_values(adj, 0, 7, grid))
    idx = int(np.argmax(dense))
    assert np.flatnonzero(grid == summary["adjacency_argmax_t"]).tolist() == [idx]
    # The candidates' matrix-vector product may round one entry differently.
    assert abs(summary["adjacency_max_fidelity"] - dense[idx]) <= 4 * np.spacing(dense[idx])
    assert _fmt(summary["adjacency_max_fidelity"]) == _fmt(dense[idx])



def test_figures_fig3_screens_its_grid_in_row_blocks(capsys, tmp_path):
    # 32 rows of 512 points a product into one float array: no (391, 512)
    # complex product and no grid-sized temporaries of its squares.
    tracemalloc.start()
    try:
        rc, _ = run(capsys, "figures", "fig3", "--outdir", str(tmp_path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 5 * 2**20

def test_figures_all(capsys, tmp_path, monkeypatch):
    # Run as the benchmark's cli_figures check runs it, whose reference pins
    # the sha256 of every file under the relative --outdir and of stdout;
    # the bytes do not depend on the working directory.
    reference = json.loads((Path(__file__).parents[1] / "perfbench" / "reference" / "figures_sha256.json").read_text())
    monkeypatch.chdir(tmp_path)
    outdir = tmp_path / ".perfbench_out" / "cli" / "figures"
    rc, out = run(capsys, "figures", "all", "--outdir", ".perfbench_out/cli/figures")
    assert rc == 0
    doc = json.loads(out)
    assert set(doc["summaries"]) == {"fig2", "fig3", "fig4"}
    assert doc["summaries"]["fig2"]["best"]["r"] == 1
    assert doc["summaries"]["fig4"]["best"]["ell"] == 342
    for name in ("fig2_curve.csv", "fig4_curve.csv", "fig2_summary.json", "fig4_summary.json"):
        assert (outdir / name).exists()
    files = {"<stdout>": out.encode()}
    files.update((name, Path(name).read_bytes()) for name in reference if name != "<stdout>")
    assert {name: hashlib.sha256(data).hexdigest() for name, data in files.items()} == reference


@pytest.mark.parametrize(
    "argv, eighs",
    [
        (["pgst-search", "--g", "k2", "--h", "o6", "--family", "4pi"], 2),  # O6 and K2
        (["fidelity", "--g", "q2", "--h", "o3,p3,p3,k3", "--from", "0", "--to", "3", "--t-max", "10"], 2),
        (["figures", "all"], 7),  # three corona walks and fig3's adjacency oracle
    ],
    ids=["pgst-search", "fidelity", "figures"],
)
def test_corona_walks_decompose_the_base_once(capsys, tmp_path, monkeypatch, argv, eighs):
    # One stacked eigensolve over the distinct satellites and one of the base
    # per corona walk.
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda mat: calls.append(mat.shape[0]) or eigh(mat))
    monkeypatch.chdir(tmp_path)
    assert main(argv) in (0, 2)
    assert len(calls) == eighs


def test_figures_default_outdir(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, doc = run_json(capsys, "figures", "fig4")
    assert rc == 0
    assert (tmp_path / "fig4_summary.json").exists()
    assert doc["config"]["flags"]["outdir"] == "."


def test_parser_reused_across_calls(capsys, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    rc, fig = run_json(capsys, "figures", "fig4", "--outdir", str(first))
    assert rc == 0
    files = {path.name: path.read_bytes() for path in first.iterdir()}
    rc, other = run_json(capsys, "figures", "fig4", "--outdir", str(second), "--seed", "3")
    assert rc == 0
    curve = tmp_path / "curve.csv"
    assert main(["fidelity", "--graph", "q3", "--from", "0", "--to", "7", "--t-max", "2",
                 "--steps", "5", "--kind", "adjacency", "--output", str(curve)]) == 0
    rc, pst = run_json(capsys, "pst-check", "--graph", "q3", "--from", "0", "--to", "7")
    assert rc == 0
    rc, again = run_json(capsys, "figures", "fig4", "--outdir", str(first))
    assert rc == 0

    assert (fig["config"]["flags"], fig["config"]["seed"]) == ({"which": "fig4", "outdir": str(first)}, 0)
    assert (other["config"]["flags"], other["config"]["seed"]) == ({"which": "fig4", "outdir": str(second)}, 3)
    header = json.loads(curve.read_text().splitlines()[0][len("# config "):])
    assert header["flags"] == {
        "graph": "q3", "from_vertex": 0, "to_vertex": 7, "t_max": 2.0, "steps": 5, "kind": "adjacency",
    }
    assert (header["output"], header["seed"]) == (str(curve), 0)
    assert pst["config"]["flags"] == {"graph": "q3", "from_vertex": 0, "to_vertex": 7}
    assert again == fig
    assert {path.name: path.read_bytes() for path in first.iterdir()} == files


@pytest.mark.parametrize("argv", [
    ("build", "--graph", "k2"),
    ("corona", "--g", "k2", "--h", "o3"),
    ("spectrum", "--graph", "p3", "--projectors"),
    ("corona-spectrum", "--g", "k2", "--h", "o3"),
    ("fidelity", "--g", "k2", "--h", "o3", "--from", "0", "--to", "1", "--t-max", "10", "--steps", "11"),
    ("pst-check", "--graph", "p3", "--from", "0", "--to", "2"),
    ("no-pst-witness", "--g", "k2", "--m", "6"),
    ("pgst-search", "--g", "k2", "--h", "o1", "--family", "4pi", "--target", "0.999", "--ell-max", "3"),
    ("figures", "fig4", "--outdir", "figs"),
], ids=lambda argv: argv[0])
def test_output_flag_writes_the_stdout_document(capsys, tmp_path, monkeypatch, argv):
    # Every command goes through main's one writer: --output f puts the
    # stdout run's document in f, with config.output naming f.
    monkeypatch.chdir(tmp_path)
    rc, out = run(capsys, *argv)
    assert out.count('"output": "-"') == 1
    target = tmp_path / "out"
    rc_file, out_file = run(capsys, *argv, "--output", str(target))
    assert (rc_file, out_file) == (rc, "")
    assert target.read_text() == out.replace('"output": "-"', '"output": ' + json.dumps(str(target)))


def test_module_entry_point():
    # python -m coronawalk (__main__.py) is the one module entry point.
    def run_module(*argv):
        proc = subprocess.run([sys.executable, "-m", "coronawalk", *argv], capture_output=True, text=True)
        assert proc.returncode == 0
        return json.loads(proc.stdout)

    assert run_module("spectrum", "--graph", "k2")["eigenvalues"] == [0.0, 2.0]
    assert graph_from_dict(run_module("build", "--graph", "k2")) == build_named("complete", 2)
