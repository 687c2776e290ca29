"""Command-line front end: graph construction, spectra, fidelity curves,
transfer verdicts, PGST searches, and the three canned experiments.

Every output embeds the parsed run configuration for provenance. Floats are
serialized with 12 significant digits and times are reported both as
decimals and as multiples of pi. Exit codes: 0 when the requested target or
certificate is produced, 2 when a search or check comes back negative, 1 on
errors. Every command takes --output (default -, stdout; for figures it is
the index document, and the summaries go to --outdir) and --seed, which is
recorded in the config header only: nothing in the CLI is random.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .corona import corona
from .corona_spectrum import _corona_walk, corona_spectrum
from .graphs import (
    FAMILIES,
    Graph,
    build_named,
    graph_to_dict,
    load_graph,
)
from .spectral import _pair_measure, eigendecompose
from .statetransfer import (
    PGST_FAMILIES,
    check_pst,
    corona_no_pst_witness,
    pgst_search,
)
from .walk import (
    WALK_KINDS,
    _fidelity,
    _fidelity_phase,
    _phase_screen,
    corona_transition_values,
    transition_values,
    walk_matrix,
)

# Grid points per row of the fig3 adjacency screen.
_GRID_ROW = 512

_SHORTHAND = {
    "k": "complete",
    "o": "empty",
    "p": "path",
    "c": "cycle",
    "q": "hypercube",
    "cocktail": "cocktail_party",
}

_FAMILY_ALIASES = {"4pi": "four_pi_ell"}


def _fmt(x: float) -> float:
    return float(f"{x:.12g}")


def _jsonable(x):
    if x is None or isinstance(x, (bool, str, int)):
        return x
    if isinstance(x, float):
        return _fmt(x)
    if isinstance(x, complex):
        return {"re": _fmt(x.real), "im": _fmt(x.imag)}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x):
        return _jsonable(dataclasses.asdict(x))
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _config_from(args: argparse.Namespace) -> dict:
    """The run header embedded in every output: the command, its flags, seed,
    output target and format."""
    skip = {"func", "command", "seed", "output", "format"}
    flags = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    return {
        "command": args.command,
        "flags": _jsonable(flags),
        "seed": args.seed,
        "output": args.output,
        "format": args.format,
    }


def _write_text(target: str | Path, text: str) -> None:
    if target == "-":
        sys.stdout.write(text)
    else:
        Path(target).write_text(text)


def _write_json(target: str | Path, config: dict, payload: dict) -> None:
    """The document {"config": config, **payload}, sorted and indented."""
    doc = {"config": config}
    doc.update(_jsonable(payload))
    _write_text(target, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _csv_text(config: dict, ts: np.ndarray, values: np.ndarray) -> str:
    """The fidelity CSV of transition values on the times ts; the phase
    fields are empty where _fidelity_phase gives no phase."""
    fidelity, phase = _fidelity_phase(values)
    rows = [
        "%.12g,%.12g,," % (t, f) if p is None else "%.12g,%.12g,%.12g,%.12g" % (t, f, p.real, p.imag)
        for t, f, p in zip(ts.tolist(), fidelity, phase)
    ]
    header = ["# config " + json.dumps(config, sort_keys=True), "t,fidelity,phase_re,phase_im"]
    return "\n".join(header + rows) + "\n"


def parse_graph_spec(spec: str) -> Graph:
    """A graph from `@file.json` or from a family and a size, one grammar:
    letters, an optional colon, then digits (`k2`, `cocktail_party:3`, `p:4`),
    case-insensitive, with no spaces or sign inside.

    Shorthand: k=complete, o=empty, p=path, c=cycle, q=hypercube,
    cocktail=cocktail_party; full family names work too.
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("empty graph spec")
    if spec.startswith("@"):
        return load_graph(spec[1:])
    match = re.fullmatch(r"([a-z_]+?):?(\d+)", spec.lower())
    if match:
        name, size = match.group(1), int(match.group(2))
        family = _SHORTHAND.get(name, name)
        if family in FAMILIES:
            return build_named(family, size)
    raise ValueError(f"cannot parse graph spec {spec!r}")


def parse_satellites(spec: str, n: int) -> list:
    """Satellite list for n base vertices: one spec broadcast to all slots,
    or a comma list filling them in order."""
    parts = [part.strip() for part in spec.split(",")]
    if len(parts) == 1:
        parts = parts * n
    if len(parts) != n:
        raise ValueError(f"need 1 or {n} satellite specs, got {len(parts)}")
    return [parse_graph_spec(part) for part in parts]


def _with_over_pi(record, key: str) -> dict:
    """The dataclass record as a dict, with <key>_over_pi when its time key is set."""
    d = dataclasses.asdict(record)
    if d[key] is not None:
        d[f"{key}_over_pi"] = d[key] / math.pi
    return d


def _search_dict(result) -> dict:
    return {
        "target_met": result.target_met,
        "best": _with_over_pi(result.best, "t"),
        "history": [_with_over_pi(rec, "t") for rec in result.history],
    }


def _corona_args(args) -> tuple:
    """The base graph --g and its satellites --h."""
    g = parse_graph_spec(args.g)
    return g, parse_satellites(args.h, g.n)


def cmd_build(args, config) -> tuple:
    return graph_to_dict(parse_graph_spec(args.graph)), 0


def cmd_corona(args, config) -> tuple:
    cg = corona(*_corona_args(args))
    # Provenance "(l,w)" per flat vertex, l 1-based; graph_from_dict reads back n and edges only.
    labels = {str(cg.flat_index(v, w)): f"({v + 1},{w})" for v in range(cg.base.n) for w in range(cg.m + 1)}
    base, satellites = graph_to_dict(cg.base), [graph_to_dict(h) for h in cg.satellites]
    return {**graph_to_dict(cg.flat), "labels": labels, "m": cg.m, "base": base, "satellites": satellites}, 0


def cmd_spectrum(args, config) -> tuple:
    d = eigendecompose(walk_matrix(parse_graph_spec(args.graph), args.kind))
    payload = {
        "kind": args.kind,
        "eigenvalues": d.eigenvalues.tolist(),
        "multiplicities": list(d.multiplicities),
    }
    if args.projectors:
        payload["projectors"] = d.projectors.tolist()
    return payload, 0


def cmd_corona_spectrum(args, config) -> tuple:
    cs = corona_spectrum(*_corona_args(args))
    return {
        **dataclasses.asdict(cs),
        "eigenvalues": cs.eigenvalue_list(),
        "total_multiplicity": cs.total_multiplicity(),
    }, 0


def cmd_fidelity(args, config) -> tuple:
    if (args.g is None) == (args.graph is None) or (args.g is None and args.h is not None):
        raise ValueError("give exactly one of --graph or --g/--h")
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    if not math.isfinite(args.t_max):
        raise ValueError(f"--t-max must be finite, got {args.t_max}")
    ts = np.linspace(0.0, args.t_max, args.steps)
    u, v = args.from_vertex, args.to_vertex
    if args.graph is not None:
        d = eigendecompose(walk_matrix(parse_graph_spec(args.graph), args.kind))
        values = transition_values(d, u, v, ts)
    else:
        if args.h is None:
            raise ValueError("--g needs --h")
        if args.kind != "laplacian":
            raise ValueError("the closed-form corona curve is Laplacian-only")
        values = corona_transition_values(*_corona_walk(*_corona_args(args)), u, v, ts)
    return _csv_text(config, ts, values), 0


def cmd_pst_check(args, config) -> tuple:
    d = eigendecompose(walk_matrix(parse_graph_spec(args.graph), "laplacian"))
    verdict = check_pst(d, args.from_vertex, args.to_vertex)
    return {"verdict": _with_over_pi(verdict, "t0")}, 0 if verdict.pst else 2


def cmd_no_pst_witness(args, config) -> tuple:
    return {"witness": corona_no_pst_witness(parse_graph_spec(args.g), args.m, args.base_vertex)}, 0


def cmd_pgst_search(args, config) -> tuple:
    g, hs = _corona_args(args)
    u = args.from_vertex if args.from_vertex is not None else 0
    v = args.to_vertex if args.to_vertex is not None else g.n - 1
    family = _FAMILY_ALIASES.get(args.family, args.family)
    result = pgst_search(*_corona_walk(g, hs), u, v, family, ell_max=args.ell_max, target=args.target)
    return _search_dict(result), 0 if result.target_met else 2


def _figure_search(g, hs, u, v, family, target, path, config):
    """PGST search on G corona hs between base vertices u and v, with the
    closed-form fidelity curve up to the best time written to path as CSV."""
    cs, g_decomp = _corona_walk(g, hs)
    result = pgst_search(cs, g_decomp, u, v, family, ell_max=10_000, target=target)
    ts = np.linspace(0.0, result.best.t, 2001)
    _write_text(str(path), _csv_text(config, ts, corona_transition_values(cs, g_decomp, u, v, ts)))
    return result


def _fig2(outdir: Path, config: dict) -> tuple:
    """Hypercube Q2 with the four distinct 3-vertex satellites; shifted-family
    PGST between antipodal base vertices."""
    g = build_named("hypercube", 2)
    hs = [
        build_named("empty", 3),
        Graph(3, frozenset({(0, 1)})),
        build_named("path", 3),
        build_named("complete", 3),
    ]
    result = _figure_search(g, hs, 0, 3, "shifted", 0.99, outdir / "fig2_curve.csv", config)
    return {"target": 0.99, **_search_dict(result)}, ["fig2_curve.csv"], result.target_met


def _fig3(outdir: Path, config: dict) -> tuple:
    """Double star K2 corona O6: Laplacian PGST at t = 4*pi*ell versus the
    adjacency walk's best fidelity over a dense grid, times k*step with the
    last at t_max, as linspace builds them.

    walk._phase_screen, pgst_search's screen, bounds the fidelity on every
    grid point to within tol. One pass screens rows of _GRID_ROW points, 32
    a product, keeping the points at or above the running maximum less 2*tol
    and pruning them as it rises: no grid-sized array is built, and those
    left are the points at or above max(screen) - 2*tol, in grid order. Only
    they can hold the grid's maximum; transition_values evaluates them, and
    the first maximum among them is the argmax. Both read _pair_measure.
    """
    g = build_named("complete", 2)
    hs = [build_named("empty", 6)] * 2
    path = outdir / "fig3_laplacian_curve.csv"
    result = _figure_search(g, hs, 0, 1, "four_pi_ell", 0.999, path, config)

    cg = corona(g, hs)
    adj = eigendecompose(walk_matrix(cg.flat, "adjacency"))
    u, v = cg.flat_index(0, 0), cg.flat_index(1, 0)
    t_max, points = 2000.0, 200_000
    step = t_max / (points - 1)
    screen, tol = _phase_screen(_pair_measure(adj, u, v).uv, adj.eigenvalues, step, _GRID_ROW, t_max)
    top, cands, kept = -np.inf, np.empty(0, dtype=np.intp), np.empty(0)
    for k0 in range(0, points, 32 * _GRID_ROW):  # 16,384 points a product, one pgst_search screen block
        rows = screen(np.arange(k0, min(k0 + 32 * _GRID_ROW, points), _GRID_ROW) * step)
        block = rows.ravel()[: points - k0]  # drops a ragged last row's overhang
        top = max(top, block.max())
        new, old = np.flatnonzero(block >= top - 2.0 * tol), kept >= top - 2.0 * tol
        cands, kept = np.concatenate((cands[old], new + k0)), np.concatenate((kept[old], block[new]))
    times = np.where(cands == points - 1, t_max, cands * step)
    fidelities = _fidelity(transition_values(adj, u, v, times))
    best = int(np.argmax(fidelities))
    ts = np.linspace(0.0, t_max, 2001)
    curve = _csv_text(config, ts, transition_values(adj, u, v, ts))
    _write_text(str(outdir / "fig3_adjacency_curve.csv"), curve)

    summary = {
        "target": 0.999,
        "target_met": result.target_met,
        "laplacian_best_fidelity": result.best.fidelity,
        "laplacian_best": _with_over_pi(result.best, "t"),
        "adjacency_max_fidelity": float(fidelities[best]),
        "adjacency_argmax_t": float(times[best]),
        "adjacency_grid": {"t_max": t_max, "points": points},
    }
    files = ["fig3_laplacian_curve.csv", "fig3_adjacency_curve.csv"]
    return summary, files, result.target_met


def _fig4(outdir: Path, config: dict) -> tuple:
    """Cocktail party graph on 6 vertices with one pendant per site; PGST
    between an antipodal base pair at t = 4*pi*ell."""
    g = build_named("cocktail_party", 3)
    hs = [build_named("complete", 1)] * g.n
    result = _figure_search(g, hs, 0, 3, "four_pi_ell", 0.99, outdir / "fig4_curve.csv", config)
    return {"target": 0.99, **_search_dict(result)}, ["fig4_curve.csv"], result.target_met


_FIGURES = {"fig2": _fig2, "fig3": _fig3, "fig4": _fig4}


def cmd_figures(args, config) -> tuple:
    names = list(_FIGURES) if args.which == "all" else [args.which]
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summaries = {}
    written = []
    all_met = True
    for name in names:
        summary, files, met = _FIGURES[name](outdir, config)
        summaries[name] = summary
        written.extend(str(outdir / f) for f in files)
        all_met = all_met and met
    for name in names:
        path = outdir / f"{name}_summary.json"
        _write_json(path, config, {"summary": summaries[name]})
        written.append(str(path))
    return {"summaries": summaries, "files": written}, 0 if all_met else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main() call reuses, built on the first one: importing
    the module builds nothing."""
    parser = _Parser(prog="coronawalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, fmt: str = "json"):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--seed", type=int, default=0, help="seed recorded in the config header only")
        p.add_argument("--output", default="-", help="output path, or - for stdout")
        p.set_defaults(func=func, format=fmt)
        return p

    def corona_flags(p, required: bool = True):
        p.add_argument("--g", required=required, help="corona base graph spec")
        p.add_argument("--h", required=required, help="satellite spec (broadcast) or comma list")

    p = add("build", cmd_build, "construct a graph and emit it in the JSON file format")
    p.add_argument("--graph", required=True, help="k2, q3, p4, c5, o6, family:param, or @file.json")

    corona_flags(add("corona", cmd_corona, "construct a corona product and emit its flat graph"))

    p = add("spectrum", cmd_spectrum, "distinct eigenvalues and multiplicities of a walk matrix")
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", choices=WALK_KINDS, default="laplacian")
    p.add_argument("--projectors", action="store_true", help="include projector entries")

    corona_flags(add("corona-spectrum", cmd_corona_spectrum, "closed-form corona eigenvalue classes"))

    p = add("fidelity", cmd_fidelity, "fidelity curve as CSV t,fidelity,phase_re,phase_im", "csv")
    p.add_argument("--graph", help="walk on this graph (any kind); or --g/--h, the closed-form Laplacian curve")
    corona_flags(p, required=False)
    p.add_argument("--from", dest="from_vertex", type=int, required=True)
    p.add_argument("--to", dest="to_vertex", type=int, required=True)
    p.add_argument("--t-max", dest="t_max", type=float, required=True)
    p.add_argument("--steps", type=int, default=1001)
    p.add_argument("--kind", choices=WALK_KINDS, default="laplacian")

    p = add("pst-check", cmd_pst_check, "certify or refute Laplacian PST between two vertices")
    p.add_argument("--graph", required=True)
    p.add_argument("--from", dest="from_vertex", type=int, required=True)
    p.add_argument("--to", dest="to_vertex", type=int, required=True)

    p = add("no-pst-witness", cmd_no_pst_witness, "non-integer corona eigenvalue refuting PST")
    p.add_argument("--g", required=True, help="connected base graph on >= 2 vertices")
    p.add_argument("--m", type=int, required=True, help="satellite order")
    p.add_argument("--base-vertex", dest="base_vertex", type=int, default=0)

    p = add("pgst-search", cmd_pgst_search, "scan a PGST time family for a fidelity target")
    corona_flags(p)
    p.add_argument("--family", choices=sorted([*_FAMILY_ALIASES, *PGST_FAMILIES]), required=True)
    p.add_argument("--ell-max", dest="ell_max", type=int, default=10_000)
    p.add_argument("--target", type=float, default=0.99)
    p.add_argument("--from", dest="from_vertex", type=int, default=None, help="default 0")
    p.add_argument("--to", dest="to_vertex", type=int, default=None, help="default n-1")

    p = add("figures", cmd_figures, "reproduce the three experiment figures (CSV + JSON)")
    p.add_argument("which", choices=[*_FIGURES, "all"])
    p.add_argument("--outdir", default=".", help="default the current directory")

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return 1
    config = _config_from(args)
    try:
        payload, code = args.func(args, config)
        if isinstance(payload, str):
            _write_text(args.output, payload)
        else:
            _write_json(args.output, config, payload)
    except (ValueError, TypeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code
