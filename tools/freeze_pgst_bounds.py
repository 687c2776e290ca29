"""Search runs that pin the PGST regression fixtures.

    PYTHONPATH=src python tools/freeze_pgst_bounds.py [OUT]

Each case records the smallest ell at which the stated time family reaches
the stated fidelity target, plus the achieved fidelity and the r the search
derives (null outside the shifted family). OUT defaults to the
committed tests/fixtures/pgst_bounds.json; regression tests re-run the
searches with ell_max set to the frozen bound and must reproduce it, and a
Tier-1 test writes OUT to a temporary file and compares it with the
committed one byte for byte. The test suite builds the cases' coronas with
this module's fixture_corona.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from coronawalk import (
    Graph,
    cocktail_party_graph,
    complete_graph,
    corona_spectrum,
    eigendecompose,
    empty_graph,
    hypercube_graph,
    laplacian,
    path_graph,
    pgst_search,
)

SEARCH_CEILING = 200_000
FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "pgst_bounds.json"

# (name, u, v, family, target) of each case, in the fixture's order.
CASES = (
    *((f"k2_empty{m}", 0, 1, "four_pi_ell", 0.999) for m in range(1, 7)),
    ("q2_mixed3", 0, 3, "shifted", 0.99),
    *((f"cocktail{n}_k1", 0, n, "four_pi_ell", 0.99) for n in range(2, 6)),
)

MIXED3 = [empty_graph(3), Graph(3, frozenset({(0, 1)})), path_graph(3), complete_graph(3)]


def fixture_corona(name: str):
    """(base, satellites) of a case, by name."""
    if name.startswith("k2_empty"):
        m = int(name[len("k2_empty") :])
        return complete_graph(2), [empty_graph(m)] * 2
    if name == "q2_mixed3":
        return hypercube_graph(2), MIXED3
    if name.startswith("cocktail") and name.endswith("_k1"):
        n = int(name[len("cocktail") : -len("_k1")])
        return cocktail_party_graph(n), [complete_graph(1)] * (2 * n)
    raise ValueError(f"unknown fixture case {name!r}")


def run_case(name, g, hs, u, v, family, target):
    cs = corona_spectrum(g, hs)
    g_decomp = eigendecompose(laplacian(g))
    result = pgst_search(cs, g_decomp, u, v, family, ell_max=SEARCH_CEILING, target=target)
    if not result.target_met:
        raise SystemExit(f"{name}: target {target} not met within {SEARCH_CEILING}")
    best = result.best
    print(f"{name}: ell={best.ell} t={best.t:.6f} (t/pi={best.t/3.141592653589793:.1f}) fidelity={best.fidelity:.12f}")
    return {
        "name": name,
        "family": family,
        "r": best.r,
        "u": u,
        "v": v,
        "target": target,
        "ell": best.ell,
        "fidelity": best.fidelity,
        "t": best.t,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", type=Path, default=FIXTURE, help="output file (default: %(default)s)")
    out = parser.parse_args(argv).out
    cases = [run_case(name, *fixture_corona(name), u, v, family, target) for name, u, v, family, target in CASES]
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"search_ceiling": SEARCH_CEILING, "cases": cases}, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
