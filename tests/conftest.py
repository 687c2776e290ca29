"""Seeded random generators, the frozen PGST fixture coronas, the class (c)
pair and the scalar fidelity/phase reference shared by the test modules."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from coronawalk import (
    Graph,
    cocktail_party_graph,
    complete_graph,
    empty_graph,
    hypercube_graph,
    is_connected,
    path_graph,
)
from coronawalk.corona_spectrum import _class_c_arrays
from coronawalk.walk import PHASE_FLOOR

PGST_BOUNDS = json.loads((Path(__file__).parent / "fixtures" / "pgst_bounds.json").read_text())

MIXED3 = [empty_graph(3), Graph(3, frozenset({(0, 1)})), path_graph(3), complete_graph(3)]


def fixture_corona(name: str):
    """(base, satellites) of a case in fixtures/pgst_bounds.json."""
    if name.startswith("k2_empty"):
        m = int(name[len("k2_empty"):])
        return complete_graph(2), [empty_graph(m)] * 2
    if name == "q2_mixed3":
        return hypercube_graph(2), MIXED3
    if name.startswith("cocktail") and name.endswith("_k1"):
        n = int(name[len("cocktail"):-len("_k1")])
        return cocktail_party_graph(n), [complete_graph(1)] * (2 * n)
    raise ValueError(f"unknown fixture case {name!r}")


def class_c_pair(lam: float, m: int) -> tuple:
    """(lambda_plus, lambda_minus) of base eigenvalue lam, with the bits of
    _class_c_arrays, the library's one class (c) evaluator."""
    _, _, plus, minus = _class_c_arrays(lam, m)
    return float(plus), float(minus)


def random_graph(rng: np.random.Generator, n: int, p: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, frozenset(edges))


def random_connected_graph(rng: np.random.Generator, n: int, p: float = 0.5) -> Graph:
    for _ in range(1000):
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g
    # ensure connectivity with a random spanning path plus the last sample
    perm = [int(x) for x in rng.permutation(n)]
    spine = {(min(a, b), max(a, b)) for a, b in zip(perm[:-1], perm[1:])}
    return Graph(n, frozenset(spine | set(g.edges)))


def random_satellites(rng: np.random.Generator, n: int, m: int, p: float = 0.5) -> list:
    return [random_graph(rng, m, p) for _ in range(n)]


def random_symmetric_int_matrix(rng: np.random.Generator, dim: int, bound: int = 3) -> np.ndarray:
    mat = np.zeros((dim, dim))
    iu = np.triu_indices(dim)
    mat[iu] = rng.integers(-bound, bound + 1, size=len(iu[0]))
    return mat + np.triu(mat, 1).T


def scalar_fidelity_phase(value):
    """Reference for the fidelity/phase rule, one scalar at a time: the
    fidelity re*re + im*im and the phase value/|value|. Returns
    (fidelity, phase), phase None below PHASE_FLOOR."""
    fidelity = float(value.real * value.real + value.imag * value.imag)
    phase = complex(value / abs(value)) if fidelity >= PHASE_FLOOR else None
    return fidelity, phase
