"""Seeded random generators, the frozen PGST fixture coronas, the class (c)
pair and the scalar fidelity/phase reference shared by the test modules."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

from coronawalk import Graph, integer_eigenvalue, is_connected, is_perfect_square
from coronawalk.corona_spectrum import _class_c_arrays
from coronawalk.walk import PHASE_FLOOR

PGST_BOUNDS = json.loads((Path(__file__).parent / "fixtures" / "pgst_bounds.json").read_text())

# The fixture cases are defined once, by the tool that freezes them.
_spec = importlib.util.spec_from_file_location(
    "freeze_pgst_bounds", Path(__file__).parents[1] / "tools" / "freeze_pgst_bounds.py"
)
freeze_pgst_bounds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze_pgst_bounds)
MIXED3, fixture_corona = freeze_pgst_bounds.MIXED3, freeze_pgst_bounds.fixture_corona


def class_c_pair(lam: float, m: int) -> tuple:
    """(lambda_plus, lambda_minus) of base eigenvalue lam, with the bits of
    _class_c_arrays, the library's one class (c) evaluator."""
    _, _, plus, minus = _class_c_arrays(lam, m)
    return float(plus), float(minus)


def witness_values_non_integral(w) -> bool:
    """Whether a NoPstWitness's lambda_pm are no integers: exactly, as delta_sq
    is no perfect square, where delta_sq is set (the float lam_plus comes
    within INTEGRALITY_TOL of an integer at large m), and by
    integer_eigenvalue on the floats where it is None."""
    if w.delta_sq is not None:
        return not is_perfect_square(w.delta_sq)
    return integer_eigenvalue(w.lam_plus) is None and integer_eigenvalue(w.lam_minus) is None


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
