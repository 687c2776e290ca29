"""The four benchmark workloads.

Each workload builds its inputs from a seed (input generation is part of
set-up), exposes a fixed list of ops, and checks an op's output against an
independent reference. The library only ever receives graphs, vertex pairs,
targets and argv lists; every call goes through the package attributes at
call time, so the tracer's wrappers are seen.

A pass is one run of the whole op list. The list's shape is fixed: the seed
changes the random graphs, vertex pairs and time grids, not how many ops of
which size a pass holds. That keeps the cost of a pass steady across seeds,
so that different seeds measure the same amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import references as ref

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "pgst_bounds.json"
FIGURES_REFERENCE = Path(__file__).resolve().parent / "reference" / "figures_sha256.json"
OUT_DIR = ".perfbench_out"


@dataclass(frozen=True)
class Op:
    name: str
    fn: Callable[[], Any]


@dataclass(frozen=True)
class Check:
    """Outcome of checking one op output: ok, plus the errors that feed
    accuracy_digits (empty when the check is exact)."""

    ok: bool
    errors: tuple = ()
    detail: str = ""


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def random_edges(rng: np.random.Generator, n: int, p: float) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def random_connected_edges(rng: np.random.Generator, n: int, p: float) -> list:
    """Random edges plus a random spanning path, so the graph is connected."""
    perm = [int(x) for x in rng.permutation(n)]
    spine = {(min(a, b), max(a, b)) for a, b in zip(perm[:-1], perm[1:])}
    return sorted(spine | set(random_edges(rng, n, p)))


class Workload:
    name = ""
    dense_seconds: float | None = None

    def __init__(self, lib, seed: int, small: bool = False):
        self.lib = lib
        self.rng = np.random.default_rng(seed)
        self.ops: list[Op] = []

    def check(self, i: int, out) -> Check:
        raise NotImplementedError

    def digest(self, i: int, out) -> str:
        raise NotImplementedError

    def bytes_out(self, i: int, out) -> int:
        """Bytes the op wrote (files and stdout); only the CLI writes any."""
        return 0


# ---------------------------------------------------------------------------
# corona_ladder


class CoronaLadder(Workload):
    """Closed-form spectrum, projectors and base transition values on a size
    ladder of coronas.

    Shared-satellite rungs have few distinct eigenvalues; rungs with distinct
    random satellites have many, so the k x dim^2 projector stack grows
    fast. Random-satellite rungs stop at dim 275: at dim 330 one op already
    peaks above 500 MB, and C40 o rand10 needs 1.2 GB. The C60 o P10 rung
    (dim 660) sets peak_mb through its dense projector stack.
    """

    name = "corona_ladder"
    EIGENVALUE_TOL = 1e-9
    PROJECTOR_TOL = 1e-8
    TRANSITION_TOL = 1e-9
    TIMES = 1000

    def __init__(self, lib, seed, small=False):
        super().__init__(lib, seed, small)
        cw, rng = lib, self.rng

        def rand_sats(n, m, p):
            return [cw.Graph(m, frozenset(random_edges(rng, m, p))) for _ in range(n)]

        def rand_base(n):
            return cw.Graph(n, frozenset(random_connected_edges(rng, n, 0.3)))

        # (label, base, satellites), small to large; sizes are fixed. Six
        # small rungs, nine medium (about 30 ms each), four large and the
        # C60 o P10 rung: the median op falls in the middle of the medium
        # group and p90 inside the large one, not on a gap between groups.
        rungs = [
            ("C10oP5", lambda: (cw.cycle_graph(10), [cw.path_graph(5)] * 10)),
            ("C12oK4", lambda: (cw.cycle_graph(12), [cw.complete_graph(4)] * 12)),
            ("C10orand6", lambda: (cw.cycle_graph(10), rand_sats(10, 6, 0.5))),
            ("C16orand5_sparse", lambda: (cw.cycle_graph(16), rand_sats(16, 5, 0.3))),
            ("R10oC4", lambda: (rand_base(10), [cw.cycle_graph(4)] * 10)),
            ("C20oK5", lambda: (cw.cycle_graph(20), [cw.complete_graph(5)] * 20)),
            ("C30oP8", lambda: (cw.cycle_graph(30), [cw.path_graph(8)] * 30)),
            ("C22orand8", lambda: (cw.cycle_graph(22), rand_sats(22, 8, 0.5))),
            ("C24orand8", lambda: (cw.cycle_graph(24), rand_sats(24, 8, 0.5))),
            ("C24orand8_sparse", lambda: (cw.cycle_graph(24), rand_sats(24, 8, 0.3))),
            ("C30oK10", lambda: (cw.cycle_graph(30), [cw.complete_graph(10)] * 30)),
            ("C34oK8", lambda: (cw.cycle_graph(34), [cw.complete_graph(8)] * 34)),
            ("R30oP7", lambda: (rand_base(30), [cw.path_graph(7)] * 30)),
            ("C22orand8_sparse", lambda: (cw.cycle_graph(22), rand_sats(22, 8, 0.3))),
            ("C32oC8", lambda: (cw.cycle_graph(32), [cw.cycle_graph(8)] * 32)),
            ("C40oP10", lambda: (cw.cycle_graph(40), [cw.path_graph(10)] * 40)),
            ("C25orand10", lambda: (cw.cycle_graph(25), rand_sats(25, 10, 0.5))),
            ("C40oK10", lambda: (cw.cycle_graph(40), [cw.complete_graph(10)] * 40)),
            ("C25orand10_sparse", lambda: (cw.cycle_graph(25), rand_sats(25, 10, 0.3))),
            ("C60oP10", lambda: (cw.cycle_graph(60), [cw.path_graph(10)] * 60)),
        ]
        if small:
            rungs = rungs[:3]
        self.rungs = []
        for label, build in rungs:
            g, hs = build()
            u, v = (int(x) for x in rng.choice(g.n, size=2, replace=False))
            ts = np.linspace(0.0, float(rng.uniform(20.0, 60.0)), self.TIMES)
            self.rungs.append((g, hs, u, v, ts))
            self.ops.append(Op(label, self._make_op(g, hs, u, v, ts)))
        self.dense_seconds = 0.0

    def _make_op(self, g, hs, u, v, ts):
        lib = self.lib

        def op():
            cs = lib.corona_spectrum(g, hs)
            d = lib.corona_eigenprojectors(g, hs)
            g_decomp = lib.eigendecompose(lib.laplacian(g))
            values = lib.corona_transition_values(cs, g_decomp, u, v, ts)
            return cs, d, values

        return op

    def check(self, i, out) -> Check:
        cw = self.lib
        g, hs, u, v, ts = self.rungs[i]
        cs, d, values = out
        flat = cw.laplacian(cw.corona(g, hs).flat)
        t0 = perf_counter()
        oracle = cw.eigendecompose(flat)
        self.dense_seconds += perf_counter() - t0
        if d.multiplicities != oracle.multiplicities or cs.total_multiplicity() != oracle.dim:
            return Check(False, detail="multiplicities differ from the dense oracle")
        listed = cs.eigenvalue_list()
        if tuple(mult for _, mult in listed) != oracle.multiplicities:
            return Check(False, detail="corona_spectrum eigenvalue list differs from the oracle")
        eig_err = max(
            float(np.max(np.abs(d.eigenvalues - oracle.eigenvalues))),
            float(np.max(np.abs(np.array([val for val, _ in listed]) - oracle.eigenvalues))),
        )
        proj_err = max(float(np.max(np.abs(p - q))) for p, q in zip(d.projectors, oracle.projectors))
        stride = hs[0].n + 1
        dense_values = cw.transition_values(oracle, u * stride, v * stride, ts)
        trans_err = float(np.max(np.abs(values - dense_values)))
        ok = (
            eig_err <= self.EIGENVALUE_TOL
            and proj_err <= self.PROJECTOR_TOL
            and trans_err <= self.TRANSITION_TOL
        )
        detail = f"eigenvalues {eig_err:.2e} projectors {proj_err:.2e} transition {trans_err:.2e}"
        # Projector deviations scale with 1/gap between nearby eigenvalues of
        # random satellites (1e-12 to 4e-11 across seeds), an ill-conditioning
        # of the dense reference as much as of the closed form. They are held
        # to PROJECTOR_TOL but left out of accuracy_digits.
        return Check(ok, (eig_err, trans_err), detail)

    def digest(self, i, out) -> str:
        cs, d, values = out
        return _digest(
            cs,
            d.multiplicities,
            d.eigenvalues.tobytes(),
            np.ascontiguousarray(d.projectors[:, :, 0]).tobytes(),
            np.ascontiguousarray(d.projectors.diagonal(axis1=1, axis2=2)).tobytes(),
            values.tobytes(),
        )


# ---------------------------------------------------------------------------
# pgst_scan


def fixture_corona(cw, name: str):
    """The coronas of tests/fixtures/pgst_bounds.json, by case name."""
    if name.startswith("k2_empty"):
        m = int(name[len("k2_empty") :])
        return cw.complete_graph(2), [cw.empty_graph(m)] * 2
    if name == "q2_mixed3":
        mixed = [cw.empty_graph(3), cw.Graph(3, frozenset({(0, 1)})), cw.path_graph(3), cw.complete_graph(3)]
        return cw.hypercube_graph(2), mixed
    if name.startswith("cocktail") and name.endswith("_k1"):
        n = int(name[len("cocktail") : -len("_k1")])
        return cw.cocktail_party_graph(n), [cw.complete_graph(1)] * (2 * n)
    raise ValueError(f"unknown fixture case {name!r}")


@dataclass(frozen=True)
class Search:
    g: Any
    hs: list
    u: int
    v: int
    family: str
    r: int | None
    target: float
    ell_max: int
    frozen_ell: int | None  # the fixture's minimal ell at its own target
    frozen_fidelity: float | None


class PgstScan(Workload):
    """pgst_search on the eleven fixture coronas (at their frozen targets and
    at 0.9999 and 0.999999) plus seeded coronas over cocktail-party,
    hypercube and complete bases.

    The deep searches stop at ell = 500,000: six of them scan close to the
    whole range (five misses and a hit at ell 345,786) and set op_p90_ms.
    An ell_max of about 2e6 would make one pass take over 5 s, too few ops
    in a run for a tail percentile.
    """

    name = "pgst_scan"
    DEEP_TARGETS = (0.9999, 0.999999)
    DEEP_ELL_MAX = 500_000
    EXTRA_ELL_MAX = 4096
    # float64 loses about t * eps in the phase; at ell = 5e5 (t ~ 6e6) the
    # worst measured error is 2e-11.
    FIDELITY_TOL = 1e-8

    def __init__(self, lib, seed, small=False):
        super().__init__(lib, seed, small)
        cw, rng = lib, self.rng
        fixture = json.loads(FIXTURE.read_text())
        searches = []
        for case in fixture["cases"]:
            g, hs = fixture_corona(cw, case["name"])
            common = dict(g=g, hs=hs, u=case["u"], v=case["v"], family=case["family"], r=case["r"])
            searches.append(
                (case["name"], Search(**common, target=case["target"], ell_max=fixture["search_ceiling"],
                                      frozen_ell=case["ell"], frozen_fidelity=case["fidelity"]))
            )
            if not small:
                for target in self.DEEP_TARGETS:
                    searches.append(
                        (f"{case['name']}@{target}", Search(**common, target=target, ell_max=self.DEEP_ELL_MAX,
                                                            frozen_ell=None, frozen_fidelity=None))
                    )
        for j in range(2 if small else len(self.EXTRA_SHAPES)):
            searches.append(self._extra(cw, rng, j))
        self.searches = [s for _, s in searches]
        self.ops = [Op(label, self._make_op(s)) for label, s in searches]
        self._weights = {}

    # (base family, base size, satellite order) of the seeded coronas; the
    # shifted family needs 4 | m + 1. The shapes are fixed, so that the
    # seed moves no op between cost groups.
    EXTRA_SHAPES = (
        ("cocktail", 4, 4),
        ("hypercube", 3, 3),
        ("complete", 3, 5),
        ("shifted", 2, 3),
        ("cocktail", 5, 2),
        ("hypercube", 2, 6),
        ("complete", 4, 3),
    )

    @staticmethod
    def _extra(cw, rng, j):
        """A seeded corona of shape EXTRA_SHAPES[j]: the satellites and the
        target come from the seed."""
        kind, size, m = PgstScan.EXTRA_SHAPES[j]
        if kind == "cocktail":
            g, u, v = cw.cocktail_party_graph(size), 0, size
        elif kind == "complete":
            g, u, v = cw.complete_graph(size), 0, 1
        else:
            g, u, v = cw.hypercube_graph(size), 0, (1 << size) - 1
        hs = [cw.Graph(m, frozenset(random_edges(rng, m, 0.5))) for _ in range(g.n)]
        family, r = ("shifted", 1) if kind == "shifted" else ("four_pi_ell", None)
        target = float(rng.choice([0.9, 0.95, 0.99]))
        label = f"extra{j}_{kind}{g.n}_m{m}@{target}"
        return label, Search(g, hs, u, v, family, r, target, PgstScan.EXTRA_ELL_MAX, None, None)

    def _make_op(self, s: Search):
        lib = self.lib

        def op():
            cs = lib.corona_spectrum(s.g, s.hs)
            g_decomp = lib.eigendecompose(lib.laplacian(s.g))
            return lib.pgst_search(cs, g_decomp, s.u, s.v, s.family, r=s.r, ell_max=s.ell_max, target=s.target)

        return op

    def _pair_weights(self, s: Search) -> dict:
        key = (s.g.n, s.g.edges, s.u, s.v)
        if key not in self._weights:
            self._weights[key] = ref.exact_pair_weights(s.g.n, s.g.edges, s.u, s.v)
        return self._weights[key]

    def check(self, i, out) -> Check:
        s = self.searches[i]
        best = out.best
        if s.frozen_ell is not None:
            if not out.target_met or best.ell != s.frozen_ell:
                return Check(False, detail=f"frozen ell {s.frozen_ell} not reproduced (got {best.ell})")
            if abs(best.fidelity - s.frozen_fidelity) > 1e-12:
                return Check(False, detail="frozen fidelity not reproduced")
        if best.ell < 1 or best.ell > s.ell_max:
            return Check(False, detail=f"ell {best.ell} outside 1..{s.ell_max}")
        shift = 0 if s.family == "four_pi_ell" else 2.0 ** (1 - s.r)
        exact = ref.mp_corona_fidelity(self._pair_weights(s), s.hs[0].n, 4 * best.ell + shift)
        err = abs(best.fidelity - exact)
        ok = (exact >= s.target) == out.target_met and err <= self.FIDELITY_TOL
        return Check(ok, (err,), f"ell {best.ell} fidelity {best.fidelity:.15f} mp {exact:.15f}")

    def digest(self, i, out) -> str:
        return _digest(out.target_met, out.best, len(out.history))


# ---------------------------------------------------------------------------
# pst_certify


class PstCertify(Workload):
    """PST certification: dense eigendecompose plus check_pst on hypercubes,
    cocktail-party graphs, random graphs and small coronas, no-PST witnesses
    on every corona base vertex, and the exact (m+lam-1)^2+4m sweep."""

    name = "pst_certify"
    SWEEP_MAX = 300
    SWEEP_OPS = 25
    PST_FIDELITY_TOL = 1e-9

    def __init__(self, lib, seed, small=False):
        super().__init__(lib, seed, small)
        cw, rng = lib, self.rng
        self.cases = []  # (kind, payload) per op, used by check()

        dims = (5, 6) if small else (5, 6, 7, 8, 9)
        for d in dims:
            g = cw.hypercube_graph(d)
            u = int(rng.integers(g.n))
            masks = [g.n - 1] + [int(x) for x in rng.choice(np.arange(1, g.n - 1), size=8, replace=False)]
            pairs = [(u, u ^ mask) for mask in masks]
            self._add(f"Q{d}", ("hypercube", g, pairs), self._pairs_op(g, pairs))

        sizes = (6, 11) if small else (10, 20, 30, 40, 50, 60)
        for size in sizes:
            n = size - int(rng.integers(2))  # both parities of n
            g = cw.cocktail_party_graph(n)
            pairs = [(int(i), int(i) + n) for i in rng.choice(n, size=min(4, n), replace=False)]
            self._add(f"CP{n}", ("cocktail", g, pairs), self._cocktail_op(g, pairs))

        for n in (16,) if small else (24, 32, 40, 48):
            g = cw.Graph(n, frozenset(random_edges(rng, n, 0.5)))
            pairs = [tuple(int(x) for x in rng.choice(n, size=2, replace=False)) for _ in range(8)]
            self._add(f"G{n}", ("random", g, pairs), self._pairs_op(g, pairs))

        shapes = ((3, 2),) if small else ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3))
        for n, m in shapes:
            g = cw.Graph(n, frozenset(random_connected_edges(rng, n, 0.5)))
            hs = [cw.Graph(m, frozenset(random_edges(rng, m, 0.5))) for _ in range(n)]
            self._add(f"corona{n}x{m}", ("corona", g, hs), self._corona_op(g, hs, m))

        # The sweep is fixed: row m goes to op m mod SWEEP_OPS, so every op
        # mixes small and large discriminants and costs about the same.
        n_ops = 2 if small else self.SWEEP_OPS
        for j in range(n_ops):
            rows = range(1 + j, self.SWEEP_MAX + 1, self.SWEEP_OPS)
            values = [(m, lam, (m + lam - 1) ** 2 + 4 * m) for m in rows for lam in range(self.SWEEP_MAX + 1)]
            self._add(f"sweep{j}", ("sweep", values), self._sweep_op(values))
        limit = (2 * self.SWEEP_MAX - 1) ** 2 + 4 * self.SWEEP_MAX
        self._squarefree = ref.squarefree_table(limit)

    def _add(self, label, case, fn):
        self.cases.append(case)
        self.ops.append(Op(label, fn))

    def _pairs_op(self, g, pairs):
        lib = self.lib

        def op():
            d = lib.eigendecompose(lib.laplacian(g))
            return [lib.check_pst(d, u, v) for u, v in pairs]

        return op

    def _cocktail_op(self, g, pairs):
        lib = self.lib

        def op():
            d = lib.eigendecompose(lib.laplacian(g))
            return [lib.check_pst(d, u, v) for u, v in pairs], lib.antipodal_sign_check(g)

        return op

    def _corona_op(self, g, hs, m):
        lib = self.lib

        def op():
            d = lib.eigendecompose(lib.laplacian(lib.corona(g, hs).flat))
            verdicts = [lib.check_pst(d, u, v) for u in range(d.dim) for v in range(u + 1, d.dim)]
            return verdicts, [lib.corona_no_pst_witness(g, m, b) for b in range(g.n)]

        return op

    def _sweep_op(self, values):
        lib = self.lib
        discriminants = [x for _, _, x in values]

        def op():
            is_square, split = lib.is_perfect_square, lib.squarefree_split
            return [(is_square(x), split(x)) for x in discriminants]

        return op

    def _certified(self, verdict, want_pst: bool) -> tuple[bool, tuple]:
        if verdict.pst != want_pst:
            return False, ()
        if not want_pst:
            return True, ()
        err = abs(1.0 - verdict.fidelity_at_t0)
        ok = abs(verdict.t0 - math.pi / 2) < 1e-12 and err <= self.PST_FIDELITY_TOL
        return ok, (err,)

    def check(self, i, out) -> Check:
        kind, *case = self.cases[i]
        errors = []
        if kind == "hypercube":
            g, pairs = case
            for (u, v), verdict in zip(pairs, out):
                ok, err = self._certified(verdict, u ^ v == g.n - 1)
                errors += err
                if not ok:
                    return Check(False, detail=f"Q pair {(u, v)}: pst={verdict.pst}")
        elif kind == "cocktail":
            g, pairs = case
            verdicts, signs = out
            for (u, v), verdict in zip(pairs, verdicts):
                ok, err = self._certified(verdict, (g.n // 2) % 2 == 0)
                errors += err
                if not ok:
                    return Check(False, detail=f"cocktail pair {(u, v)}: pst={verdict.pst}")
            if not all(signs):
                return Check(False, detail="antipodal sign check failed")
        elif kind == "random":
            g, pairs = case
            for (u, v), verdict in zip(pairs, out):
                if ref.surely_not_cospectral(g.n, g.edges, u, v):
                    if verdict.pst or verdict.conditions.strongly_cospectral:
                        return Check(False, detail=f"non-cospectral pair {(u, v)} certified")
                elif verdict.pst:
                    ok, err = self._certified(verdict, True)
                    errors += err
                    if not ok:
                        return Check(False, detail=f"pair {(u, v)}: bad certificate")
        elif kind == "corona":
            g, hs = case
            verdicts, witnesses = out
            n_flat = g.n * (hs[0].n + 1)
            if len(verdicts) != n_flat * (n_flat - 1) // 2:
                return Check(False, detail="corona pair list incomplete")
            if any(v.pst for v in verdicts):
                return Check(False, detail="a corona pair was certified")
            for w in witnesses:
                if min(w.support_weights) <= 0.0:
                    return Check(False, detail="witness weight not positive")
                if w.delta_sq is not None:
                    lam = round(w.lam)
                    if w.delta_sq != (w.m + lam - 1) ** 2 + 4 * w.m or math.isqrt(w.delta_sq) ** 2 == w.delta_sq:
                        return Check(False, detail=f"witness discriminant {w.delta_sq} is a square")
                elif abs(w.lam - round(w.lam)) < 1e-6:
                    return Check(False, detail="non-exact witness at an integer eigenvalue")
        else:
            (values,) = case
            if len(out) != len(values):
                return Check(False, detail="sweep output truncated")
            for (m, lam, x), (square, split) in zip(values, out):
                if square != (lam == 0):
                    return Check(False, detail=f"is_perfect_square wrong at m={m} lam={lam}")
                if split.n != x or split.s * split.s * split.c != x or not self._squarefree[split.c]:
                    return Check(False, detail=f"squarefree_split wrong for {x}")
        return Check(True, tuple(errors))

    def digest(self, i, out) -> str:
        return _digest(out)


# ---------------------------------------------------------------------------
# cli_figures


class CliFigures(Workload):
    """The CLI in-process: `figures all` (byte-compared with the reference
    recorded in reference/figures_sha256.json) plus seeded `fidelity` and
    `pst-check` commands on graphs passed as @file.json.

    The pass holds 6 pst-check commands, 10 fidelity commands and 4 figure
    runs, in rising cost: the median falls in the middle of the fidelity
    commands and p90 among the figure runs.
    """

    name = "cli_figures"
    FIGURES_DIR = f"{OUT_DIR}/cli/figures"
    FIDELITY_TOL = 1e-9

    def __init__(self, lib, seed, small=False):
        super().__init__(lib, seed, small)
        rng = self.rng
        work = ROOT / OUT_DIR / "cli"
        (work / "inputs").mkdir(parents=True, exist_ok=True)
        (work / "curves").mkdir(parents=True, exist_ok=True)
        self.expected_figures = json.loads(FIGURES_REFERENCE.read_text())
        self.cases = []

        def graph_file(tag, n, edges):
            path = work / "inputs" / f"{tag}.json"
            path.write_text(json.dumps({"n": n, "edges": [list(e) for e in sorted(edges)]}) + "\n")
            return f"@{path.relative_to(ROOT)}"

        def permuted_hypercube(d):
            n = 1 << d
            perm = [int(x) for x in rng.permutation(n)]
            edges = {tuple(sorted((perm[i], perm[i ^ (1 << b)]))) for i in range(n) for b in range(d)}
            return n, edges, perm

        figures = Op("figures_all", self._cli_op(["figures", "all", "--outdir", self.FIGURES_DIR]))
        for _ in range(1 if small else 4):
            self._add(figures, ("figures",))

        # Graph shapes are fixed: relabelled Q3 and Q4, and random connected
        # graphs on 10 to 16 vertices; the seed draws labels, edges, pair and
        # t_max, none of which changes the cost of a command.
        shapes = (("cube", 3), ("random", 10), ("cube", 4), ("random", 12), ("cube", 3),
                  ("random", 14), ("cube", 4), ("random", 16), ("cube", 3), ("random", 13))
        for j, (kind, size) in enumerate(shapes if not small else shapes[:1]):
            if kind == "random":
                n = size
                edges = set(random_connected_edges(rng, n, 0.4))
            else:
                n, edges, _ = permuted_hypercube(size)
            spec = graph_file(f"fidelity{j}", n, edges)
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            t_max = round(float(rng.uniform(5.0, 20.0)), 3)
            csv_path = work / "curves" / f"fidelity{j}.csv"
            argv = ["fidelity", "--graph", spec, "--from", str(u), "--to", str(v),
                    "--t-max", str(t_max), "--steps", "1001", "--output", str(csv_path.relative_to(ROOT))]
            self._add(Op(f"fidelity{j}", self._cli_op(argv, csv_path)), ("fidelity", n, edges, u, v, t_max))

        for j, (d, antipodal) in enumerate(((3, True), (4, False), (5, True)) * 2 if not small else ((3, True),)):
            n, edges, perm = permuted_hypercube(d)
            i = int(rng.integers(n))
            partner = (n - 1) ^ i if antipodal else i ^ (1 << int(rng.integers(d)))
            spec = graph_file(f"pst{j}", n, edges)
            argv = ["pst-check", "--graph", spec, "--from", str(perm[i]), "--to", str(perm[partner])]
            self._add(Op(f"pst_check{j}", self._cli_op(argv)), ("pst", antipodal))

    def _add(self, op, case):
        self.ops.append(op)
        self.cases.append(case)

    def _cli_op(self, argv, path=None):
        lib = self.lib

        def op():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = lib.cli.main(argv)
            return code, stdout.getvalue(), path

        return op

    def _files(self, i, out) -> dict:
        """Every byte the op produced, by file name ("<stdout>" for stdout)."""
        code, stdout, path = out
        files = {"<stdout>": stdout.encode()}
        if path is not None:
            files[str(path.relative_to(ROOT))] = path.read_bytes()
        if self.cases[i][0] == "figures":
            for name in self.expected_figures:
                if name != "<stdout>":
                    files[name] = (ROOT / name).read_bytes()
        return files

    def check(self, i, out) -> Check:
        kind, *case = self.cases[i]
        code, stdout, path = out
        expected_code = 2 if kind == "pst" and not case[0] else 0  # pst-check exits 2 on a refuted pair
        if code != expected_code:
            return Check(False, detail=f"exit code {code}")
        if kind == "figures":
            files = self._files(i, out)
            bad = [name for name, digest in self.expected_figures.items()
                   if hashlib.sha256(files[name]).hexdigest() != digest]
            return Check(not bad, detail=f"mismatched: {bad}")
        if kind == "fidelity":
            n, edges, u, v, t_max = case
            lines = path.read_text().splitlines()
            if not lines[0].startswith("# config ") or lines[1] != "t,fidelity,phase_re,phase_im":
                return Check(False, detail="bad CSV header")
            rows = np.array([[float(x) for x in line.split(",")[:2]] for line in lines[2:]])
            ts = np.linspace(0.0, t_max, 1001)
            if rows.shape != (1001, 2) or np.max(np.abs(rows[:, 0] - ts)) > 1e-9 * max(1.0, t_max):
                return Check(False, detail="bad time column")
            err = float(np.max(np.abs(rows[:, 1] - ref.dense_fidelities(n, edges, u, v, ts))))
            return Check(err <= self.FIDELITY_TOL, (err,), f"fidelity error {err:.2e}")
        (antipodal,) = case
        verdict = json.loads(stdout)["verdict"]
        if verdict["pst"] != antipodal:
            return Check(False, detail=f"pst {verdict['pst']}")
        if not antipodal:
            return Check(True)
        err = abs(1.0 - verdict["fidelity_at_t0"])
        return Check(abs(verdict["t0_over_pi"] - 0.5) < 1e-9 and err <= 1e-9, (err,))

    def digest(self, i, out) -> str:
        files = self._files(i, out)
        return _digest(out[0], sorted((name, hashlib.sha256(data).hexdigest()) for name, data in files.items()))

    def bytes_out(self, i, out) -> int:
        return sum(len(data) for data in self._files(i, out).values())


WORKLOADS = {cls.name: cls for cls in (CoronaLadder, PgstScan, PstCertify, CliFigures)}
