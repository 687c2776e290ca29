"""
Pretty good state transfer in coronas
=====================================

PST dies in coronas, but its limit version survives: fidelities arbitrarily
close to 1 along explicit time families. Two families are searched here.
At t = 4*pi*ell each unimodular prefactor is trivial and the cosines
cos(2*pi*ell*Delta_lam) drift onto the sign pattern of the base pair; at
t = (4*ell + 2^(1-r))*pi the drift targets +1 for every eigenvalue, at the
price of stronger hypotheses (a PST pair in the base and 2^(r+1) | m+1).
The irrational, rationally independent Delta values make both scans a
simultaneous diophantine approximation, so the good ell are sparse and
irregular.
"""

import numpy as np

from coronawalk import (
    Graph,
    antipodal_sign_check,
    build_named,
    check_pgst_hypothesis,
    cocktail_pgst,
    corona,
    corona_spectrum,
    corona_transition_values,
    eigendecompose,
    laplacian,
    pgst_search,
    transition_values,
    walk_matrix,
)

# --- double star, t = 4*pi*ell -------------------------------------------
g = build_named("complete", 2)
hs = [build_named("empty", 6)] * 2
star_cs = corona_spectrum(g, hs)
star_gd = eigendecompose(laplacian(g))

result = pgst_search(star_cs, star_gd, 0, 1, "four_pi_ell", target=0.999)
print("double star K2 o O6, target 0.999 at t = 4*pi*ell:")
for rec in result.history:
    print(f"  ell {rec.ell:5d}  fidelity {rec.fidelity:.9f}")
print(f"first hit at ell = {result.best.ell}, t = {result.best.t:.3f} = 4*pi*{result.best.ell}")

# --- shifted family on a mixed-satellite corona --------------------------
# The base Q2 has PST between antipodes and support gcd 2 (so r = 1); with
# m = 3 the divisibility 2^(r+1) | m+1 holds and the shifted family applies.
q2 = build_named("hypercube", 2)
hypothesis = check_pgst_hypothesis(eigendecompose(laplacian(q2)), 0, 3)
print("\nshifted-family hypotheses for Q2, m = 3:", hypothesis)

mixed = [
    build_named("empty", 3),
    Graph(3, frozenset({(0, 1)})),
    build_named("path", 3),
    build_named("complete", 3),
]
cs = corona_spectrum(q2, mixed)
gd = eigendecompose(laplacian(q2))
result = pgst_search(cs, gd, 0, 3, "shifted", target=0.99)
rec = result.best
print(f"Q2 o (mixed 3-vertex), target 0.99 at t = (4*ell+1)*pi: ell = {rec.ell}, "
      f"fidelity = {rec.fidelity:.9f}")
print("cosine residuals per base eigenvalue:", tuple(
    None if x is None else float(f"{x:.3g}") for x in rec.residuals))

# --- cocktail party with pendants ----------------------------------------
# The matching that pairs antipodes acts as (-1)^j on the eigenprojectors,
# which is what locks the sign pattern the 4*pi*ell family needs.
for n in (2, 3, 4):
    print(f"\ncocktail_party({n}) antipodal matching signs:",
          antipodal_sign_check(build_named("cocktail_party", n)))

record = cocktail_pgst(3, target=0.99)
print(f"cocktail_party(3) o K1: ell = {record.ell}, fidelity = {record.fidelity:.9f}")

# --- Laplacian vs adjacency on the double star ---------------------------
# The adjacency walk on the same double star never gets close: its best
# fidelity over a long dense grid stays an order of magnitude in infidelity
# behind the Laplacian family above.
flat = corona(g, hs).flat
adj = eigendecompose(walk_matrix(flat, "adjacency"))
grid = np.linspace(0.0, 2000.0, 200_000)
fidelities = np.abs(transition_values(adj, 0, 7, grid)) ** 2
print(f"\nadjacency walk max fidelity on [0, 2000]: {float(np.max(fidelities)):.9f} "
      f"(at t = {float(grid[np.argmax(fidelities)]):.2f})")

ts = np.linspace(0.0, 50.0, 6)
lap_curve = np.abs(corona_transition_values(star_cs, star_gd, 0, 1, ts)) ** 2
print("closed-form Laplacian curve samples on the double star (t, fidelity):")
for t, fidelity in zip(ts, lap_curve):
    print(f"  {t:6.2f}  {fidelity:.9f}")
