"""
Certifying perfect state transfer
=================================

A Laplacian walk has perfect state transfer (PST) between u and v when some
U(t0) maps |u> to a phase times |v>. The certificate is purely spectral:
(i) u, v strongly cospectral, (ii) all support eigenvalues integers, and
(iii) with g their gcd, the pair entry <u|F_lam|v> is positive exactly when
lam/g is even. Then t0 = pi/g. This script walks through certified pairs
and each way the conditions can fail.
"""

import numpy as np

from coronawalk import (
    build_named,
    check_pst,
    eigendecompose,
    evolve_operator,
    laplacian,
)


def decomp(name, size):
    return eigendecompose(laplacian(build_named(name, size)))


# K2 is the smallest instance: eigenvalues 0 and 2, g = 2, t0 = pi/2.
verdict = check_pst(decomp("complete", 2), 0, 1)
print(f"K2: pst={verdict.pst}  t0={verdict.t0:.6f}  fidelity={verdict.fidelity_at_t0:.15f}")

# Hypercube antipodes transfer at the same t0 regardless of dimension.
for dim in (2, 3):
    verdict = check_pst(decomp("hypercube", dim), 0, 2**dim - 1)
    print(f"Q{dim} antipodes: pst={verdict.pst}  t0/pi={verdict.t0 / np.pi}  support={verdict.support}")

# The cocktail party graph on 4 vertices (n=2) transfers between matched
# vertices; at n=3 the sign pattern breaks even though the pair stays
# strongly cospectral with integer support.
verdict = check_pst(decomp("cocktail_party", 2), 0, 2)
print(f"cocktail_party(2): pst={verdict.pst}  t0/pi={verdict.t0 / np.pi}")
verdict = check_pst(decomp("cocktail_party", 3), 0, 3)
print(
    f"cocktail_party(3): pst={verdict.pst}  conditions={verdict.conditions}  "
    f"support={verdict.support} (g={verdict.g})"
)

# P3 endpoints fail the same way: eigenvalue 3 has a positive pair entry
# but 3/g is odd.
verdict = check_pst(decomp("path", 3), 0, 2)
print(f"P3 endpoints: pst={verdict.pst}  conditions={verdict.conditions}")

# C5 fails earlier: its support eigenvalues (5 +/- sqrt(5))/2 are not
# integers, and the verdict names one as the witness.
verdict = check_pst(decomp("cycle", 5), 0, 2)
print(f"C5: pst={verdict.pst}  witness: {verdict.witness}")

# A certificate is re-checked at t0 through transition_values before it is
# returned; re-verify it for Q3 with the full operator U(t0) instead.
d = decomp("hypercube", 3)
verdict = check_pst(d, 0, 7)
value = evolve_operator(d, verdict.t0)[0, 7]
print(f"Q3 direct evolution at t0: fidelity={abs(value) ** 2:.15f}  phase={value / abs(value):.6f}")
