"""
Why coronas never have perfect state transfer
=============================================

Attach satellites of order m >= 1 to every vertex of a connected base graph
on n >= 2 vertices and Laplacian PST becomes impossible. The obstruction is
arithmetic: each base eigenvalue lam splits into the pair
lambda_pm = (m + lam + 1 +/- sqrt((m+lam-1)^2 + 4m)) / 2, both of which stay
in the support of the base vertex, and for integer lam >= 1 the discriminant
(m+lam-1)^2 + 4m is strictly between (m+lam-1)^2 and (m+lam+1)^2 with the
wrong parity to be the middle square. So some support eigenvalue is
irrational, and the integrality condition fails before anything else is
asked. This script shows the witness machinery and the exact arithmetic.
"""

from coronawalk import (
    build_named,
    corona,
    corona_no_pst_witness,
    check_pst,
    eigendecompose,
    is_perfect_square,
    laplacian,
    squarefree_split,
)

# A witness for the double star K2 o (O6, O6): base eigenvalue 2 splits
# with discriminant 73, and 73 is not a perfect square.
w = corona_no_pst_witness(build_named("complete", 2), 6, 0)
print("double star witness:")
print("  lam        =", w.lam)
print("  lambda_pm  =", (round(w.lam_minus, 10), round(w.lam_plus, 10)))
print("  delta^2    =", w.delta_sq, "->", squarefree_split(w.delta_sq))
print("  weights    =", tuple(round(x, 8) for x in w.support_weights))
print("  reason     =", w.reason)

# The same machinery works when the base spectrum is irrational; the reason
# string adapts.
w = corona_no_pst_witness(build_named("cycle", 5), 2, 0)
print("\nC5 base witness reason:", w.reason)

# The witness arguments are satellite-independent, but nothing stops a
# brute-force confirmation: check every vertex pair of an actual corona.
g = build_named("hypercube", 2)
hs = [build_named("path", 3)] * 4
d = eigendecompose(laplacian(corona(g, hs).flat))
refuted = sum(
    not check_pst(d, u, v).pst for u in range(d.dim) for v in range(u + 1, d.dim)
)
print(f"\nQ2 o P3 brute force: {refuted} of {d.dim * (d.dim - 1) // 2} pairs refuted")

# The parity argument, checked exhaustively on a grid: (m+lam-1)^2 + 4m is
# never a perfect square for integers m, lam >= 1.
grid = [
    (m, lam)
    for m in range(1, 101)
    for lam in range(1, 101)
    if is_perfect_square((m + lam - 1) ** 2 + 4 * m)
]
print("perfect-square discriminants for 1 <= m, lam <= 100:", grid)
