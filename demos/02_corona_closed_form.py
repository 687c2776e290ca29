"""
Corona products and their closed-form Laplacian spectrum
========================================================

The corona G o (H_1, ..., H_n) hangs one satellite graph off each vertex of
a base graph. Its Laplacian spectrum never needs a dense eigensolver: the
eigenvalues come in three explicit classes, and the eigenvectors are built
from those of the factors. This script builds a mixed-satellite corona and
checks the closed form against the dense oracle.
"""

import numpy as np

from coronawalk import (
    Graph,
    build_named,
    corona,
    corona_eigenprojectors,
    corona_spectrum,
    eigendecompose,
    laplacian,
)

# Base: the 4-cycle Q2. Satellites: all four 3-vertex graphs up to
# isomorphism, one per base vertex, so nothing about this corona is
# accidentally symmetric.
g = build_named("hypercube", 2)
satellites = [
    build_named("empty", 3),
    Graph(3, frozenset({(0, 1)})),
    build_named("path", 3),
    build_named("complete", 3),
]

cg = corona(g, satellites)
print(f"corona on {cg.flat.n} vertices, satellite order m = {cg.m}")
print("base vertex 2, (l,w) = (3,0) with l 1-based, sits at flat index", cg.flat_index(2, 0))

cs = corona_spectrum(g, satellites)

# Class (a): eigenvalue 1, one eigenvector per satellite component beyond
# the first. The empty satellite alone contributes two of the three.
print("\nclass (a): multiplicity =", cs.class_a.multiplicity)

# Class (b): mu + 1 for every nonzero satellite eigenvalue mu, confined to
# the satellite cells that carry mu.
for b in cs.class_b:
    print(f"class (b): value {b.value:g} from mu {b.mu:g} on cells {b.satellites}, multiplicity {b.multiplicity}")

# Class (c): the pair lambda_pm for each base eigenvalue. Integer base
# eigenvalues get the exact discriminant split delta^2 = s^2 * c.
for c in cs.class_c:
    print(
        f"class (c): lam {c.lam:.6g} -> ({c.lam_minus:.6g}, {c.lam_plus:.6g})"
        f"  delta^2 = {c.delta_sq} = {c.s}^2 * {c.c}"
    )

print("\ntotal multiplicity:", cs.total_multiplicity(), "= n(m+1) =", g.n * (cg.m + 1))

# The merged eigenvalue list: note the collision at 4, where the class (b)
# value mu + 1 = 4 meets lambda_plus(0) = m + 1 = 4.
print("eigenvalues (value, multiplicity):")
for value, mult in cs.eigenvalue_list():
    print(f"  {value:12.8f}  x{mult}")

# Same decomposition from the closed-form projectors versus the dense
# eigensolver on the assembled 16 x 16 Laplacian.
closed = corona_eigenprojectors(g, satellites)
oracle = eigendecompose(laplacian(corona(g, satellites).flat))
print("\neigenvalue deviation from oracle: ", np.max(np.abs(closed.eigenvalues - oracle.eigenvalues)))
print("projector deviation from oracle:  ", np.max(np.abs(closed.projectors - oracle.projectors)))
