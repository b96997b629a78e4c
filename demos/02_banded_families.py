"""The banded families and their spectrum recipe.

A family member is a sorted angle tuple; the banded matrix S and the
companion matrix R are derived views and satisfy the exact power
identity (-1)^k S^{-1} S^t = R^n.  Along the segment from the
distinguished interior point the eigenvalue angles move linearly, and
continuing the monodromy eigenvalues along the member's own path from
the identity matrix reproduces the closed-form spectrum.
"""

from fractions import Fraction as F

import numpy as np

from spectral_stokes import hor, orbit
from spectral_stokes.matrices import mat_pow, solve_unit_upper

# an exact member of the antisymmetric (k = 2) family in size 4
b = hor.HorScal(2, (F(0), F(1, 6), F(1, 2), F(5, 6)))
M = hor.scal_to_matrix(b)
print("angles        :", [str(x) for x in b.beta])
print("polynomial    :", list(M.p.coeffs), "(constant term decides k =", M.k, ")")
print("S =")
print(np.asarray(M.S, dtype=int))
R = hor.r_matrix(M)
print("R =")
print(np.asarray(R, dtype=int))

mono = solve_unit_upper(M.S, M.S.T.copy())
print("S^-1 S^t =")
print(np.asarray(mono, dtype=int))
print("R^4      =")
print(np.asarray(mat_pow(R, 4), dtype=int))
ok, _ = hor.verify_power_identity(M)
print("power identity holds exactly:", ok)

print()
print("spectrum      :", [str(a) for a in hor.recipe_spectrum(b)])
print("spectral pairs:", hor.recipe_spectral_pairs(b))

print()
print("the eigenvalue angles along the segment from the interior point:")
res = hor.simplex_path_track(M, steps=128)
for r_idx in (0, 32, 64, 96, 128):
    vals = ", ".join(f"{a:+.4f}" for a in res.alphas[r_idx])
    print(f"  r = {res.times[r_idx]:.2f}: alpha = ({vals})")
track = orbit.generic_path_track(hor.path_matrices(res.betas), steps=128)
print("S^-1 S^t continued along S(beta(r)) ends at",
      ", ".join(f"{a:+.4f}" for a in sorted(track.endpoint)))
