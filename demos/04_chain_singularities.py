"""Chain-type singularities: the exact two-route spectrum comparison.

For exponents (a_0, ..., a_m) the function x0^a0 + x0 x1^a1 + ... has a
weighted-homogeneous spectrum; the attached integer matrix polynomial
prod (x^{r_k} - 1)^{(-1)^{m-k}} defines a banded family member whose
spectrum differs from it by exactly (m - 1)/2.  The monomial basis of
the Jacobi algebra orders itself into a chain whose weighted-degree
steps mirror the matrix-side spectral ordering.
"""

from fractions import Fraction

from spectral_stokes import chain

a = (3, 2, 2)
c = chain.ChainSing(a)
print(f"exponents {a}: mu = {c.mu}, weights = {[str(w) for w in c.w]}")

p, k, angles = chain.stokes_poly(a)
print(f"matrix polynomial (k = {k}): {list(p.coeffs)}")
print(f"root angles: {[str(b) for b, _ in angles]}")

order, edges = chain.chain_graph(a)
print("\nmonomial chain:")
print("  " + "  ->  ".join(str(m) for m in order))
print("degree increments:", [str(inc) for _, inc in edges])

sp_f = chain.qh_spectrum(c.w)
sp_s = chain.stokes_spectrum(a)
shift = Fraction(c.m - 1, 2)
print(f"\nweighted-homogeneous spectrum: {[str(x) for x in sorted(sp_f)]}")
print(f"matrix-side spectrum         : {[str(x) for x in sorted(sp_s)]}")
print(f"shift (m-1)/2 = {shift}; equality holds: {chain.verify_spectrum_shift(a)}")
along_chain = [x - shift for x in chain.chain_ordered_spectrum(a)]
print(f"spectrum along the monomial chain, minus the shift: {[str(x) for x in along_chain]}")
print(f"equals the matrix-side spectrum in family order: {along_chain == sp_s}")

print("\nsmall-exponent reductions:")
for t in ((2, 3), (3, 2, 1, 2), (2, 2, 2)):
    susp, sh, red = chain.reduce_chain(t)
    print(f"  {t} -> {red}  ({susp} suspensions, spectrum shift {sh})")

print("\nexhaustive grid (a0 <= 6, aj <= 4, m <= 4):")
tuples = chain.grid_tuples()
bad = [t for t in tuples if not chain.verify_spectrum_shift(t)]
print(f"  {len(tuples)} tuples checked, {len(bad)} failures")
