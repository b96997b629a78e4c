"""Desk-scale experiments: orbits and the eigenvalue-stratum question.

Mutation and sign conjugation preserve the monodromy class; their joint
orbits are finite only in very special cases.  Grouping exact family
members by the monodromy polynomial and comparing spectra inside each
group probes whether equal eigenvalue data forces equal spectra: the
grouping is coarser than a stratum, so disagreeing pairs are candidates
for closer inspection, not counterexamples.
"""

from spectral_stokes import hor, orbit
from spectral_stokes.matrices import to_matrix

S = to_matrix([[1, 1], [0, 1]])
rep = orbit.orbit_explore(S, depth=12, budget=5000)
print(f"orbit of [[1,1],[0,1]] modulo signs: {len(rep.nodes)} node(s), "
      f"exhausted: {rep.exhausted}")

S3 = to_matrix([[1, 3, 3], [0, 1, 3], [0, 0, 1]])
rep = orbit.orbit_explore(S3, depth=4, budget=2000)
print(f"orbit of the triple-block member, depth 4: {len(rep.nodes)} nodes, "
      f"cut off: {rep.exhausted}")

print("\neigenvalue-fiber experiment over exact members of degree <= 6:")
pool = hor.cyclotomic_pool(6)
report = orbit.conjecture16_check(pool)
print(f"  pool {len(pool)}, fibers {len(report.groups)}, "
      f"candidate pairs {len(report.violations)}")
for key, la, sa, lb, sb in report.violations[:3]:
    print(f"  same monodromy polynomial {list(key)}:")
    print(f"    {la}: {[str(x) for x in sa]}")
    print(f"    {lb}: {[str(x) for x in sb]}")
if report.violations:
    print("  (same fiber, different spectra: these members lie in different")
    print("   fiber components, which is exactly what the stratum language")
    print("   distinguishes)")
