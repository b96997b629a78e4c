"""Classifying pairing matrices and reading classes off ladder data.

The Gram matrix of a nondegenerate form determines a monodromy; its
eigenvalue/Jordan data plus sign invariants classify the pair into
irreducible summands.  For banded family members the same classes fall
out of the spectral-pair ladders alone, giving a two-route consistency
check.
"""

import random

from spectral_stokes import hor, seifert as sf
from spectral_stokes.matrices import to_matrix

examples = {
    "identity (size 3)": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "boundary member a = 2": [[1, 2], [0, 1]],
    "interior member a = 1": [[1, 1], [0, 1]],
    "cone point (2,2,2)": [[1, 2, 2], [0, 1, 2], [0, 0, 1]],
    "triple block (3,3,3)": [[1, 3, 3], [0, 1, 3], [0, 0, 1]],
    "off-circle a = 3": [[1, 3], [0, 1]],
}
for name, rows in examples.items():
    P = sf.SeifertPair.from_triangular(to_matrix(rows))
    print(f"{name:>24}: {sf.type_label_multiset(sf.classify(P))}")

print("\nladder data vs direct classification on random exact members:")
rng = random.Random(0)
agree = 0
for _ in range(60):
    n = rng.randrange(2, 8)
    M = hor.sample_cyclotomic_member(n, rng.choice((1, 2)), rng)
    spp = hor.recipe_spectral_pairs(hor.matrix_to_scal(M))
    want = sf.class_from_spp(spp, 1, signed=False)
    got = sf.classify(sf.SeifertPair.from_triangular(M.S))
    assert sf.types_multiset_equal(want, got)
    agree += 1
print(f"  {agree} of 60 match")
