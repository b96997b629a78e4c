"""Spectral numbers and spectral pairs for unit upper-triangular matrices.

Subpackages by topic:

* :mod:`spectral_stokes.polycore`  exact/float polynomials, unit-circle
  angles, companion matrices
* :mod:`spectral_stokes.spectra`   spectral pairs, ladders, partners
* :mod:`spectral_stokes.hor`       the two banded families, the spectrum
  recipe, matrix identities, the eigenvalue angles along a simplex
  segment in closed form
* :mod:`spectral_stokes.seifert`   bilinear-form pairs, irreducible type
  classification, the types a ladder forces
* :mod:`spectral_stokes.chain`     chain-type singularities, the exact
  two-route spectrum comparison and the monomial chain
* :mod:`spectral_stokes.lowdim`    closed forms for sizes 2 and 3
* :mod:`spectral_stokes.orbit`     sign/mutation actions, experiments,
  generic eigenvalue tracking by a predictor step
"""

from . import chain, errors, hor, lowdim, matrices, orbit, polycore, seifert, spectra

__all__ = ["chain", "errors", "hor", "lowdim", "matrices", "orbit",
           "polycore", "seifert", "spectra"]

__version__ = "0.1.0"
