"""Exception hierarchy shared by all modules.

Every domain error raised by the library derives from
:class:`SpectralStokesError`, so callers (in particular the CLI) can map
"the input is outside the mathematical domain" to a uniform failure mode
while genuine bugs still surface as ordinary exceptions.
"""


class SpectralStokesError(Exception):
    """Base class for domain errors."""


class NotPolynomial(SpectralStokesError):
    """A formal quotient of polynomials left a nonzero remainder."""


class RootOffCircle(SpectralStokesError):
    """A root violates the unit-circle tolerance."""

    def __init__(self, root, distance):
        self.root = root
        self.distance = distance
        super().__init__(f"root {root} is off the unit circle by {distance:.3e}")


class NotInFamily(SpectralStokesError):
    """Input is not a member of the requested banded family."""


class NotArithmeticGroup(SpectralStokesError):
    """A group of spectral numbers is not a run of consecutive integers apart."""


class NotLadderComposed(SpectralStokesError):
    """A spectral-pair multiset is not a disjoint union of ladders."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class Singular(SpectralStokesError):
    """A matrix required to be invertible is singular."""


class VerificationFailed(SpectralStokesError):
    """A computed result fails an identity that theory guarantees."""


class Unclassified(SpectralStokesError):
    """The Jordan/eigenvalue pattern is outside the implemented classification."""

    def __init__(self, message, pattern=None):
        self.pattern = pattern
        super().__init__(message)


class BadExponents(SpectralStokesError):
    """Chain exponents violate the admissible bounds."""


class ReductionRequired(SpectralStokesError):
    """The monomial-basis route needs the exponent tuple to be reduced first."""


class ChainBroken(SpectralStokesError):
    """The monomial graph is not a single chain."""

    def __init__(self, message, monomial=None):
        self.monomial = monomial
        super().__init__(message)


class NotReducible(SpectralStokesError):
    """An exponent pattern admits no implemented reduction step."""


class OutOfT(SpectralStokesError):
    """The matrix is outside the unit-circle-eigenvalue set."""


class OutOfFamily(SpectralStokesError):
    """A scalar parameter leaves the one-parameter family."""


class LeftT(SpectralStokesError):
    """A path sample left the unit-circle-eigenvalue set."""

    def __init__(self, parameter, detail=""):
        self.parameter = parameter
        super().__init__(f"path leaves the admissible set at r={parameter}" + (f": {detail}" if detail else ""))
