"""Exception hierarchy for the whole package.

Every failure mode that a caller can reasonably branch on gets its own
class; all of them derive from ToeplitzSpectraError.
"""


class ToeplitzSpectraError(Exception):
    """Base class for all package errors."""


class AliasingRisk(ToeplitzSpectraError):
    """Quadrature grid too small for the requested coefficient order."""


class UnitModulusRoot(ToeplitzSpectraError):
    """A symbol root lies (numerically) on the unit circle."""


class RootFindFailure(ToeplitzSpectraError):
    """A computed root leaves a large residual, or Aberth did not converge."""


class UnbalancedWinding(ToeplitzSpectraError):
    """Root split has unequal inside/outside multiplicity counts."""


class DegeneratePoles(ToeplitzSpectraError):
    """Coincident poles where a partial-fraction step needs them distinct."""


class SingularMatrix(ToeplitzSpectraError):
    """Dense factorization hit a numerically zero pivot.

    The offending pivot magnitude is stored in ``pivot``.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class NotHermitian(ToeplitzSpectraError):
    """Matrix handed to the Hermitian eigensolver is not Hermitian."""


class EigenFailure(ToeplitzSpectraError):
    """Eigenvalue iteration failed to converge."""


class LocalizationFailure(ToeplitzSpectraError):
    """An eigenvalue has no symbol antecedent within tolerance."""


class FlatSymbol(LocalizationFailure):
    """The symbol's range lies within the rounding of its section's spectrum.

    ``span`` is the measured range max f - min f, ``rounding`` the rounding
    level (N + 1) eps max|f| of the order-N section's eigenvalues.
    """

    def __init__(self, message, span=None, rounding=None):
        super().__init__(message)
        self.span = span
        self.rounding = rounding


class ExcludedLambda(ToeplitzSpectraError):
    """Spectral parameter falls in a region excluded by the hypotheses."""


class MissedRoots(ToeplitzSpectraError):
    """A root scan found fewer roots than the eigenvalues it must reproduce.

    ``expected`` counts the eigenvalues the scan had to find, ``found`` the
    roots it returned.
    """

    def __init__(self, message, expected=None, found=None):
        super().__init__(message)
        self.expected = expected
        self.found = found


class NotPositiveDefinite(ToeplitzSpectraError):
    """Autocovariance sequence is not positive definite (|kappa| >= 1)."""


class PredictorRootOnCircle(ToeplitzSpectraError):
    """Predictor polynomial vanishes on the evaluation grid."""


class NeumannCondition(ToeplitzSpectraError):
    """Hankel product norm is >= 1; the inversion formula is not certified."""


class SmallSystemSingular(ToeplitzSpectraError):
    """The finite correction system (I - M) is numerically singular."""


class NonUniqueMinimum(ToeplitzSpectraError):
    """Symbol has more than one minimizer on the half-period."""


class WindowTooSmall(ToeplitzSpectraError):
    """Decay-fit window is empty for the requested matrix order."""


class ApproxFailure(ToeplitzSpectraError):
    """Polynomial approximation loop hit its degree cap.

    ``achieved`` holds the best sup-norm error reached.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved
