"""Exception hierarchy for the whole package.

Every failure mode that a caller can reasonably branch on gets its own
class; all of them derive from ToeplitzSpectraError.
"""


class ToeplitzSpectraError(Exception):
    """Base class for all package errors.

    Keyword arguments are the measured quantities behind a failure; each
    becomes an attribute of the same name.
    """

    def __init__(self, message, **measured):
        super().__init__(message)
        self.__dict__.update(measured)


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


class NotHermitian(ToeplitzSpectraError):
    """Matrix handed to the Hermitian eigensolver is not Hermitian.

    ``asymmetry`` is the measured max|M - M^H|; ``shape`` is set instead
    when the matrix is not square.
    """

    asymmetry = shape = None


class NonFiniteMatrix(ToeplitzSpectraError):
    """Matrix handed to the Hermitian eigensolver has NaN or inf entries.

    ``count`` is the number of non-finite entries.
    """


class EigenFailure(ToeplitzSpectraError):
    """Eigenvalue iteration failed to converge."""


class LocalizationFailure(ToeplitzSpectraError):
    """An eigenvalue has no symbol antecedent within tolerance."""


class FlatSymbol(LocalizationFailure):
    """The symbol's range lies within the rounding of its section's spectrum.

    ``span`` is the measured range max f - min f, ``rounding`` the rounding
    level (N + 1) eps max|f| of the order-N section's eigenvalues.
    """


class ExcludedLambda(ToeplitzSpectraError):
    """The normalized determinant is not real at a root of the det scan."""


class MissedRoots(ToeplitzSpectraError):
    """A root scan found fewer roots than the eigenvalues it must reproduce.

    ``expected`` counts the eigenvalues the scan had to find, ``found`` the
    roots it returned.
    """


class NotPositiveDefinite(ToeplitzSpectraError):
    """A symbol or its Toeplitz section is not positive definite.

    ``order`` is the first order N whose section T_N fails the Cholesky
    factorization (leading minor N + 1 not positive); it is None when the
    symbol already fails the positivity test on its grid.
    """

    order = None


class PredictorRootOnCircle(ToeplitzSpectraError):
    """Predictor polynomial vanishes on the evaluation grid."""


class RefinementFailure(ToeplitzSpectraError):
    """A structured inverse column misses its residual tolerance.

    ``residual`` is the column's final relative residual against the banded
    section of the factor product, ``tolerance`` the bound it had to meet
    and ``steps`` the refinement steps taken.
    """


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
