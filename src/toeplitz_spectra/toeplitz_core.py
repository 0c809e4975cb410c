"""Finite Toeplitz sections of a symbol and the dense reference machinery.

The dense routines here (pivoted-LU inverse, determinant) are the oracle that
every structured result in the package is checked against, so they stay
deliberately boring: LAPACK factorizations behind explicit pivot checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SingularMatrix
from .symbol_core import TrigSymbol

# Dense matrices are plain ndarrays throughout the package.
DenseMatrix = np.ndarray


@dataclass(frozen=True)
class ToeplitzMatrix:
    """(N+1) x (N+1) section with entries T[k, l] = hat(f)(k - l), 0-based.

    ``coeffs`` stores hat(f)(-N..N) zero-padded beyond the symbol degree;
    ``bandwidth`` is the symbol degree.
    """

    order: int
    coeffs: np.ndarray
    bandwidth: int

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.size != 2 * self.order + 1:
            raise ValueError("coefficient array must have length 2N + 1")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def shape(self):
        n = self.order + 1
        return (n, n)

    def dense(self) -> DenseMatrix:
        c = self.coeffs
        N = self.order
        col = c[N:]           # hat(0..N)
        row = c[N::-1]        # hat(0..-N)
        return scipy.linalg.toeplitz(col, row)

    def lower_band(self) -> np.ndarray:
        """The lower band of the section in LAPACK band storage.

        A (w+1) x (N+1) array, w = ``bandwidth``: row i holds the i-th
        subdiagonal hat(f)(i), and its last i entries are never read.  It
        is Fortran ordered, as ``pbtrf`` takes it without a copy.
        """
        N = self.order
        sub = self.coeffs[None, N: N + self.bandwidth + 1]
        return np.repeat(sub, N + 1, axis=0).T


def build(sym: TrigSymbol, N: int) -> ToeplitzMatrix:
    """Toeplitz section of order N (matrix size N+1) of a symbol."""
    if N < 0:
        raise ValueError("order must be nonnegative")
    d = sym.degree
    if N >= d:
        coeffs = sym.padded(N)
    else:
        coeffs = np.array(sym.coeffs[d - N: d + N + 1])
    return ToeplitzMatrix(order=N, coeffs=coeffs, bandwidth=min(d, N))


def _lu(T: ToeplitzMatrix):
    dense = T.dense()
    if not np.all(np.isfinite(dense)):
        raise ValueError("matrix has non-finite entries")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(dense, check_finite=False)
    diag = np.abs(np.diag(lu))
    scale = max(float(np.max(np.abs(dense))), 1e-300)
    pivot_min = float(diag.min()) if diag.size else 0.0
    if pivot_min <= 1e-13 * scale:
        raise SingularMatrix(
            f"numerically singular section (pivot {pivot_min:.3e})",
            pivot=pivot_min)
    return lu, piv


def dense_invert(T: ToeplitzMatrix) -> DenseMatrix:
    """Full inverse through pivoted LU; raises SingularMatrix on tiny pivots."""
    lu, piv = _lu(T)
    return scipy.linalg.lu_solve((lu, piv), np.eye(T.order + 1, dtype=complex),
                                 check_finite=False)


def dense_det(M: DenseMatrix) -> complex:
    """Determinant via pivoted LU (sign-tracked product of pivots)."""
    M = np.asarray(M, dtype=complex)
    lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
    det = complex(np.prod(np.diag(lu)))
    swaps = int(np.sum(piv != np.arange(M.shape[0])))
    return det * (-1.0) ** swaps


def format_complex(z: complex, digits: int = 17) -> str:
    """Format a complex number as ``re+imi`` (CSV cell convention)."""
    re, im = z.real, z.imag
    if im == 0:
        return f"{re:.{digits}g}"
    sign = "+" if im >= 0 else "-"
    return f"{re:.{digits}g}{sign}{abs(im):.{digits}g}i"
