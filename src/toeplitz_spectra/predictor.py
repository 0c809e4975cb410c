"""Predictor polynomials of positive symbols and their large-order limits.

The degree-M predictor of a positive symbol h is the polynomial with
coefficients beta_u = (T_M^{-1}(h))_{u+1,1} / sqrt((T_M^{-1}(h))_{1,1}).
It is read from one banded Cholesky factorization T_M = L L^H of the
Hermitian section, bandwidth w = min(deg h, M), and one solve against
e_0: O(M w^2) work in LAPACK (Golub & Van Loan, Matrix Computations,
sec. 4.3).  The factorization is also the positive-definiteness
certificate: it fails at the first leading minor that is not positive,
which by Sylvester's criterion is the order where the Levinson-Durbin
recursion would meet a reflection coefficient of modulus one.  Its two
classical properties are exposed as checks:

  * the moment identity hat(h)(s) = (1/|P_M|^2)^hat(s) for |s| <= M,
  * the coefficient limit beta_{k,N} -> conj(b_0) b_k as N grows, where
    b = coefficients of 1/g for the analytic factor h = g conj(g), with rate
    N^{-s} governed by the coefficient-decay class of h.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg.lapack

from .errors import NotPositiveDefinite, PredictorRootOnCircle
from .symbol_core import TrigSymbol, inverse_series, series_cut
from .toeplitz_core import build

log = logging.getLogger("toeplitz_spectra")

# relative rise between consecutive errors that still counts as non-increasing
NON_INCREASING_SLACK = 0.10


@dataclass(frozen=True, eq=False)
class PredictorPoly:
    """P_M(chi) = sum_u beta[u] chi^u with the first-column normalization."""

    degree: int
    beta: np.ndarray

    def __call__(self, z) -> np.ndarray:
        return np.polynomial.polynomial.polyval(z, self.beta)

    def on_circle(self, theta) -> np.ndarray:
        return self(np.exp(1j * np.asarray(theta, dtype=float)))

    def roots(self) -> np.ndarray:
        return np.roots(self.beta[::-1]) if self.degree >= 1 else np.empty(0)


def levinson(h: TrigSymbol, M: int) -> PredictorPoly:
    """Degree-M predictor polynomial of a positive symbol.

    Factors the section T_M = L L^H from its lower band (LAPACK ``pbtrf``,
    which ``scipy.linalg.cholesky_banded`` wraps; called directly for its
    failing order) and solves T_M x = e_0 (``pbtrs``), so beta =
    x / sqrt(x_0) costs O(M w^2) with w = min(deg h, M).  Raises
    NotPositiveDefinite, with the failing ``order``, when h is not positive
    on a 1024-point grid or a leading section is not positive definite.
    """
    grid = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    if np.min(h(grid)) <= 0:
        raise NotPositiveDefinite("symbol is not positive on the test grid")
    chol, info = scipy.linalg.lapack.zpbtrf(build(h, M).lower_band(),
                                            lower=1, overwrite_ab=1)
    if info > 0:
        raise NotPositiveDefinite(
            f"section of order {info - 1} is not positive definite "
            f"(leading minor {info})", order=info - 1)
    e0 = np.zeros((M + 1, 1), dtype=complex)
    e0[0] = 1.0
    x = scipy.linalg.lapack.zpbtrs(chol, e0, lower=1, overwrite_b=1)[0][:, 0]
    return PredictorPoly(degree=M, beta=x / np.sqrt(x[0].real))


def property1_check(h: TrigSymbol, M: int) -> float:
    """Max moment residual max_{|s|<=M} |hat(h)(s) - hat(1/|P_M|^2)(s)|."""
    P = levinson(h, M)
    grid_size = 1024
    while grid_size < 16 * max(M, 1):
        grid_size *= 2
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    pv = np.abs(P.on_circle(theta)) ** 2
    if np.min(pv) <= 1e-14 * np.max(pv):
        raise PredictorRootOnCircle("predictor modulus vanishes on the grid")
    fhat = np.fft.fft(1.0 / pv) / grid_size
    s = np.arange(-M, M + 1)
    upto = max(M, h.degree)
    r = h.padded(upto)[upto - M: upto + M + 1] - fhat[s % grid_size]
    # hypot rounds as a scalar abs does (np.abs of complex arrays may not)
    return float(np.max(np.hypot(r.real, r.imag)))


@dataclass(frozen=True)
class Lemma1Report:
    """Per-order predictor-limit errors and the fitted log-log slope."""

    N_list: tuple
    errors: tuple
    slope: Optional[float]

    def non_increasing(self) -> bool:
        e = self.errors
        return all(e[i + 1] <= e[i] * (1.0 + NON_INCREASING_SLACK)
                   for i in range(len(e) - 1))


def lemma1_rate(h: TrigSymbol, g_inv_coeffs: Sequence[complex],
                N_list: Sequence[int]) -> Lemma1Report:
    """Error table err(N) = max_{k <= N/2} |beta_{k,N} - conj(b_0) b_k / |b_0||.

    ``g_inv_coeffs`` are the exact coefficients b of the reciprocal analytic
    factor of h (caller-supplied; for constructed test symbols they are known
    in closed form).  The |b_0| divisor aligns the free phase/scale of the
    analytic factor with the predictor normalization; it is 1 exactly when
    the prediction variance is 1, which covers every unit-variance test
    symbol.  The fitted slope of log err against log N is reported; it is
    None when an error vanishes to machine zero or only one order is given.
    """
    b = np.asarray(g_inv_coeffs, dtype=complex)
    limit = np.conj(b[0]) * b / abs(b[0])
    errs = []
    for N in N_list:
        P = levinson(h, int(N))
        K = int(N) // 2 + 1
        target = np.zeros(K, dtype=complex)
        target[:min(K, b.size)] = limit[:K]
        r = P.beta[:K] - target
        errs.append(float(np.max(np.hypot(r.real, r.imag))))
        log.debug("lemma1_rate N=%d err=%.3e", N, errs[-1])
    errs_arr = np.array(errs)
    if np.any(errs_arr <= 0) or len(N_list) < 2:
        slope = None
    else:
        slope = float(np.polyfit(np.log(np.asarray(N_list, dtype=float)),
                                 np.log(errs_arr), 1)[0])
    return Lemma1Report(N_list=tuple(int(n) for n in N_list),
                        errors=tuple(errs), slope=slope)


def g_inverse_coeffs(factor, count: int) -> np.ndarray:
    """Series coefficients of 1/g for the analytic factor with h = g conj(g).

    Built from a spectral factorization of a positive symbol: g is the
    square root of the scale times g1 / phase, whose coefficients are
    conj(factor.g), with the roots' largest modulus ``factor.rho``.
    """
    if factor.scale <= 0:
        raise ValueError("analytic factor needs a positive scale")
    g = factor.g.conj()
    cut = series_cut(g.size - 1, factor.rho, count)
    return inverse_series(g, count, cut) / np.sqrt(factor.scale)
