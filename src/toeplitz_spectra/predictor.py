"""Predictor polynomials of positive symbols and their large-order limits.

The degree-M predictor of a positive symbol h is the polynomial with
coefficients beta_u = (T_M^{-1}(h))_{u+1,1} / sqrt((T_M^{-1}(h))_{1,1});
it is computed here by the Levinson-Durbin recursion on the autocovariances
hat(h)(0..M).  Its two classical properties are exposed as checks:

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

from .errors import NotPositiveDefinite, PredictorRootOnCircle
from .symbol_core import TrigSymbol, inverse_series

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

    Runs the Levinson-Durbin recursion on hat(h)(0..M) (zero beyond the
    stored degree, which is exact for trigonometric polynomials).  Raises
    NotPositiveDefinite when a reflection coefficient reaches modulus one.
    """
    grid = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    if np.min(h(grid)) <= 0:
        raise NotPositiveDefinite("symbol is not positive on the test grid")
    upto = max(M, h.degree)
    r = h.padded(upto)[upto: upto + M + 1]
    a = np.zeros(M + 1, dtype=complex)
    a[0] = 1.0
    E = float(r[0].real)
    if E <= 0:
        raise NotPositiveDefinite("hat(h)(0) must be positive")
    for m in range(1, M + 1):
        acc = r[m] + np.dot(a[1:m], r[m - 1: 0: -1])
        kappa = -acc / E
        if abs(kappa) >= 1.0:
            raise NotPositiveDefinite(
                f"reflection coefficient |kappa|={abs(kappa):.6f} at order {m}")
        a_new = a.copy()
        a_new[m] = kappa
        if m > 1:
            a_new[1:m] = a[1:m] + kappa * np.conj(a[m - 1: 0: -1])
        a = a_new
        E *= 1.0 - abs(kappa) ** 2
    beta = a / np.sqrt(E)
    return PredictorPoly(degree=M, beta=beta)


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
    conj(factor.g).
    """
    if factor.scale <= 0:
        raise ValueError("analytic factor needs a positive scale")
    return inverse_series(factor.g.conj(), count) / np.sqrt(factor.scale)
