"""Off-diagonal decay of inverses of banded and regular-symbol sections.

For a band symbol with balanced circle-free root split, the inverse entries
fall off geometrically in |k - l| with base rho = max inside-root modulus;
this module measures that law (least-squares slope of log max-offset
magnitudes) and extends it to strictly positive non-polynomial symbols via a
cepstral polynomial surrogate |P|^2 ~ f.

Whole inverse from one column.  A symbol here is real on the circle
(``TrigSymbol`` enforces Hermitian coefficients) and has no zeros there, so
it keeps one sign and T_N is Hermitian definite: positive definite where
f > 0, negative definite where f < 0.  Then x = T_N^{-1} e_0 has a real
nonzero x_0 (negative for a negative symbol), and the Gohberg-Semencul
formula gives every entry from x alone: with y = (0, conj(x_N), ...,
conj(x_1)),

    T_N^{-1}[k, k + d] = (1/x_0) sum_{j <= k} (x_j conj(x_{j+d})
                                               - y_j conj(y_{j+d})).

Skewed layout.  The upper diagonals of an (N+1) x (N+1) matrix A are held
as the rows of an (N+1) x (N+1) array, D[d, k] = A[k, k + d].  Entries with
k + d > N are padding that never exceeds the row's largest modulus, so
``np.abs(D).max(axis=1)`` gives every offset maximum at once.  For the
formula above the rows are one ``np.cumsum`` along k of the products
x_j conj(x_{j+d}) - y_j conj(y_{j+d}), read through ``sliding_window_view``
over zero-padded conj(x) and conj(y); the zero padding makes each product
vanish for j + d > N, so the tail of a row repeats its last entry and no
mask is needed.  The cost is O(N^2) after one ``invert_apply`` call, with at
most two (N+1)^2 complex arrays alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ApproxFailure, WindowTooSmall
from .hankel_inversion import invert_apply
from .symbol_core import (
    RootSet,
    SpectralFactorization,
    TrigSymbol,
    cepstral_factor,
    fourier_coeffs,
    wiener_hopf_factor,
)
from .toeplitz_core import build, dense_invert

# surrogate accuracies that the regular-symbol checks demand of approx_regular
COROLLARY_EPS = 1e-8
PERTURBATION_EPS = 1e-6
# the highest truncation degree that approx_regular tries
DEGREE_CAP = 512


@dataclass(frozen=True, eq=False)
class BandSymbol:
    """Band symbol read through its factorization, with decay base rho."""

    factorization: SpectralFactorization

    @classmethod
    def from_symbol(cls, sym: TrigSymbol, *, seed: int = 0) -> "BandSymbol":
        """Factor ``sym``; ``seed`` is unused, as in ``wiener_hopf_factor``."""
        fac = wiener_hopf_factor(sym)
        if sym.degree > 0 and not (0.0 < fac.rho < 1.0):
            raise ValueError(f"decay base rho={fac.rho} outside (0, 1)")
        return cls(fac)

    @property
    def symbol(self) -> TrigSymbol:
        return self.factorization.symbol

    @property
    def roots(self) -> RootSet:
        return self.factorization.roots

    @property
    def rho(self) -> float:
        return self.factorization.rho

    @property
    def n0(self) -> int:
        return self.factorization.n0


@dataclass(frozen=True, eq=False)
class RegularSymbol:
    """Strictly positive circle function given by its samples."""

    sample_fn: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        theta = 2.0 * np.pi * np.arange(2048) / 2048
        vals = np.asarray(self.sample_fn(theta), dtype=float)
        if np.min(vals) <= 0:
            raise ValueError("symbol is not strictly positive on the circle")

    def truncate(self, d: int) -> TrigSymbol:
        grid = 2048
        while grid < 8 * d:
            grid *= 2
        return TrigSymbol(fourier_coeffs(self.sample_fn, d, grid))


@dataclass(frozen=True)
class DecayReport:
    """Max inverse magnitude per offset with a fitted log-linear slope."""

    offsets: tuple
    magnitudes: tuple
    fit_window: tuple            # (d_lo, d_hi) inclusive
    slope: Optional[float]
    target: float                # expected slope (log of the decay base)
    exact_band: bool = False
    bound_constant: Optional[float] = None
    oracle_gap: Optional[float] = None


def _gs_diagonals(x: np.ndarray) -> np.ndarray:
    """Skewed layout of T_N^{-1} from its first column x (Gohberg-Semencul)."""
    n = x.size
    y = np.zeros_like(x)
    y[1:] = np.conj(x[:0:-1])
    pad = np.zeros(2 * n - 1, dtype=complex)
    pad[:n] = np.conj(x)
    D = np.multiply(sliding_window_view(pad, n), x)
    pad[:n] = np.conj(y)
    D -= np.multiply(sliding_window_view(pad, n), y)
    np.cumsum(D, axis=1, out=D)
    D /= x[0].real
    return D


def _skewed(a: np.ndarray) -> np.ndarray:
    """Skewed layout of a square matrix, zero where k + d > N.

    Read from the row-major upper triangle followed by N + 1 zeros: the
    entry at flat index d + k (N + 2) is a[k, k + d] for k + d <= N, and
    otherwise a zeroed lower-triangle entry or the padding.
    """
    n = a.shape[0]
    flat = np.zeros(n * (n + 1), dtype=a.dtype)
    flat[: n * n] = np.triu(a).ravel()
    return sliding_window_view(flat, n * n + 1)[:, :: n + 1]


def _hermitian_from_diagonals(D: np.ndarray) -> np.ndarray:
    """Full Hermitian matrix whose upper diagonals are the rows of D."""
    k, l = np.triu_indices(D.shape[0])
    full = np.empty(D.shape, dtype=D.dtype)
    full[l, k] = np.conj(D[l - k, k])
    full[k, l] = D[l - k, k]
    return full


def _offset_maxima(D: np.ndarray) -> np.ndarray:
    """max |A[k, k + d]| for every offset d, from the skewed layout D of A."""
    return np.abs(D).max(axis=1)


def _fit_slope(mags: np.ndarray, lo: int, hi: int):
    d = np.arange(mags.size)
    keep = (d >= lo) & (d <= hi) & (mags > 1e-250)
    if keep.sum() < 2:
        return None
    return float(np.polyfit(d[keep], np.log(mags[keep]), 1)[0])


def _bound_constant(mags: np.ndarray, lo: int, hi: int, target: float
                   ) -> Optional[float]:
    """C = max M(d) / e^{target d} over the nonzero M(d) with lo <= d <= hi.

    The smallest C with M(d) <= C e^{target d} on the fit window, formed in
    log space; None when C exceeds the largest double.
    """
    d = np.arange(mags.size)
    keep = (d >= lo) & (d <= hi) & (mags > 0)
    try:
        return math.exp(np.max(np.log(mags[keep]) - target * d[keep],
                               initial=-np.inf))
    except OverflowError:
        return None


def band_decay_report(sym: BandSymbol, N: int, *,
                      check_oracle: bool = False) -> DecayReport:
    """Measured off-diagonal decay of the inverse of the order-N section.

    The first column of the inverse comes from one ``invert_apply`` call (the
    structured inversion formula, with its norm check and residual
    refinement); every upper diagonal then follows from the
    Gohberg-Semencul formula for the Hermitian definite section, as one
    cumulative sum over the skewed layout (see the module docstring).
    ``check_oracle`` additionally compares the full inverse, rebuilt from
    those diagonals by Hermitian symmetry, against the dense LU inverse and
    stores the max discrepancy.  The slope is fitted on offsets
    d in [n0 + 2, N // 2] (WindowTooSmall if that range is empty).
    """
    n0 = sym.n0
    if n0 == 0:
        inv_entry = 1.0 / sym.symbol.coeff(0).real
        mags = [abs(inv_entry)] + [0.0] * N
        return DecayReport(offsets=tuple(range(N + 1)),
                           magnitudes=tuple(mags),
                           fit_window=(1, N), slope=None, target=0.0,
                           exact_band=True)
    lo, hi = n0 + 2, N // 2
    if lo > hi:
        raise WindowTooSmall(f"no offsets in [{lo}, {hi}] at order N={N}")
    D = _gs_diagonals(invert_apply(sym.factorization, N, [1]))
    oracle_gap = None
    if check_oracle:
        oracle_gap = float(np.max(np.abs(
            _hermitian_from_diagonals(D)
            - dense_invert(build(sym.symbol, N)))))
    mags = _offset_maxima(D)
    return DecayReport(offsets=tuple(range(N + 1)),
                       magnitudes=tuple(mags.tolist()),
                       fit_window=(lo, hi), slope=_fit_slope(mags, lo, hi),
                       target=math.log(sym.rho), oracle_gap=oracle_gap)


def modulus_squared_symbol(p: np.ndarray) -> TrigSymbol:
    """TrigSymbol of |P(chi)|^2 for an analytic polynomial P."""
    p = np.asarray(p, dtype=complex)
    return TrigSymbol(np.convolve(p, np.conj(p[::-1])))


def approx_regular(f: RegularSymbol, eps: float) -> np.ndarray:
    """Analytic polynomial P with sup | |P|^2 - f | <= eps on the circle.

    Cepstral construction: P truncates the exponential of the analytic half
    of log f, one series computed once, with the truncation degree raised
    until the bound holds on a 2048-point grid.  The returned P has no roots
    on or inside the unit circle (checked); ApproxFailure carries the best
    error if DEGREE_CAP is reached.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    grid = 2048
    theta = 2.0 * np.pi * np.arange(grid) / grid
    fv = np.asarray(f.sample_fn(theta), dtype=float)
    series = cepstral_factor(f.sample_fn, DEGREE_CAP)
    degree = 8
    best = np.inf
    while degree <= DEGREE_CAP:
        p = series[: degree + 1]
        pv = np.polynomial.polynomial.polyval(np.exp(1j * theta), p)
        err = float(np.max(np.abs(np.abs(pv) ** 2 - fv)))
        best = min(best, err)
        if err <= eps:
            if np.min(np.abs(pv)) <= 0:
                raise ApproxFailure("surrogate vanishes on the circle",
                                    achieved=err)
            roots = np.roots(p[::-1]) if p.size > 1 else np.empty(0)
            if roots.size and np.min(np.abs(roots)) <= 1.0:
                raise ApproxFailure(
                    "surrogate root inside the closed unit disk",
                    achieved=err)
            return p
        degree *= 2
    raise ApproxFailure(
        f"degree cap {DEGREE_CAP} reached with error {best:.3e}",
        achieved=best)


def corollary_decay_check(f: RegularSymbol, N: int, rho_target: float
                          ) -> DecayReport:
    """Decay report of the dense inverse of a regular-symbol section.

    Verifies the surrogate route first (approx_regular must succeed at
    COROLLARY_EPS), then measures M(d) on the dense inverse of T_N(f) and
    reports the bound constant C = max M(d) * rho_target^d over the fit
    window together with the fitted slope (target -log rho_target).
    """
    if rho_target <= 1.0:
        raise ValueError("rho_target must exceed 1")
    approx_regular(f, COROLLARY_EPS)
    sym = f.truncate(N)
    mags = _offset_maxima(_skewed(dense_invert(build(sym, N))))
    lo, hi = 2, N // 2
    if lo > hi:
        raise WindowTooSmall(f"no offsets in [{lo}, {hi}] at order N={N}")
    target = -math.log(rho_target)
    return DecayReport(offsets=tuple(range(N + 1)),
                       magnitudes=tuple(mags.tolist()),
                       fit_window=(lo, hi), slope=_fit_slope(mags, lo, hi),
                       target=target,
                       bound_constant=_bound_constant(mags, lo, hi, target))


@dataclass(frozen=True)
class PerturbationCheck:
    """Numerical data of the surrogate-swap inequality for the dense inverses."""

    lhs: float                   # ||T^-1(f) - T^-1(|P|^2)||_2
    rhs: float                   # bound from the surrogate inverse
    q: float                     # contraction factor, must stay below 1
    surrogate_degree: int

    @property
    def holds(self) -> bool:
        return self.q < 1.0 and self.lhs <= self.rhs * (1.0 + 1e-12)


def perturbation_inequality_check(f: RegularSymbol, N: int
                                  ) -> PerturbationCheck:
    """Check the inverse-swap bound between T_N(f) and its surrogate section.

    With D = T_N(|P|^2) - T_N(f) and q = ||T_N^-1(|P|^2) D||_2 < 1:

        ||T_N^-1(f) - T_N^-1(|P|^2)||_2
            <= ||T_N^-1(|P|^2)||_2^2 ||D||_2 / (1 - q).
    """
    p = approx_regular(f, PERTURBATION_EPS)
    sym_f = f.truncate(N)
    sym_p = modulus_squared_symbol(p)
    Tf = build(sym_f, N).dense()
    Tp = build(sym_p, N).dense()
    inv_f = dense_invert(build(sym_f, N))
    inv_p = dense_invert(build(sym_p, N))
    D = Tf - Tp
    q = float(np.linalg.norm(inv_p @ D, 2))
    lhs = float(np.linalg.norm(inv_f - inv_p, 2))
    rhs = float(np.linalg.norm(inv_p, 2) ** 2 * np.linalg.norm(D, 2)
                / max(1.0 - q, 1e-300))
    return PerturbationCheck(lhs=lhs, rhs=rhs, q=q,
                             surrogate_degree=p.size - 1)
