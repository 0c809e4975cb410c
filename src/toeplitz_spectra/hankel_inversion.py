"""Structured inversion of Toeplitz sections through the Hankel correction.

A factorization of a real symbol is read as f = s G1(chi) G2(chibar) with
G2 = g = prod (1 - a z)^m over the inside roots (``SpectralFactorization.g``,
every |a| < 1), G1 = conj(g) coefficient by coefficient, one degree n, and
one scale s = C * phase.  The formulas below use two power series,

    d = coefficients of 1/G1 = conj(b),    b = coefficients of 1/g,

and the lower triangular Toeplitz matrices L(G1) and L(G2) (n x n) of the
leading coefficients.  Only b is stored (to index N + 2n); d enters
through forward recursions and the product matrix.  Repeated or close roots
are just repeated factors.

State basis.  The stable subspace E = {p(chi)/G1(chi) : deg p < n} is the
range of the composed Hankel maps of Phi_N = chi^{N+1} s G1 / G2.  An
element is stored as its first n series coefficients x (its "state"); its
numerator is p = L(G1) x.

Product matrix.  On states, H_Phitilde H_Phi acts as the n x n matrix

    M = V(G1, G2) V(G2, G1) = V conj(V),   V(ga, gb) = Hd(ga) L(gb),
    Hd(ga)[i, e] = (1/ga)[N+2+i+e],

for i, e < n; the scale cancels, and V(G2, G1) = conj(V(G1, G2)) since
G1 = conj(G2).  The inversion context reads Hd(G1) from conj(b), computed
to index N + 2n by the forward recursion, so repeated roots cost no
digits.  ``hankel_half`` builds V for a stack of factor pairs that have no
series, from a power of the companion matrix of ga (log N squarings); the
determinant scan of ``spectra`` takes M = V V from it with equal factors.

Entries.  With the state sigma_l = (d[N+1-l+i] - (V r_l)_i) / s,
r_l = (b[l+1], ..., b[l+n]), and p = L(G1) (I - M)^{-1} sigma_l,

    (T_N^{-1})[k, l] = sum_{u <= min(k, l)} b[l-u] d[k-u] / s
                       - sum_j p_j sum_{i <= k} b[N+1+j-i] d[k-i].

The first sum is the product of the triangular inverses of the two factor
sections; the second has rank at most n.  The formula is evaluated a whole
column at a time, by linearity in l, with both triangular inverses applied
as banded recursions (``series_quotient``), at O(N n) per column; an entry
is read from its column.  Each recursion but the last, over the whole
column, stops at a cut past the support of its right-hand side, where the
majorant of the 1/g series (``series_cut`` of n and ``factor.rho``) falls
below the smallest normal double.  It costs O(min(size, support + cut) n)
and holds exact zeros past the cut instead of a subnormal tail.

Where M is not small (clustered roots, roots near the circle) the state
basis is ill-conditioned and the formula alone can lose digits far beyond
the section's own condition number.

Certification.  (I - M) is solved by LU, so no Neumann series enters; a
column is certified by its own relative residual against the banded
section of the factor product.  It is refined, at most MAX_REFINEMENT_STEPS
times, until that residual is at most RESIDUAL_TOL, and RefinementFailure,
with the final residual, is raised where it is not.

Contexts hold the series and the small matrices of one (factorization, N)
pair.  A point query makes several calls with the same pair, so contexts are
cached.  The cache is keyed by the value of the ``SpectralFactorization`` (a
frozen dataclass; equal factorizations share a context) and by N, and it
holds only a few contexts, each of O(N) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .errors import RefinementFailure, SmallSystemSingular
from .symbol_core import (SpectralFactorization, inverse_series,
                          series_cut, series_quotient)

# Near rho(M) = 1 the formula alone was off by 4e-4 of the max-norm, relative
# residual 9e-5 (roots 0.75 (double), 0.8125, 0.84375, 0.5, 0.875, N = 6,
# against mpmath); each refinement step gains about two digits there.  Where
# it is sound its residual stays below 1e-12 (8e-13 on close roots at
# condition number 5e7), and refining would trade its accuracy for the
# cond * eps of a backward-stable solve.
RESIDUAL_TOL = 1e-12
MAX_REFINEMENT_STEPS = 10


@dataclass(frozen=True, eq=False)
class HankelProductMatrix:
    """Matrix of the composed Hankel maps on the state basis of E.

    ``norm2`` is the spectral radius of M (the Neumann condition) and its
    operator norm on E: for a real symbol |Phi_N| = |s| on the circle, so
    Phitilde = 1/Phi_N = conj(Phi_N) / |s|^2, M represents the positive
    self-adjoint H_Phi^* H_Phi / |s|^2 on E, and its norm in the (Stein
    Gram) inner product of E is its largest eigenvalue, <= 1.
    """

    entries: np.ndarray        # n x n, read-only
    N: int
    norm2: float               # spectral radius = operator norm on E

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _hd_l(far: np.ndarray, gb: np.ndarray) -> np.ndarray:
    """Hd L(gb) from far = (d[N+2], ..., d[N+2r]) of the series d of 1/ga.

    Leading axes of ``far`` (..., 2r-1) and ``gb`` (..., r+1) are a stack;
    Hd[i, e] = far[i+e] and L(gb)[e, j] = gb[e-j] for i, e, j < r.
    """
    i = np.arange(gb.shape[-1] - 1)
    return far[..., i[:, None] + i] @ np.tril(gb[..., abs(i[:, None] - i)])


def hankel_half(ga: np.ndarray, gb: np.ndarray, N: int) -> np.ndarray:
    """V = Hd(ga) L(gb) for stacks of factor polynomials, one pair per row.

    ``ga`` and ``gb`` are (S, n+1), ascending, with g[:, 0] = 1; V is
    (S, n, n), with Hd(ga)[i, e] = d[N+2+i+e] for the series d of 1/ga and
    L(gb)[e, j] = gb[e-j].
    """
    S, r = ga.shape[0], ga.shape[1] - 1
    if r == 0:
        return np.zeros((S, 0, 0), dtype=complex)
    # C maps (d[n], ..., d[n+r-1]) to (d[n+1], ..., d[n+r]); at n = -r+1
    # that window is e_last
    C = np.zeros((S, r, r), dtype=complex)
    C[:, np.arange(r - 1), np.arange(1, r)] = 1.0
    C[:, -1] = -ga[:, :0:-1]
    far = np.empty((S, 2 * r - 1), dtype=complex)    # d[N+2..N+2r]
    far[:, :r] = np.linalg.matrix_power(C, N + r + 1)[..., -1]
    for k in range(r, 2 * r - 1):              # the last row of C steps d
        far[:, k] = np.einsum("sj,sj->s", C[:, -1], far[:, k - r:k])
    return _hd_l(far, gb)


class _InversionContext:
    """Series, product matrix and LU of one (factorization, N)."""

    def __init__(self, factor: SpectralFactorization, N: int):
        self.N = N
        self.scale = factor.scale * factor.phase
        self.g = factor.g                          # G2
        self.gbar = self.g.conj()                  # G1
        self.n = self.g.size - 1
        # b is the longest series the context computes
        self.cut = series_cut(self.n, factor.rho, N + 2 * self.n + 1)
        self.b = inverse_series(self.g, N + 2 * self.n + 1, self.cut)
        self.V = _hd_l(self.b[N + 2:].conj(), self.g)   # d = conj(b)
        self.M = self.V @ self.V.conj()
        self.M.setflags(write=False)
        # hat(f)(-n..n) of the factor product, for the refinement residual
        self.fhat = self.scale * np.convolve(self.gbar, self.g[::-1])

    @cached_property
    def lu(self):
        lu = scipy.linalg.lu_factor(np.eye(self.n) - self.M)
        pivot = float(np.abs(np.diag(lu[0])).min())
        if pivot <= 1e-14:
            raise SmallSystemSingular(f"correction system pivot {pivot:.3e}")
        return lu

    def _apply(self, q: np.ndarray, start: int, norm: float) -> np.ndarray:
        """The correction formula for sum_l Q_l (column l), unrefined.

        Q = z^start q, and ``norm`` bounds the 1-norm of q.
        """
        N, m, n = self.N, start + q.size, self.n
        # c[m-1+t] = sum_l Q_l b[l+t] for -m < t <= n: 1/G2 run backwards
        c = series_quotient(self.g, q[::-1], m + n, self.cut, norm)
        x = np.zeros(N + 1, dtype=complex)
        x[:m] = c[:m][::-1] / self.scale
        if n:
            head = series_quotient(self.gbar, q, N + 1 + n - start, self.cut,
                                   norm)[N + 1 - start:]
            sigma = (head - self.V @ c[m:]) / self.scale
            y = scipy.linalg.lu_solve(self.lu, sigma)
            p = np.convolve(self.gbar, y)[:n]        # L(G1) y
            # x_i -= sum_j p_j b[N+1+j-i]
            x -= sliding_window_view(self.b[1: N + 1 + n], n)[::-1] @ p
        return series_quotient(self.gbar, x, N + 1, None)  # x fills the column

    def solve(self, q: np.ndarray, start: int = 0) -> np.ndarray:
        """T_N^{-1} Q for Q = z^start q, certified by its residual.

        Raises RefinementFailure where refinement does not reach it.
        """
        q_max = np.abs(q).max(initial=0.0)
        x = self._apply(q, start, q.size * q_max)
        for step in range(MAX_REFINEMENT_STEPS + 1):
            residual = -np.convolve(self.fhat, x)[self.n:][: self.N + 1]
            residual[start: start + q.size] += q
            err = np.abs(residual).max()
            scale = np.abs(self.fhat).sum() * np.abs(x).max() + q_max
            if err <= RESIDUAL_TOL * scale:
                return x
            if step < MAX_REFINEMENT_STEPS:
                x = x + self._apply(residual, 0, residual.size * err)
        rel = float(err / scale)
        raise RefinementFailure(
            f"inverse column residual {rel:.3e} > {RESIDUAL_TOL:.0e} after "
            f"{MAX_REFINEMENT_STEPS} refinement steps at N={self.N}",
            residual=rel, tolerance=RESIDUAL_TOL, steps=MAX_REFINEMENT_STEPS)


@lru_cache(maxsize=8)
def _cached_context(factor, N: int) -> _InversionContext:
    return _InversionContext(factor, N)


def hankel_product_matrix(factor, N: int) -> HankelProductMatrix:
    """Matrix of H_Phitilde H_Phi on the state basis, with its norm."""
    M = _cached_context(factor, N).M
    norm2 = float(np.abs(np.linalg.eigvals(M)).max(initial=0.0))
    return HankelProductMatrix(entries=M, N=N, norm2=norm2)


def invert_apply(factor, N: int, Q: np.ndarray) -> np.ndarray:
    """Image of a polynomial under the inverse of the order-N section.

    Parameters
    ----------
    factor : SpectralFactorization
    N : section order (matrix size N+1)
    Q : ascending coefficients, degree <= N

    Returns the degree-N coefficient vector of T_N^{-1}(f) Q, whose relative
    residual against the banded section of the factor product is at most
    RESIDUAL_TOL.  Raises RefinementFailure, carrying the residual reached,
    where refinement does not get there.
    """
    Q = np.asarray(Q, dtype=complex)
    if Q.size > N + 1:
        raise ValueError("polynomial degree exceeds the section order")
    return _cached_context(factor, N).solve(Q)


def inverse_entry(factor, N: int, k: int, l: int) -> complex:
    """Single entry (k, l), 0-based, of the inverse section.

    Read from column l of the inverse, which costs O(N n) and is certified,
    or raises RefinementFailure, as in ``invert_apply``.
    """
    if not (0 <= k <= N and 0 <= l <= N):
        raise ValueError("entry indices must lie in [0, N]")
    return complex(_cached_context(factor, N).solve(np.ones(1), l)[k])
