"""Structured inversion of Toeplitz sections through the Hankel correction.

A factorization of a real symbol is read as f = s G1(chi) G2(chibar) with
G2 = g = prod (1 - a z)^m over the inside roots (``SpectralFactorization.g``,
every |a| < 1), G1 = conj(g) coefficient by coefficient, one degree n, and
one scale s = C * phase.  The formulas below use two power series,

    d = coefficients of 1/G1 = conj(b),    b = coefficients of 1/g,

and the lower triangular Toeplitz matrices L(G1) and L(G2) (n x n) of the
leading coefficients.  Only b is stored (to index N + n); d enters through
forward recursions and the product matrix.  Repeated or close roots are
just repeated factors.

State basis.  The stable subspace E = {p(chi)/G1(chi) : deg p < n} is the
range of the composed Hankel maps of Phi_N = chi^{N+1} s G1 / G2.  An
element is stored as its first n series coefficients x (its "state"); its
numerator is p = L(G1) x, and its later coefficients follow from the
companion matrix A of G1.

Product matrix.  On states, H_Phitilde H_Phi acts as the n x n matrix

    M = V(G1, G2) V(G2, G1) = V conj(V),   V(ga, gb) = Hd(ga) L(gb),
    Hd(ga)[i, e] = (1/ga)[N+2+i+e],

for i, e < n; the scale cancels, and V(G2, G1) = conj(V(G1, G2)) since
G1 = conj(G2).  ``hankel_half`` builds V for a stack of factor pairs, with
the far terms of 1/ga from a power of its companion matrix (log N
squarings), so coinciding roots need no care.  The inversion context takes
V from one call on its single pair, the determinant scan of ``spectra``
M = V V with equal factors.

Stein Gram.  The squared norm of the element with state x is x^H G x, with
G = A^H G A + e0 e0^T (``solve_discrete_lyapunov``).  ``norm2`` is the
operator norm of M in that inner product, ||R M R^{-1}||_2 for the Cholesky
factor G = R^H R; it does not depend on the basis.  The inversion formula
is certified when norm2 < 1 (the Neumann series of (I - M)^{-1} converges).

Entries.  With the state sigma_l = (d[N+1-l+i] - (V r_l)_i) / s,
r_l = (b[l+1], ..., b[l+n]), and p = L(G1) (I - M)^{-1} sigma_l,

    (T_N^{-1})[k, l] = sum_{u <= min(k, l)} b[l-u] d[k-u] / s
                       - sum_j p_j sum_{i <= k} b[N+1+j-i] d[k-i].

The first sum is the product of the triangular inverses of the two factor
sections; the second has rank at most n.  The formula is evaluated a whole
column at a time, by linearity in l, with both triangular inverses applied
as banded recursions (``series_quotient``), at O(N n) per column; an entry
is read from its column.  Where M is not small (norm2 near 1, clustered
roots) the state basis is ill-conditioned and the formula alone can lose
digits far beyond the section's own condition number.  A column whose
relative residual against the banded section of the factor product exceeds
RESIDUAL_TOL is refined, at most MAX_REFINEMENT_STEPS times, until it does
not.

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

from .errors import NeumannCondition, SmallSystemSingular
from .symbol_core import (SpectralFactorization, inverse_series,
                          series_quotient)

# Near norm2 = 1 the formula alone was off by 4e-4 of the max-norm, relative
# residual 9e-5 (roots 0.75 (double), 0.8125, 0.84375, 0.5, 0.875, N = 6,
# against mpmath); each refinement step gains about two digits there.  Where
# it is sound its residual stays below 1e-12 (8e-13 on close roots at
# condition number 5e7), and refining would trade its accuracy for the
# cond * eps of a backward-stable solve.
RESIDUAL_TOL = 1e-12
MAX_REFINEMENT_STEPS = 10


@dataclass(frozen=True, eq=False)
class HankelProductMatrix:
    """Matrix of the composed Hankel maps on the state basis of E."""

    entries: np.ndarray        # n x n, read-only
    N: int
    norm2: float               # operator norm in the Gram inner product

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


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
    i = np.arange(r)                           # L(gb)[e, j] = gb[e - j]
    return far[:, i[:, None] + i] @ np.tril(gb[:, abs(i[:, None] - i)])


class _InversionContext:
    """Series, product matrix, Gram norm and LU of one (factorization, N)."""

    def __init__(self, factor: SpectralFactorization, N: int):
        self.N = N
        self.scale = factor.scale * factor.phase
        self.g = factor.g                          # G2
        self.gbar = self.g.conj()                  # G1
        self.n = self.g.size - 1
        self.b = inverse_series(self.g, N + self.n + 1)
        self.V = hankel_half(self.gbar[None], self.g[None], N)[0]
        self.M = self.V @ self.V.conj()
        self.M.setflags(write=False)
        # hat(f)(-n..n) of the factor product, for the refinement residual
        self.fhat = self.scale * np.convolve(self.gbar, self.g[::-1])

    @cached_property
    def norm2(self) -> float:
        n = self.n
        if n == 0:
            return 0.0
        A = np.eye(n, k=1, dtype=complex)
        A[-1] = -self.gbar[:0:-1]
        e0 = np.zeros((n, n))
        e0[0, 0] = 1.0
        G = scipy.linalg.solve_discrete_lyapunov(A.conj().T, e0)
        R = scipy.linalg.cholesky(0.5 * (G + G.conj().T))
        return float(np.linalg.norm(R @ self.M @ np.linalg.inv(R), 2))

    @cached_property
    def lu(self):
        lu = scipy.linalg.lu_factor(np.eye(self.n) - self.M)
        pivot = float(np.abs(np.diag(lu[0])).min())
        if pivot <= 1e-14:
            raise SmallSystemSingular(f"correction system pivot {pivot:.3e}")
        return lu

    def check_norm(self) -> None:
        if self.norm2 >= 1.0:
            raise NeumannCondition(
                f"Hankel product norm {self.norm2:.3f} >= 1 at N={self.N}")

    def _apply(self, Q: np.ndarray) -> np.ndarray:
        """The correction formula for sum_l Q_l (column l), unrefined."""
        N, m, n = self.N, Q.size, self.n
        # c[m-1+t] = sum_l Q_l b[l+t] for -m < t <= n: 1/G2 run backwards
        c = series_quotient(self.g, np.concatenate([Q[::-1], np.zeros(n)]))
        x = np.zeros(N + 1, dtype=complex)
        x[:m] = c[:m][::-1] / self.scale
        if n:
            padded = np.zeros(N + 1 + n, dtype=complex)
            padded[:m] = Q
            head = series_quotient(self.gbar, padded)[N + 1:]
            sigma = (head - self.V @ c[m:]) / self.scale
            y = scipy.linalg.lu_solve(self.lu, sigma)
            p = np.convolve(self.gbar, y)[:n]        # L(G1) y
            # x_i -= sum_j p_j b[N+1+j-i]
            x -= sliding_window_view(self.b[1: N + 1 + n], n)[::-1] @ p
        return series_quotient(self.gbar, x)

    def solve(self, Q: np.ndarray) -> np.ndarray:
        """T_N^{-1} Q, refined against the banded section of the product."""
        x = self._apply(Q)
        for _ in range(MAX_REFINEMENT_STEPS):
            residual = -np.convolve(self.fhat, x)[self.n:][: self.N + 1]
            residual[: Q.size] += Q
            scale = np.abs(self.fhat).sum() * np.abs(x).max() \
                + np.abs(Q).max(initial=0.0)
            if np.abs(residual).max() <= RESIDUAL_TOL * scale:
                break
            x = x + self._apply(residual)
        return x


@lru_cache(maxsize=8)
def _cached_context(factor, N: int) -> _InversionContext:
    return _InversionContext(factor, N)


def hankel_product_matrix(factor, N: int) -> HankelProductMatrix:
    """Matrix of H_Phitilde H_Phi on the state basis, with its Gram norm."""
    ctx = _cached_context(factor, N)
    return HankelProductMatrix(entries=ctx.M, N=N, norm2=ctx.norm2)


def invert_apply(factor, N: int, Q: np.ndarray) -> np.ndarray:
    """Image of a polynomial under the inverse of the order-N section.

    Parameters
    ----------
    factor : SpectralFactorization
    N : section order (matrix size N+1)
    Q : ascending coefficients, degree <= N

    Returns the degree-N coefficient vector of T_N^{-1}(f) Q.  Raises
    NeumannCondition unless the certified contraction condition (norm < 1)
    holds.
    """
    Q = np.asarray(Q, dtype=complex)
    if Q.size > N + 1:
        raise ValueError("polynomial degree exceeds the section order")
    ctx = _cached_context(factor, N)
    ctx.check_norm()
    return ctx.solve(Q)


def inverse_entry(factor, N: int, k: int, l: int) -> complex:
    """Single entry (k, l), 0-based, of the inverse section.

    Read from column l of the inverse, which costs O(N n).  Raises
    NeumannCondition as ``invert_apply`` does.
    """
    if not (0 <= k <= N and 0 <= l <= N):
        raise ValueError("entry indices must lie in [0, N]")
    ctx = _cached_context(factor, N)
    ctx.check_norm()
    unit = np.zeros(l + 1, dtype=complex)
    unit[l] = 1.0
    return complex(ctx.solve(unit)[k])
