"""Structured inversion of Toeplitz sections through the Hankel correction.

A factorization is read as f = s+ s- G1(chi) G2(chibar), with
G1(z) = prod (1 - w z)^s of degree n1 and G2(z) = prod (1 - q z)^t of degree
n2, every |w|, |q| < 1, and scales s+ (which carries g1's phase) and s-.
The formulas below use two power series,

    d = coefficients of 1/G1,    b = coefficients of 1/G2,

and the lower triangular Toeplitz matrices L(G1) (n1 x n1) and L(G2)
(n2 x n2) of the leading coefficients.  Only b is stored (to index N + n1);
d enters through forward recursions and the product matrix.  Repeated or
close roots are just repeated factors.

State basis.  The stable subspace E = {p(chi)/G1(chi) : deg p < n1} is the
range of the composed Hankel maps of Phi_N = chi^{N+1} s+ G1 / (s- G2).  An
element is stored as its first n1 series coefficients x (its "state"); its
numerator is p = L(G1) x, and its later coefficients follow from the
companion matrix A of G1.

Product matrix.  Every factorization here has n1 = n2 = n.  On states,
H_Phitilde H_Phi acts as the n x n matrix

    M = V(G1, G2) V(G2, G1),   V(ga, gb) = Hd(ga) L(gb),
    Hd(ga)[i, e] = (1/ga)[N+2+i+e],

for i, e < n; the scales cancel.  ``hankel_half`` builds V for a stack of
factor pairs, with the far terms of 1/ga from a power of its companion
matrix (log N squarings), so coinciding roots need no care.  The inversion
context takes both halves from one call, the determinant scan of
``spectra`` M = V V with equal factors.

Stein Gram.  The squared norm of the element with state x is x^H G x, with
G = A^H G A + e0 e0^T (``solve_discrete_lyapunov``).  ``norm2`` is the
operator norm of M in that inner product, ||R M R^{-1}||_2 for the Cholesky
factor G = R^H R; it does not depend on the basis.  The inversion formula
is certified when norm2 < 1 (the Neumann series of (I - M)^{-1} converges).

Entries.  With the state sigma_l = (d[N+1-l+i] - (V(G1, G2) r_l)_i) / s+,
r_l = (b[l+1], ..., b[l+n]), and p = L(G1) (I - M)^{-1} sigma_l,

    (T_N^{-1})[k, l] = sum_{u <= min(k, l)} b[l-u] d[k-u] / (s+ s-)
                       - (1/s-) sum_j p_j sum_{i <= k} b[N+1+j-i] d[k-i].

The first sum is the product of the triangular inverses of the two factor
sections; the second has rank at most n1.  The formula is evaluated a whole
column at a time, by linearity in l, with both triangular inverses applied
as banded recursions (``series_quotient``), at O(N (n1 + n2)) per column;
an entry is read from its column.  Where M is not small (norm2 near 1,
clustered roots) the state basis is ill-conditioned and the formula alone
can lose digits far beyond the section's own condition number.  A column
whose relative residual against the banded section of the factor product
exceeds RESIDUAL_TOL is refined, at most MAX_REFINEMENT_STEPS times, until
it does not.

Contexts hold the series and the small matrices of one (factorization, N)
pair.  A point query makes several calls with the same pair, so contexts are
cached.  The cache is keyed by the value of a
``SpectralFactorization`` (a frozen dataclass; equal factorizations share a
context) and by the identity of a ``_FactorPair``, and it holds only a few
contexts, each of O(N) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NeumannCondition, SmallSystemSingular
from .symbol_core import (SpectralFactorization, factor_poly, inverse_series,
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
class _FactorPair:
    """A factorization as (pole, multiplicity) tuples and two scales.

    Phi_N = chi^{N+1} (scale_plus * G1)/(scale_minus * G2) with
    G1 = prod (1 - w_j chi)^{s_j} and G2 = prod (1 - q_i chibar)^{t_i}.
    """

    plus: tuple
    minus: tuple
    scale_plus: complex = 1.0 + 0j
    scale_minus: complex = 1.0 + 0j


def _pair_from_factorization(factor) -> _FactorPair:
    if isinstance(factor, SpectralFactorization):
        return _FactorPair(plus=tuple(factor.g1_factors),
                           minus=tuple(factor.g2_factors),
                           scale_plus=factor.scale * factor.phase)
    if isinstance(factor, _FactorPair):
        return factor
    raise TypeError(f"unsupported factorization object {type(factor)!r}")


@dataclass(frozen=True, eq=False)
class HankelProductMatrix:
    """Matrix of the composed Hankel maps on the state basis of E."""

    entries: np.ndarray        # n1 x n1, read-only
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

    def __init__(self, pair: _FactorPair, N: int):
        self.N = N
        self.scale_plus, self.scale_minus = pair.scale_plus, pair.scale_minus
        self.g1, self.g2 = factor_poly(pair.plus), factor_poly(pair.minus)
        self.n1, self.n2 = self.g1.size - 1, self.g2.size - 1
        self.b = inverse_series(pair.minus, N + self.n1 + 1)
        self.V, V21 = hankel_half(np.stack((self.g1, self.g2)),
                                  np.stack((self.g2, self.g1)), N)
        self.M = self.V @ V21
        self.M.setflags(write=False)
        # hat(f)(-n2..n1) of the factor product, for the refinement residual
        self.fhat = pair.scale_plus * pair.scale_minus * np.convolve(
            self.g1, self.g2[::-1])

    @cached_property
    def norm2(self) -> float:
        n1 = self.n1
        if n1 == 0:
            return 0.0
        A = np.eye(n1, k=1, dtype=complex)
        A[-1] = -self.g1[:0:-1]
        e0 = np.zeros((n1, n1))
        e0[0, 0] = 1.0
        G = scipy.linalg.solve_discrete_lyapunov(A.conj().T, e0)
        R = scipy.linalg.cholesky(0.5 * (G + G.conj().T))
        return float(np.linalg.norm(R @ self.M @ np.linalg.inv(R), 2))

    @cached_property
    def lu(self):
        lu = scipy.linalg.lu_factor(np.eye(self.n1) - self.M)
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
        N, n, n1, n2 = self.N, Q.size, self.n1, self.n2
        # c[n-1+t] = sum_l Q_l b[l+t] for -n < t <= n2: 1/G2 run backwards
        c = series_quotient(self.g2, np.concatenate([Q[::-1], np.zeros(n2)]))
        x = np.zeros(N + 1, dtype=complex)
        x[:n] = c[:n][::-1] / self.scale_plus
        if n1:
            padded = np.zeros(N + 1 + n1, dtype=complex)
            padded[:n] = Q
            head = series_quotient(self.g1, padded)[N + 1:]
            sigma = (head - self.V @ c[n:]) / self.scale_plus
            y = scipy.linalg.lu_solve(self.lu, sigma)
            p = np.convolve(self.g1, y)[:n1]         # L(G1) y
            # x_i -= sum_j p_j b[N+1+j-i]
            x -= sliding_window_view(self.b[1: N + 1 + n1], n1)[::-1] @ p
        return series_quotient(self.g1, x) / self.scale_minus

    def solve(self, Q: np.ndarray) -> np.ndarray:
        """T_N^{-1} Q, refined against the banded section of the product."""
        x = self._apply(Q)
        for _ in range(MAX_REFINEMENT_STEPS):
            residual = -np.convolve(self.fhat, x)[self.n2:][: self.N + 1]
            residual[: Q.size] += Q
            scale = np.abs(self.fhat).sum() * np.abs(x).max() \
                + np.abs(Q).max(initial=0.0)
            if np.abs(residual).max() <= RESIDUAL_TOL * scale:
                break
            x = x + self._apply(residual)
        return x


@lru_cache(maxsize=8)
def _cached_context(factor, N: int) -> _InversionContext:
    return _InversionContext(_pair_from_factorization(factor), N)


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

    Read from column l of the inverse, which costs O(N (n1 + n2)).  Raises
    NeumannCondition as ``invert_apply`` does.
    """
    if not (0 <= k <= N and 0 <= l <= N):
        raise ValueError("entry indices must lie in [0, N]")
    ctx = _cached_context(factor, N)
    ctx.check_norm()
    unit = np.zeros(l + 1, dtype=complex)
    unit[l] = 1.0
    return complex(ctx.solve(unit)[k])
