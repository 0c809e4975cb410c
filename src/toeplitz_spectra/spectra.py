"""Spectra of Toeplitz sections: a banded Hermitian eigensolver, grid-form
localization of eigenvalues of even symbols, and the characteristic-
determinant pipeline that reproduces the spectrum from the circle partners
of the symbol antecedents.

An even symbol is f = p(cos theta), p = sum_j c_j T_j, and its searches
read one root stack, ``_x_roots``: the roots x of p - lambda for many
lambda, from one stack of Chebyshev colleague matrices.  The monotone
branches on [0, pi], cut where f turns at arccos of a root of p', carry all
extrema of f: localization takes antecedents from the roots of p - lambda,
the determinant scan guards the critical values, and the unique minimizer
is a branch end, 0 or pi.  Branches are not cached; each call solves one
small eigenvalue problem for them.

For real lambda, f - lambda factors over its antecedent roots x_j through
the partners omega_j (|omega_j| <= 1) with omega + 1/omega = 2 x_j.  The
composed Hankel matrix M(lambda) is the state-space product matrix of
``hankel_inversion`` with both factors equal to g = prod (1 - omega_j z),
M = V V from that module's ``hankel_half``, so repeated partners are just
repeated factors.  lambda belongs to the spectrum of the order-N section
exactly when det(I - M(lambda)) = 0: the determinant is evaluated for all
samples of a window at once, and the sign changes of its phase-normalized
real part are refined together by ``_root``, a vectorised bracketing root
finder, in about ten rounds.  A scan that finds fewer roots than the
section has eigenvalues in its window raises MissedRoots.  Grid
localization gives the eigenvalues distinct slots (branch, k) next to
their antecedents, at least total squared grid distance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from .errors import (
    EigenFailure,
    ExcludedLambda,
    FlatSymbol,
    LocalizationFailure,
    MissedRoots,
    NonFiniteMatrix,
    NonUniqueMinimum,
    NotHermitian,
)
from .hankel_inversion import hankel_half
from .symbol_core import TrigSymbol, factor_poly
from .toeplitz_core import DenseMatrix, build

log = logging.getLogger("toeplitz_spectra")

CRIT_TOL = 1e-6
RESID_TOL = 1e-6
# a root scan need not find eigenvalues this close to its window's edges
ROOT_MARGIN = 1e-5
ROOT_STEPS = 100
WEYL_TEST_FUNCTIONS = (lambda x: x, lambda x: x ** 2, lambda x: x ** 3,
                       lambda x: x ** 4, np.abs, np.exp)


# ---------------------------------------------------------------------------
# banded Hermitian eigensolver and the two root finders
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    eigenvalues: np.ndarray            # ascending

    @property
    def n(self) -> int:
        return self.eigenvalues.size


def hermitian_eigen(M: DenseMatrix) -> EigenDecomposition:
    """Eigenvalues (ascending) of a Hermitian matrix, solved on its band.

    The bandwidth w is read from the nonzeros of both triangles, the
    diagonals -w..w are packed, and the lower band goes to LAPACK's banded
    solver (real when every imaginary part is zero), at cost O(n^2 w); a
    full matrix is the case w = n - 1.  Raises NotHermitian for a
    non-square input or when max|M - M^H| exceeds 1e-12 max(1, max|M|)
    (outside the band both vanish, so the band holds the whole
    difference), and NonFiniteMatrix for NaN or infinite entries.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotHermitian(f"matrix of shape {M.shape} is not square",
                           shape=M.shape)
    bad = int(np.count_nonzero(~np.isfinite(M)))
    if bad:
        raise NonFiniteMatrix(f"matrix has {bad} non-finite entries",
                              count=bad)
    n = M.shape[0]
    # the first and last nonzero column of each row; argmax gives 0 on a
    # zero row, which the mask drops
    nz, i = M != 0, np.arange(n)
    first = nz.argmax(axis=1) if n else i
    last = n - 1 - nz[:, ::-1].argmax(axis=1) if n else i
    w = int(np.max(np.maximum(i - first, last - i)[nz[i, first]], initial=0))
    # lower[k, j] = M[j + k, j] and upper[k, j] = M[j, j + k], zero-padded
    k = np.arange(w + 1)[:, None]
    j = np.arange(n)
    inside = j + k < n
    r = np.minimum(j + k, n - 1)
    lower = np.where(inside, M[r, j], 0.0)
    upper = np.where(inside, M[j, r], 0.0)
    scale = float(np.max(np.abs(np.stack((lower, upper))), initial=1.0))
    asym = float(np.max(np.abs(lower - upper.conj()), initial=0.0))
    if asym > 1e-12 * scale:
        raise NotHermitian(
            f"matrix is not Hermitian within 1e-12: max|M - M^H| = "
            f"{asym:.3e} at scale {scale:.3e}", asymmetry=asym)
    if not lower.imag.any():
        lower = lower.real
    try:
        lam = scipy.linalg.eigvals_banded(lower, lower=True,
                                          check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    return EigenDecomposition(eigenvalues=lam)


def _root(g: Callable[[np.ndarray], np.ndarray], lo, hi, g_lo, g_hi
          ) -> np.ndarray:
    """The det scan's refiner: roots of a real ``g`` in brackets [lo, hi].

    ``g`` maps an array of points, one per bracket, to the function values;
    ``g_lo`` and ``g_hi`` are its values at the ends, of opposite signs or
    zero.  Chandrupatla's method (Adv. Eng. Software 28, 1997): each step
    takes the inverse quadratic through the last three points where it
    stays inside the bracket, else the midpoint, and keeps the half with the
    sign change.  A bracket stops when it is within 4 eps max(|x|, 1) or g
    is exactly 0 at an end, all of them after ROOT_STEPS evaluations.
    Returns, per bracket, the end where |g| is smaller.
    """
    x1, x2 = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f1, f2 = np.array(g_lo, dtype=float), np.array(g_hi, dtype=float)
    x3, f3, t, evals = x2, f2, 0.5, 0
    while True:
        near = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(near, x1, x2), np.where(near, f1, f2)
        tol = 4 * np.finfo(float).eps * np.maximum(np.abs(xm), 1.0)
        dx = np.abs(x2 - x1)
        live = (fm != 0) & (dx > tol)
        if not live.any() or evals == ROOT_STEPS:
            break
        if evals:
            with np.errstate(divide="ignore", invalid="ignore"):
                xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
                iqi = (f1 / (f1 - f2) * f3 / (f3 - f2) - (x3 - x1) / (x2 - x1)
                       * f1 / (f3 - f1) * f2 / (f2 - f3))
            t = np.where((phi ** 2 < xi) & ((1 - phi) ** 2 < 1 - xi), iqi, 0.5)
            # a step of at least tol/2, and t = 1/2 where a bracket is done
            tl = 0.5 * tol / np.maximum(dx, tol)
            t = np.clip(t, tl, 1 - tl)
        xt = np.where(live, x1 + t * (x2 - x1), x1)
        ft = g(xt)
        evals += 1
        # x3 takes the end that xt replaces
        same = live & (np.sign(ft) == np.sign(f1))
        flip = live & ~same
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(flip, x1, x2), np.where(flip, f1, f2)
        x1, f1 = np.where(live, xt, x1), np.where(live, ft, f1)
    log.debug("root: %d brackets, %d evaluations, largest final |g| %.3e",
              xm.size, evals, float(np.max(np.abs(fm), initial=0.0)))
    return xm


def _x_roots(c: np.ndarray, lams) -> np.ndarray:
    """The (S, d) roots x of sum_j c[j] T_j(x) - lam for S values ``lams``,
    d >= 1: eigenvalues of a stack of colleague matrices (Good 1961), stable
    at degrees where the power basis is not.  lam changes one entry, by c[0].
    """
    lams = np.asarray(lams, dtype=float)
    d = c.size - 1
    A = np.repeat(np.polynomial.chebyshev.chebcompanion(c)[None],
                  lams.size, axis=0)
    A[:, 0, d - 1] += lams * (np.sqrt(0.5) if d > 1 else 1.0) / c[-1]
    return np.linalg.eigvals(A)


# ---------------------------------------------------------------------------
# monotone branches and grid localization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridLocation:
    """Grid assignment theta* ~ k pi/(N+2) + theta_shift pi/N of an eigenvalue.

    The asserted localization bound |theta_shift| < 1 is validated by the
    callers, not enforced here.
    """

    k: int
    theta_shift: float
    theta_star: float
    branch: int
    eigenvalue: float


def monotone_branches(sym: TrigSymbol) -> tuple:
    """Maximal monotone pieces (a, b, f(a), f(b)) of an even symbol on [0, pi].

    The candidate cuts are arccos of the real parts in (-1, 1) of the roots
    of p', f = p(cos theta).  One is kept where f turns: where the changes
    of f before and after it, ignoring those within 1e-12 of its range,
    have opposite signs.  A root of p' of even multiplicity, which rounding
    splits into close roots or a complex pair, is then no cut.
    """
    dp = np.polynomial.chebyshev.chebder(sym.cosine_coeffs())
    x = _x_roots(dp, [0.0])[0].real if dp.size > 1 else np.empty(0)
    theta = np.r_[0.0, np.sort(np.arccos(x[np.abs(x) < 1.0])), np.pi]
    vals = sym(theta)
    step = np.diff(vals)
    sign = np.sign(step) * (np.abs(step) > 1e-12 * np.ptp(vals))
    moves = np.flatnonzero(sign)
    turns = moves[1:][sign[moves[1:]] != sign[moves[:-1]]]
    ends = np.r_[0, turns, theta.size - 1]
    t, v = theta[ends].tolist(), vals[ends].tolist()
    return tuple(zip(t[:-1], t[1:], v[:-1], v[1:]))


def grid_localize(sym: TrigSymbol, N: int, eig: EigenDecomposition
                  ) -> list[GridLocation]:
    """Assign each eigenvalue a grid point k pi/(N+2) through an antecedent.

    On each monotone branch whose range holds lambda, the antecedent is the
    root of p - lambda (``_x_roots``) nearest the branch's x-interval,
    clipped into it; a near-double root that comes out as a complex pair
    lands on the shared cut.  ``_slot_assignment`` picks the slots (branch,
    k).  Raises LocalizationFailure for a symbol that is not even and when
    some eigenvalue gets no slot, and its subclass FlatSymbol up front when
    the symbol's range is within the rounding (N + 1) eps max|f| of the
    section's eigenvalues: there every antecedent is an artefact of rounding.
    """
    if not sym.parity:
        raise LocalizationFailure(
            f"grid localization needs an even symbol: parity {sym.parity}")
    lams = eig.eigenvalues
    if sym.degree == 0:
        # every eigenvalue equals the constant; grid position is conventional
        return [GridLocation(k=min(j, N + 1), theta_shift=0.0, theta_star=0.0,
                             branch=0, eigenvalue=float(l))
                for j, l in enumerate(lams)]
    a, b, fa, fb = np.array(monotone_branches(sym)).T
    lo, hi = np.minimum(fa, fb), np.maximum(fa, fb)
    fmin, fmax = lo.min(), hi.max()
    span = fmax - fmin
    rounding = (N + 1) * np.finfo(float).eps * max(abs(fmin), abs(fmax))
    if span <= rounding:
        raise FlatSymbol(
            f"symbol range {span:.3e} is within the eigenvalue rounding "
            f"{rounding:.3e} of the order-{N} section", span=span,
            rounding=rounding)
    grid_step = np.pi / (N + 2)
    lam_c = np.clip(lams, fmin, fmax)
    outside = np.flatnonzero(np.abs(lam_c - lams) > 1e-9 * span)
    if outside.size:
        raise LocalizationFailure(
            f"eigenvalue {lams[outside[0]]} outside the symbol range "
            f"[{fmin}, {fmax}]")
    # theta[j, b]: antecedent of eigenvalue j on branch b (NaN: none there)
    x = _x_roots(sym.cosine_coeffs(), lam_c)[:, None, :]
    near = np.clip(x.real, np.cos(b)[:, None], np.cos(a)[:, None])
    pick = np.argmin(np.abs(x - near), axis=2)[..., None]
    on = ((lam_c[:, None] >= lo - 1e-12 * span)
          & (lam_c[:, None] <= hi + 1e-12 * span))
    theta = np.where(on, np.arccos(np.take_along_axis(near, pick, 2)[..., 0]),
                     np.nan)
    branch, k = _slot_assignment(theta, N)
    theta_star = theta[np.arange(lams.size), branch]
    shift = (theta_star - k * grid_step) * N / np.pi
    return [GridLocation(k=int(kj), theta_shift=float(sj), theta_star=float(tj),
                         branch=int(bj), eigenvalue=float(lj))
            for kj, sj, tj, bj, lj in zip(k, shift, theta_star, branch, lams)]


def _slot_assignment(theta: np.ndarray, N: int) -> tuple:
    """Injective slots (branch, k) of least total squared grid distance.

    ``theta[j, b]``, the antecedent of eigenvalue j on branch b (NaN: none),
    offers the three grid points around it; raises LocalizationFailure
    when no assignment covers every eigenvalue."""
    n_eig = theta.shape[0]
    grid_step = np.pi / (N + 2)
    J, B = np.nonzero(~np.isnan(theta))
    k0 = np.rint(theta[J, B] / grid_step).astype(int)
    J, B = np.repeat(J, 3), np.repeat(B, 3)
    K = (k0[:, None] + np.arange(-1, 2)).ravel()
    keep = (K >= 0) & (K <= N + 1)
    J, B, K = J[keep], B[keep], K[keep]
    cost = ((theta[J, B] - K * grid_step) / grid_step) ** 2
    slot = B * (N + 2) + K
    # each eigenvalue's cheapest slot: if they are distinct, they reach the
    # sum of the row minima; else a dense assignment over the candidates
    order = np.lexsort((cost, J))
    best = slot[order][np.r_[True, np.diff(J[order]) > 0]]
    if np.unique(best).size == n_eig:
        return np.divmod(best, N + 2)
    # rows in golden-ratio order: in lambda order each row displaces the run
    # below it, and augmenting paths grow long (20x slower at N = 4096)
    rows = np.argsort(np.arange(n_eig) * 0.6180339887498949 % 1.0)
    slots, col = np.unique(slot, return_inverse=True)
    dense = np.full((n_eig, max(slots.size, n_eig)), np.inf)
    dense[np.argsort(rows)[J], col] = cost
    try:
        _, picked = linear_sum_assignment(dense)
    except ValueError:
        raise LocalizationFailure(
            f"no injective grid assignment for the {n_eig} eigenvalues "
            f"(slot exhaustion)") from None
    best[rows] = slots[picked]
    return np.divmod(best, N + 2)


# ---------------------------------------------------------------------------
# characteristic matrix and determinant equation
# ---------------------------------------------------------------------------

def _antecedent_partners(c: np.ndarray, lams) -> np.ndarray:
    """Partners omega (|omega| <= 1) of the roots of p(x) - lam, x = cos.

    ``c`` holds the cosine coefficients of f = p(cos theta).  For S values
    ``lams`` returns the (S, d) partners of the roots (``_x_roots``), with
    omega + 1/omega = 2 x; a root in (-1, 1) gets the unimodular partner
    e^{-i theta}, x = cos(theta).
    """
    x = _x_roots(c, lams).astype(complex)
    real_in = (np.abs(x.imag) < 1e-11) & (np.abs(x.real) <= 1.0 - 1e-11)
    x = np.where(real_in, x.real + 0j, x)       # on the cut from above
    # the branch of x - sqrt(x^2 - 1) cut along [-1, 1] maps into the disk;
    # it equals 1 / (x + sqrt(x^2 - 1)), which does not cancel at large |x|
    return 1.0 / (x + np.sqrt(x - 1.0) * np.sqrt(x + 1.0))


def characteristic_matrix(omegas: np.ndarray, N: int) -> np.ndarray:
    """M of ``hankel_inversion`` with G1 = G2 = g = prod_j (1 - omega_j z).

    ``omegas`` is (S, r) and M (S, r, r) = V V, with V = ``hankel_half``
    (g, g, N); coinciding partners are repeated factors of g.
    """
    g = factor_poly(omegas)
    V = hankel_half(g, g, N)
    return V @ V


@dataclass(frozen=True)
class DetRootsResult:
    roots: tuple
    excluded: tuple           # (lo, hi) guard windows around critical values


def _det_normalized(c: np.ndarray, lams: np.ndarray, N: int):
    """Phase-normalized det(I - M(lambda)), the determinant, and the count of
    unimodular partners, per lambda; each unimodular partner omega puts
    omega^{-(N+2)}/i into the normalization.  Finite for every lambda."""
    om = _antecedent_partners(c, lams)
    D = np.linalg.det(np.eye(om.shape[1]) - characteristic_matrix(om, N))
    uni = np.abs(np.abs(om) - 1.0) < 1e-9
    n_uni = uni.sum(axis=1)
    phase = np.prod(np.where(uni, (om / np.abs(om)) ** (-(N + 2)), 1.0),
                    axis=1)
    return D * phase / 1j ** n_uni, D, n_uni


def det_equation_roots(sym: TrigSymbol, N: int,
                       lambda_window: tuple[float, float],
                       n_samples: int = 2000) -> DetRootsResult:
    """All roots of det(I - M(lambda)) = 0 in a window of spectral parameters.

    The window is sampled and the determinant evaluated at all samples in
    one batch, the antecedent roots of every sample coming from one
    ``_x_roots`` stack.  Guard bands of width CRIT_TOL around critical
    values of the symbol are skipped (reported in the result), and the
    roots of the phase-normalized real part are refined from all of its
    sign changes together.  A determinant-residual test rejects the refined
    points where that real part jumps or crosses zero away from a root, and
    the normalized imaginary part at a root is asserted below 1e-8.  The root count is certified against the
    eigenvalues of the order-N section that lie inside the window by more
    than 1e-5 and outside every guard window widened by one sample step:
    fewer roots than those raise MissedRoots (a sign scan cannot see two
    roots in one sample interval, nor a root where the normalized
    determinant is nearly imaginary).
    """
    if not sym.parity or sym.degree == 0:
        raise ValueError(
            "the characteristic pipeline needs a non-constant even symbol")
    if n_samples < 2:
        raise ValueError("a determinant scan needs at least two samples")
    lo, hi = lambda_window
    c = sym.cosine_coeffs()
    lams = np.linspace(lo, hi, n_samples)
    # critical values: f at the ends of the monotone branches
    crit = np.array([v for *_, fa, fb in monotone_branches(sym)
                     for v in (fa, fb)])
    guard = np.any(np.abs(lams[:, None] - crit) < CRIT_TOL, axis=1)
    ok = ~guard
    Dn = np.full(n_samples, np.nan, dtype=complex)
    n_uni = np.zeros(n_samples, dtype=int)
    Dn[ok], _, n_uni[ok] = _det_normalized(c, lams[ok], N)
    scale = float(np.max(np.abs(Dn[ok]))) if ok.any() else 1.0
    re = Dn.real
    ra = np.where(re[:-1] == 0.0, 1e-300, re[:-1])
    brackets = np.flatnonzero(ok[:-1] & ok[1:] & (n_uni[:-1] == n_uni[1:])
                              & (ra * re[1:] < 0))
    mids = _root(lambda m: _det_normalized(c, m, N)[0].real,
                 lams[brackets], lams[brackets + 1], re[brackets],
                 re[brackets + 1])
    Dn_mids, D_mids, _ = _det_normalized(c, mids, N)
    roots = []
    for lam_root, Dn_r, D_r in zip(mids.tolist(), Dn_mids, D_mids):
        if abs(D_r) > RESID_TOL * scale:
            log.debug("rejecting pseudo-crossing at lambda=%.8f |D|=%.2e",
                      lam_root, abs(D_r))
            continue
        if abs(Dn_r.imag) > 1e-8 * max(1.0, scale):
            raise ExcludedLambda(
                f"normalized determinant not real at root {lam_root}: "
                f"imag {Dn_r.imag:.2e}")
        if not roots or abs(lam_root - roots[-1]) > 1e-9 * max(1.0, abs(hi)):
            roots.append(lam_root)
    excl_windows = []
    for lam in lams[guard].tolist():
        if excl_windows and lam - excl_windows[-1][1] < 2 * (hi - lo) / n_samples:
            excl_windows[-1] = (excl_windows[-1][0], lam)
        else:
            excl_windows.append((lam, lam))
    eig = hermitian_eigen(build(sym, N).dense()).eigenvalues
    step = (hi - lo) / (n_samples - 1)
    want = (eig > lo + ROOT_MARGIN) & (eig < hi - ROOT_MARGIN)
    for a, b in excl_windows:
        want &= (eig < a - step) | (eig > b + step)
    expected = int(np.count_nonzero(want))
    if len(roots) < expected:
        raise MissedRoots(
            f"{len(roots)} determinant roots for {expected} eigenvalues of "
            f"the order-{N} section in the window ({lo}, {hi})",
            expected=expected, found=len(roots))
    return DetRootsResult(roots=tuple(roots), excluded=tuple(excl_windows))


# ---------------------------------------------------------------------------
# Weyl-gap diagnostics
# ---------------------------------------------------------------------------

def weyl_gap(sym: TrigSymbol, N: int) -> float:
    """Max averaged test-function gap between the spectrum and symbol samples.

    Compares the N smallest eigenvalues of the order-N section against the
    symbol on the uniform grid -pi + 2 pi j/(N+1), j = 1..N (both families
    have N members); returns the worst |mean difference| over
    WEYL_TEST_FUNCTIONS.
    """
    eig = hermitian_eigen(build(sym, N).dense())
    lams = eig.eigenvalues[:N]
    theta = -np.pi + 2.0 * np.pi * np.arange(1, N + 1) / (N + 1)
    samples = sym(theta)
    worst = 0.0
    for h in WEYL_TEST_FUNCTIONS:
        gap = abs(np.sum(h(lams)) - np.sum(h(samples))) / N
        worst = max(worst, float(gap))
    return worst


# ---------------------------------------------------------------------------
# minimum-eigenvalue reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinEigenReport:
    lambda_min: float
    location: GridLocation
    theta0: float
    f_theta0: float


def _unique_minimizer(sym: TrigSymbol) -> float:
    """The unique minimizer theta0 of an even symbol: 0 or pi (0 if constant).

    An interior minimizer comes with its mirror 2 pi - theta0, so it is
    never unique.  Raises NonUniqueMinimum when the least branch end value
    is attained, within 1e-10 of the range, at an interior cut or at both
    0 and pi, and ValueError for a symbol that is not even.
    """
    if not sym.parity:
        raise ValueError("the minimizer needs an even symbol")
    if sym.degree == 0:
        return 0.0
    branches = monotone_branches(sym)
    ends = [branches[0][0], *(b for _, b, _, _ in branches)]
    vals = np.array([branches[0][2], *(fb for *_, fb in branches)])
    low = np.flatnonzero(vals <= vals.min() + 1e-10 * np.ptp(vals))
    if low.size != 1 or 0 < low[0] < len(branches):
        raise NonUniqueMinimum(
            f"minimum attained at theta = {[ends[i] for i in low]}")
    return ends[low[0]]


def min_eigen_report(sym: TrigSymbol, N: int) -> MinEigenReport:
    """Smallest eigenvalue, its grid location, and the symbol minimizer."""
    theta0 = _unique_minimizer(sym)
    eig = hermitian_eigen(build(sym, N).dense())
    loc = grid_localize(sym, N, eig)[0]
    return MinEigenReport(lambda_min=float(eig.eigenvalues[0]), location=loc,
                          theta0=float(theta0), f_theta0=float(sym(theta0)))


def min_eigen_sweep(sym: TrigSymbol, N_list: Sequence[int]):
    """Reports over an order sweep plus the grid-point distances to theta0.

    The second element gives |k pi/(N+2) - theta0| per order; under the
    localization theorem it trends to zero as N grows.
    """
    reports = [min_eigen_report(sym, int(N)) for N in N_list]
    dists = []
    for rep, N in zip(reports, N_list):
        grid_theta = rep.location.k * np.pi / (N + 2)
        t0 = rep.theta0
        dist = min(abs(grid_theta - t0), abs(grid_theta - (2 * np.pi - t0)))
        dists.append(float(dist))
    return reports, dists
