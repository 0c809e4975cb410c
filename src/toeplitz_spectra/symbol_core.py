"""Symbols on the torus: Fourier data, root splits and spectral factorization.

A symbol is a real-valued function on the unit circle given by finitely many
Fourier coefficients.  This module turns a symbol into its root data on the
z-plane and from there into the multiplicative split

    f(chi) = C * g1(chi) * g2(chi),    chi = e^{i theta},

where g1 is a product of factors (1 - w chi) with |w| < 1 (so g1 and 1/g1 are
analytic in the disk) and g2 the mirrored product in chibar.  For a real
symbol the two factors are conjugate coefficient by coefficient, so one
polynomial carries both: ``SpectralFactorization.g``, the coefficients of g2
in chibar, with those of g1 / phase its conjugates.  It is the one thing the
inversion and predictor layers take from the factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.linalg.blas
from scipy.optimize import linear_sum_assignment

from .errors import (
    AliasingRisk,
    DegeneratePoles,
    RootFindFailure,
    UnbalancedWinding,
    UnitModulusRoot,
)

UNIT_CIRCLE_TOL = 1e-8
CLUSTER_TOL = 1e-6
RECON_TOL = 1e-9
PF_TOL = 1e-10
ABERTH_MAX_ITER = 160
ABERTH_TOL = 1e-13
CEPSTRAL_GRID = 2048


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TrigSymbol:
    """Real symbol theta -> sum_{|j| <= d} coeffs[j] e^{i j theta}.

    ``coeffs`` stores hat(f)(-d..d) in ascending index order, so
    ``coeffs[d + j]`` is the j-th Fourier coefficient c_j.  Construction
    enforces Hermitian symmetry (real symbol): f = c_0 + 2 Re sum_{j>=1} c_j
    z^j at z = e^{i theta}, evaluated by Horner in z, as is f'.  ``parity``
    marks even symbols, whose coefficients are real and symmetric; it is
    measured from the coefficients, not passed in.
    """

    coeffs: np.ndarray
    parity: bool = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 != 1:
            raise ValueError("coefficient array must be 1-D of odd length")
        d = c.size // 2
        bad = np.flatnonzero(~np.isfinite(c))
        if bad.size:
            raise ValueError(
                f"non-finite symbol coefficients: hat(f)(j) = "
                f"{c[bad].tolist()} at j = {(bad - d).tolist()}")
        herm = 0.5 * (c + np.conj(c[::-1]))
        if np.max(np.abs(c - herm)) > 1e-8 * max(1.0, np.max(np.abs(c))):
            raise ValueError("coefficients are not Hermitian-symmetric")
        # trim zero outer coefficients so degree is the true degree
        while d > 0 and abs(herm[0]) == 0 and abs(herm[-1]) == 0:
            herm = herm[1:-1]
            d -= 1
        even = bool(
            np.max(np.abs(herm.imag)) <= 1e-12 * max(1.0, np.max(np.abs(herm)))
            and np.max(np.abs(herm - herm[::-1]))
            <= 1e-12 * max(1.0, np.max(np.abs(herm))))
        herm = np.array(herm)
        herm.setflags(write=False)
        object.__setattr__(self, "coeffs", herm)
        object.__setattr__(self, "parity", even)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_cosine(cls, cosine: Sequence[float]) -> "TrigSymbol":
        """Even symbol sum_j cosine[j] * cos(j theta)."""
        cosine = np.asarray(cosine, dtype=float)
        half = cosine[1:] / 2.0
        return cls(np.concatenate([half[::-1], cosine[:1], half]
                                  ).astype(complex))

    @classmethod
    def constant(cls, value: float) -> "TrigSymbol":
        return cls(np.array([value], dtype=complex))

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.coeffs.size // 2

    def coeff(self, j: int) -> complex:
        """hat(f)(j), zero beyond the stored degree."""
        d = self.degree
        if abs(j) > d:
            return 0j
        return complex(self.coeffs[d + j])

    def padded(self, upto: int) -> np.ndarray:
        """Coefficients -upto..upto, zero padded."""
        d = self.degree
        if upto < d:
            raise ValueError("padded() cannot truncate")
        out = np.zeros(2 * upto + 1, dtype=complex)
        out[upto - d: upto + d + 1] = self.coeffs
        return out

    def __call__(self, theta) -> np.ndarray:
        d = self.degree
        return self.coeffs[d].real + _horner(self.coeffs[d + 1:], theta)

    def derivative(self, theta) -> np.ndarray:
        d = self.degree
        return _horner(1j * np.arange(1, d + 1) * self.coeffs[d + 1:], theta)

    def cosine_coeffs(self) -> np.ndarray:
        """Coefficients c_j with f = sum c_j cos(j theta); requires parity."""
        if not self.parity:
            raise ValueError("cosine_coeffs() needs an even symbol")
        d = self.degree
        out = np.empty(d + 1)
        out[0] = self.coeffs[d].real
        out[1:] = 2.0 * self.coeffs[d + 1:].real
        return out


def _horner(a: np.ndarray, theta) -> np.ndarray:
    """2 Re sum_{j >= 1} a[j-1] z^j at z = e^{i theta}, by Horner in z."""
    z = np.exp(1j * np.asarray(theta, dtype=float))
    acc = np.zeros_like(z)
    for c in a[::-1]:
        acc += c
        acc *= z
    return 2.0 * acc.real


def fourier_coeffs(f: Callable[[np.ndarray], np.ndarray], d: int,
                   grid_size: int) -> np.ndarray:
    """Trapezoidal Fourier coefficients hat(f)(-d..d) of a circle function.

    Parameters
    ----------
    f : callable
        Real-valued on theta in [0, 2pi).
    d : int
        Highest coefficient order wanted.
    grid_size : int
        Number of equispaced samples; must be a power of two and at least
        ``8 * d`` (raises AliasingRisk otherwise).

    Returns
    -------
    ndarray of length 2d + 1 with Hermitian symmetry enforced by averaging
    hat(j) against conj(hat(-j)).
    """
    if grid_size < max(8 * d, 2) or grid_size & (grid_size - 1) != 0:
        raise AliasingRisk(
            f"grid_size={grid_size} too small or not a power of two for d={d}")
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    vals = np.asarray(f(theta), dtype=complex)
    spec = np.fft.fft(vals) / grid_size
    out = spec[np.arange(-d, d + 1) % grid_size]
    return 0.5 * (out + np.conj(out[::-1]))


# ---------------------------------------------------------------------------
# symbol literals (CLI / config format)
# ---------------------------------------------------------------------------

def symbol_from_spec(spec: dict) -> TrigSymbol:
    """Build a TrigSymbol from its JSON-object literal form.

    Two forms are accepted::

        {"coeffs": [[re, im], ...], "offset": -d}
        {"cosine": [c0, c1, ...]}
    """
    if not isinstance(spec, dict):
        raise ValueError("symbol literal must be a JSON object")
    if "cosine" in spec:
        vals = spec["cosine"]
        if not isinstance(vals, list) or not vals:
            raise ValueError('"cosine" must be a non-empty list of numbers')
        return TrigSymbol.from_cosine(_entries("cosine", vals, float))
    if "coeffs" in spec:
        pairs = spec["coeffs"]
        n = len(pairs) if isinstance(pairs, list) else 0
        if n % 2 != 1 or spec.get("offset", -(n // 2)) != -(n // 2):
            raise ValueError('"coeffs" must be an odd-length list, offset -d')
        return TrigSymbol(np.array(
            _entries("coeffs", pairs, lambda p: complex(p[0], p[1]))))
    raise ValueError('symbol literal needs a "cosine" or "coeffs" key')


def _entries(key: str, vals: list, convert: Callable) -> list:
    """``convert`` of each entry, ValueError naming the first bad index."""
    out = []
    for j, v in enumerate(vals):
        try:
            out.append(convert(v))
        except (TypeError, ValueError, LookupError) as exc:
            raise ValueError(f'"{key}"[{j}] is malformed: {v!r}') from exc
    return out


# ---------------------------------------------------------------------------
# Laurent polynomial roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootSet:
    """Roots of K split by position relative to the unit circle."""

    inside: tuple            # ((root, multiplicity), ...)
    outside: tuple

    @property
    def n_inside(self) -> int:
        return sum(m for _, m in self.inside)

    @property
    def n_outside(self) -> int:
        return sum(m for _, m in self.outside)

    @property
    def balanced(self) -> bool:
        return self.n_inside == self.n_outside


def _poly_derivative(c: np.ndarray) -> np.ndarray:
    n = c.size - 1
    return c[1:] * np.arange(1, n + 1)


def aberth_roots(coeffs: Sequence[complex], *, seed: int = 0) -> np.ndarray:
    """All complex roots of a polynomial by simultaneous (Aberth) iteration.

    ``coeffs`` are ascending.  Deterministic for a fixed seed: the starting
    circle gets a tiny seeded jitter so symmetric configurations cannot lock
    the iteration.  The package's roots are companion eigenvalues; this stays
    as the tests' independent oracle, and the benchmark counts its calls.
    """
    c = np.asarray(coeffs, dtype=complex)
    while c.size > 1 and c[-1] == 0:
        c = c[:-1]
    n = c.size - 1
    if n < 1:
        return np.empty(0, dtype=complex)
    # strip exact zero roots
    nzero = 0
    while c[0] == 0:
        c = c[1:]
        nzero += 1
    n_eff = c.size - 1
    if n_eff == 0:
        return np.zeros(nzero, dtype=complex)
    dc = _poly_derivative(c)
    rng = np.random.default_rng(seed)
    radius = max(abs(c[0] / c[-1]) ** (1.0 / n_eff), 1e-3)
    angles = 2.0 * np.pi * (np.arange(n_eff) + 0.5) / n_eff + 0.35
    z = radius * np.exp(1j * angles) * (1.0 + 1e-3 * rng.standard_normal(n_eff))
    ok = False
    for _ in range(ABERTH_MAX_ITER):
        p = np.polynomial.polynomial.polyval(z, c)
        dp = np.polynomial.polynomial.polyval(z, dc)
        dp = np.where(dp == 0, 1e-300, dp)
        w = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        s = np.sum(1.0 / diff, axis=1) - 1.0 / 1.0  # remove the diagonal 1/1 term
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        delta = w / denom
        z = z - delta
        if not np.all(np.isfinite(z)):
            raise RootFindFailure("iteration produced non-finite root estimates")
        if np.max(np.abs(delta)) <= ABERTH_TOL * max(1.0, np.max(np.abs(z))):
            ok = True
            break
    if not ok:
        # multiple roots stall around sqrt(eps), so only a gross residual is
        # fatal here
        p = np.polynomial.polynomial.polyval(z, c)
        scale = np.sum(np.abs(c)) * np.maximum(1.0, np.abs(z)) ** n_eff
        if np.max(np.abs(p) / scale) > 1e-6:
            raise RootFindFailure("simultaneous iteration did not converge")
    if nzero:
        z = np.concatenate([np.zeros(nzero, dtype=complex), z])
    return z


def _cluster(roots: np.ndarray, cluster_tol: float):
    """Greedy linkage of root estimates within cluster_tol."""
    remaining = list(roots)
    clusters = []
    while remaining:
        group = [remaining.pop(0)]
        changed = True
        while changed:
            changed = False
            for r in remaining[:]:
                if any(abs(r - g) <= cluster_tol for g in group):
                    group.append(r)
                    remaining.remove(r)
                    changed = True
        clusters.append(group)
    return [(sum(g) / len(g), len(g)) for g in clusters]


def laurent_roots(coeffs: np.ndarray) -> RootSet:
    """Root set of K(z) = sum_n coeffs[n] z^n with multiplicities.

    ``coeffs`` are ascending, as in ``TrigSymbol.coeffs``.  The roots are
    companion eigenvalues (``np.roots``), the exact roots of a polynomial
    within rounding of K (Edelman & Murakami 1995), so factor products built
    from them reconstruct the symbol even where single roots are
    ill-conditioned.  A symbol's K is Hermitian, with roots in pairs a and
    1/conj(a), so each inside root is averaged with the mirror of its
    nearest outside partner.  Estimates within CLUSTER_TOL then merge into
    their mean, with the cluster size as multiplicity.  Only when all roots
    are simple and 0.05 apart does each get one Newton step on K; where
    roots crowd, the rounding of the step exceeds the eigenvalue's error and
    the set no longer reconstructs the symbol.  A root within
    UNIT_CIRCLE_TOL of the unit circle raises UnitModulusRoot.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.size - 1 < 1:
        raise ValueError("laurent_roots needs degree >= 1")
    z = np.roots(c[::-1])
    in_disk = abs(z) < 1.0
    if np.array_equal(c, np.conj(c[::-1])) and 2 * in_disk.sum() == z.size:
        a, b = z[in_disk], 1.0 / np.conj(z[~in_disk])
        rows, cols = linear_sum_assignment(abs(a[:, None] - b[None, :]))
        z = (a[rows] + b[cols]) / 2.0
        z = np.concatenate([z, 1.0 / np.conj(z)])
    z, m = map(np.array, zip(*_cluster(z, CLUSTER_TOL)))
    P = np.polynomial.polynomial
    gaps = np.abs(np.subtract.outer(z, z))[~np.eye(z.size, dtype=bool)]
    if np.all(m == 1) and gaps.min(initial=np.inf) > 0.05:
        z = z - P.polyval(z, c) / P.polyval(z, _poly_derivative(c))
    resid = abs(P.polyval(z, c)) / (
        np.sum(np.abs(c)) * np.maximum(1.0, np.abs(z)) ** (c.size - 1))
    inside, outside = [], []
    for zi, mi, ri in zip(z, m, resid):
        if abs(abs(zi) - 1.0) < UNIT_CIRCLE_TOL:
            raise UnitModulusRoot(
                f"root {zi} has modulus within {UNIT_CIRCLE_TOL} of 1")
        if not ri <= 1e-7:  # also a NaN from a Newton step
            raise RootFindFailure(f"residual {ri:.2e} too large at root {zi}")
        (inside if abs(zi) < 1.0 else outside).append((complex(zi), int(mi)))
    inside.sort(key=lambda rm: (abs(rm[0]), rm[0].real, rm[0].imag))
    outside.sort(key=lambda rm: (abs(rm[0]), rm[0].real, rm[0].imag))
    return RootSet(tuple(inside), tuple(outside))


# ---------------------------------------------------------------------------
# partial fractions with repeated poles
# ---------------------------------------------------------------------------

def partial_fractions(poles: Sequence[tuple[complex, int]]):
    """Expand 1 / prod_j (1 - w_j z)^{m_j} into sum_{j,h} c_{j,h}/(1 - w_j z)^h.

    Coefficients come from derivative (residue) formulas at each pole order.
    The expansion is verified to PF_TOL at 16 deterministic points on
    |z| = 0.99.

    Returns a list of (pole, order, coefficient) triples.
    """
    poles = [(complex(w), int(m)) for w, m in poles]
    for w, m in poles:
        if w == 0:
            raise DegeneratePoles("zero pole in partial fractions")
        if m < 1:
            raise ValueError("pole order must be positive")
    for a in range(len(poles)):
        for b in range(a + 1, len(poles)):
            if abs(poles[a][0] - poles[b][0]) <= 1e-12 * max(
                    1.0, abs(poles[a][0])):
                raise DegeneratePoles(
                    f"coincident poles {poles[a][0]} and {poles[b][0]}")
    out = []
    for j, (wj, mj) in enumerate(poles):
        z0 = 1.0 / wj
        others = [(wn, mn) for n, (wn, mn) in enumerate(poles) if n != j]
        g0 = 1.0 + 0j
        for wn, mn in others:
            g0 *= (1.0 - wn * z0) ** (-mn)
        # Taylor data of G_j around z0 via the log-derivative recurrence
        G = [g0]
        L = []
        for k in range(mj - 1):
            lk = sum(mn * math.factorial(k) * wn ** (k + 1)
                     / (1.0 - wn * z0) ** (k + 1) for wn, mn in others)
            L.append(lk)
        for t in range(1, mj):
            G.append(sum(math.comb(t - 1, k) * L[k] * G[t - 1 - k]
                         for k in range(t)))
        for h in range(1, mj + 1):
            t = mj - h
            d_t = (-1.0 / wj) ** t * G[t] / math.factorial(t)
            out.append((wj, h, complex(d_t)))
    if poles:
        rng = np.random.default_rng(1234)
        z = 0.99 * np.exp(2j * np.pi * rng.random(16))
        lhs = np.ones_like(z)
        for w, m in poles:
            lhs = lhs / (1.0 - w * z) ** m
        rhs = np.zeros_like(z)
        for w, h, c in out:
            rhs = rhs + c / (1.0 - w * z) ** h
        resid = np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(lhs)))
        if resid > PF_TOL:
            raise DegeneratePoles(
                f"partial-fraction residual {resid:.2e} exceeds {PF_TOL}")
    return out


# ---------------------------------------------------------------------------
# factor products and their inverse series
# ---------------------------------------------------------------------------

def factor_poly(roots) -> np.ndarray:
    """Ascending coefficients of prod_j (1 - w_j z), one product per row.

    ``roots`` is (r,) or (S, r), a repeated root once per multiplicity; the
    result is (r + 1,) or (S, r + 1).  Each factor enters as Re w and
    -i Im w, whose products with g are exact, so a coefficient is
    (g_k - Re w g_{k-1}) + (-i Im w) g_{k-1}: the grouping of a real dot
    product, as in ``np.convolve(g, [1, -w])``.
    """
    w = np.asarray(roots, dtype=complex)
    g = np.zeros(w.shape[:-1] + (w.shape[-1] + 1,), dtype=complex)
    g[..., 0] = 1.0
    for re, im in zip(w.real.T[..., None], (-1j * w.imag).T[..., None]):
        prev = g[..., :-1]
        g[..., 1:] = g[..., 1:] - re * prev + im * prev
    return g


def series_quotient(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """First len(y) power-series coefficients of y(z) / g(z), g(0) = 1.

    A banded lower triangular Toeplitz solve (BLAS ``tbsv``), i.e. the
    forward recursion; it is stable when the roots of g lie outside the
    closed unit disk, and repeated or close roots need no special care.
    """
    y = np.asarray(y, dtype=complex)
    if y.size == 0:
        return y
    band = np.repeat(np.asarray(g, dtype=complex)[:, None], y.size, axis=1)
    return scipy.linalg.blas.ztbsv(g.size - 1, band, y, lower=1)


def inverse_series(g: np.ndarray, count: int) -> np.ndarray:
    """Coefficients 0..count-1 of the power series of 1 / g, g[0] = 1."""
    impulse = np.zeros(count, dtype=complex)
    impulse[0] = 1.0
    return series_quotient(g, impulse)


# ---------------------------------------------------------------------------
# spectral factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralFactorization:
    """Multiplicative split f = C * g1 * g2 of a circle-root-free real symbol.

    g1(chi) = phase * prod_j (1 - w_j chi)^{s_j} with w_j = conj(inside root),
    g2(chi) = prod_i (1 - a_i chibar)^{s_i} over the inside roots a_i, and
    C > 0 real.  The factors are read from ``roots.inside``, the one copy of
    the root data; ``g`` holds their coefficients.  ``residual`` is
    max|f - C g1 g2| on the 1024-point grid of the reconstruction check,
    measured by ``wiener_hopf_factor`` (0 for a factorization built by
    hand).
    """

    scale: float
    phase: complex
    roots: RootSet
    symbol: TrigSymbol = field(compare=False)
    residual: float = field(default=0.0, compare=False)

    @cached_property
    def g(self) -> np.ndarray:
        """Ascending coefficients of prod (1 - a z)^s over the inside roots.

        g2(chi) = g(chibar) and g1(chi) = phase * conj(g)(chi), where conj
        acts on the coefficients.
        """
        g = factor_poly([a for a, s in self.roots.inside for _ in range(s)])
        g.setflags(write=False)
        return g

    @property
    def g1_factors(self) -> tuple:
        return tuple((np.conj(a), s) for a, s in self.roots.inside)

    @property
    def g2_factors(self) -> tuple:
        return self.roots.inside

    @property
    def n0(self) -> int:
        return self.roots.n_inside

    @property
    def rho(self) -> float:
        return max((abs(a) for a, _ in self.roots.inside), default=0.0)

    def reconstruct(self, theta) -> np.ndarray:
        """C * g1 * g2 on the circle; g2 = conj(g1 / phase) there."""
        chi = np.exp(1j * np.asarray(theta, dtype=float))
        out = np.full_like(chi, self.scale * self.phase)
        for a, s in self.roots.inside:
            out = out * np.abs(1.0 - np.conj(a) * chi) ** (2 * s)
        return out


def wiener_hopf_factor(sym: TrigSymbol, *, seed: int = 0
                       ) -> SpectralFactorization:
    """Split a circle-root-free real symbol into C * g1 * g2.

    The inside roots (with multiplicities) of the symbol's Laurent lift
    define both factors; the scale is normalized real positive, with any
    leftover unimodular phase absorbed into g1.  Reconstruction against the
    symbol on a 1024-point grid must hold to RECON_TOL * sup|f|.  ``seed``
    is unused: the roots are companion eigenvalues, with no random start.
    The keyword stays for callers that still pass it.
    """
    roots = laurent_roots(sym.coeffs) if sym.degree else RootSet((), ())
    if not roots.balanced or roots.n_inside != sym.degree:
        raise UnbalancedWinding(
            f"{roots.n_inside} roots inside vs {roots.n_outside} outside "
            f"for degree {sym.degree}")
    unit = SpectralFactorization(scale=1.0, phase=1.0 + 0j, roots=roots,
                                 symbol=sym)
    theta = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    prod = unit.reconstruct(theta)
    fvals = sym(theta)
    top = int(np.argmax(np.abs(prod)))
    c_raw = complex(fvals[top] / prod[top])
    if c_raw == 0:
        raise ValueError("zero symbol cannot be factorized")
    sup = float(np.max(np.abs(fvals)))
    resid = float(np.max(np.abs(fvals - c_raw * prod)))
    if resid > RECON_TOL * max(sup, 1e-30):
        raise UnbalancedWinding(
            "factor product does not reconstruct the symbol; "
            "root data is inconsistent")
    return replace(unit, scale=float(abs(c_raw)),
                   phase=complex(c_raw / abs(c_raw)), residual=resid)


# ---------------------------------------------------------------------------
# cepstral analytic factor (shared by the regular-symbol machinery)
# ---------------------------------------------------------------------------

def cepstral_factor(f: Callable[[np.ndarray], np.ndarray], degree: int
                    ) -> np.ndarray:
    """Analytic-factor coefficients of a strictly positive circle function.

    Returns p_0..p_degree with P(chi) = sum p_u chi^u approximating the outer
    function g = exp(c_0/2 + sum_{u>0} c_u chi^u), c = log f, so that
    |P|^2 ~ f.  Pure coefficient computation; callers enforce their own
    accuracy targets.
    """
    theta = 2.0 * np.pi * np.arange(CEPSTRAL_GRID) / CEPSTRAL_GRID
    vals = np.asarray(f(theta), dtype=float)
    if np.min(vals) <= 0:
        raise ValueError("cepstral factor needs a strictly positive function")
    chat = np.fft.fft(np.log(vals)) / CEPSTRAL_GRID
    half = CEPSTRAL_GRID // 2
    analytic = np.zeros(CEPSTRAL_GRID, dtype=complex)
    analytic[0] = chat[0] / 2.0
    analytic[1:half] = chat[1:half]
    g_on_grid = np.exp(np.fft.ifft(analytic * CEPSTRAL_GRID))
    p = np.fft.fft(g_on_grid) / CEPSTRAL_GRID
    return np.asarray(p[: degree + 1])
