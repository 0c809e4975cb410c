"""Independent output checks, one per workload.

Nothing here imports the package.  Each reference is recomputed from the
generator's own data (the ``truth`` half of a job) with NumPy and SciPy:
LU and Levinson (``scipy.linalg.solve_toeplitz``) solves of Toeplitz
sections built here, ``eigvalsh``, and series built from the drawn roots.
A check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.signal

from workloads import cosine_values, symbol_coeffs

ROOT_TOL = 1e-7            # relative to max(1, |root|)
INVERSE_TOL = 1e-8         # relative to the inverse's max-norm
PREDICTOR_TOL = 1e-6       # relative to max |limit coefficient|
EIGEN_TOL = 1e-10          # relative to max(1, max |lambda|)
THETA_TOL = 1e-9           # |f(theta*) - lambda| relative to the range
DET_TOL = 1e-5             # acceptance criterion 03


def section_column(coeffs: np.ndarray, N: int) -> np.ndarray:
    """hat(f)(0..N) from hat(f)(-d..d), zero padded."""
    c = np.asarray(coeffs, dtype=complex)
    d = c.size // 2
    col = np.zeros(N + 1, dtype=complex)
    m = min(d, N) + 1
    col[:m] = c[d: d + m]
    return col


def _match_roots(found, expected, label: str) -> list[str]:
    found = np.asarray(found, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    if found.size != expected.size:
        return [f"{label}: {found.size} roots, expected {expected.size}"]
    left = list(expected)
    worst = 0.0
    for z in found:
        i = int(np.argmin([abs(z - e) for e in left]))
        worst = max(worst, abs(z - left[i]) / max(1.0, abs(left[i])))
        left.pop(i)
    if worst > ROOT_TOL:
        return [f"{label}: root mismatch {worst:.2e} > {ROOT_TOL:.0e}"]
    return []


def offset_maxima(inv: np.ndarray) -> np.ndarray:
    """max |inv[i, i + d]| for every offset d >= 0."""
    n = inv.shape[0]
    return np.array([np.max(np.abs(np.diagonal(inv, offset=d)))
                     for d in range(n)])


def fit_slope(mags: np.ndarray, lo: int, hi: int):
    d = np.arange(mags.size)
    keep = (d >= lo) & (d <= hi) & (mags > 1e-250)
    if keep.sum() < 2:
        return None
    return float(np.polyfit(d[keep], np.log(mags[keep]), 1)[0])


def check_inverse_full(truth: dict, inputs: dict, out: dict) -> list[str]:
    roots, N = truth["roots"], inputs["N"]
    fails = _match_roots(out["inside"], np.conj(roots), "inside roots")
    rho = float(np.max(np.abs(roots)))
    if abs(out["rho"] - rho) > ROOT_TOL:
        fails.append(f"rho {out['rho']} vs generator {rho}")
    col = section_column(symbol_coeffs(roots, truth["scale"]), N)
    inv = scipy.linalg.inv(scipy.linalg.toeplitz(col, np.conj(col)))
    own = offset_maxima(inv)
    mags = np.asarray(out["magnitudes"])
    if mags.shape != own.shape:
        return fails + [f"{mags.size} offsets, expected {own.size}"]
    gap = float(np.max(np.abs(mags - own)))
    if gap > INVERSE_TOL * own[0]:
        fails.append(f"offset maxima gap {gap:.2e} > "
                     f"{INVERSE_TOL:.0e} * {own[0]:.3e}")
    lo, hi = out["fit_window"]
    if (lo, hi) != (roots.size + 2, N // 2):
        fails.append(f"fit window {(lo, hi)} vs {(roots.size + 2, N // 2)}")
    slope = fit_slope(mags, lo, hi)
    if slope is None or out["slope"] is None or abs(
            out["slope"] - slope) > 1e-9 * (1.0 + abs(slope)):
        fails.append(f"slope {out['slope']} is not the fit {slope}")
    if abs(out["target"] - np.log(rho)) > 1e-9:
        fails.append(f"target {out['target']} vs log(rho) {np.log(rho)}")
    return fails


def inverse_first_column(col: np.ndarray) -> np.ndarray:
    """T^{-1} e_0 by Levinson recursion (Hermitian section, first column)."""
    e0 = np.zeros(col.size, dtype=complex)
    e0[0] = 1.0
    return scipy.linalg.solve_toeplitz((col, np.conj(col)), e0)


def gohberg_semencul(x: np.ndarray):
    """Entry function and max-norm of T^{-1} from its first column x.

    T^{-1} = (L(x) L(x)^H - L(y) L(y)^H) / x_0 with L(v) the lower
    triangular Toeplitz matrix of first column v and
    y = (0, conj(x_n), ..., conj(x_1)).  For a positive definite section
    the largest entry sits on the diagonal.
    """
    y = np.zeros_like(x)
    y[1:] = np.conj(x[:0:-1])
    x0 = x[0].real

    def entry(k: int, l: int) -> complex:
        m = min(k, l) + 1
        xs_k, xs_l = x[k - m + 1: k + 1], x[l - m + 1: l + 1]
        ys_k, ys_l = y[k - m + 1: k + 1], y[l - m + 1: l + 1]
        return complex((np.dot(xs_k, np.conj(xs_l))
                        - np.dot(ys_k, np.conj(ys_l))) / x0)

    diag = np.cumsum(np.abs(x) ** 2 - np.abs(y) ** 2) / x0
    return entry, float(np.max(diag))


def g_inverse_series(roots, scale: float, count: int) -> np.ndarray:
    """Coefficients of 1/g, g = sqrt(scale) * prod (1 - a chi)."""
    b = np.zeros(count, dtype=complex)
    b[0] = 1.0
    for a in roots:
        b = scipy.signal.lfilter([1.0], [1.0, -a], b)
    return b / np.sqrt(scale)


def check_point_query(truth: dict, inputs: dict, out: dict) -> list[str]:
    roots, scale = truth["roots"], truth["scale"]
    N, M = inputs["N"], inputs["M"]
    fails = _match_roots(out["inside"], np.conj(roots), "inside roots")
    if abs(out["scale"] - scale) > 1e-8 * scale:
        fails.append(f"scale {out['scale']} vs generator {scale}")
    own = g_inverse_series(roots, scale, M + 1)
    limit = np.conj(own[0]) * own / abs(own[0])
    half = M // 2 + 1
    gap = float(np.max(np.abs(out["beta"][:half] - limit[:half])))
    if gap > PREDICTOR_TOL * np.max(np.abs(limit)):
        fails.append(f"predictor vs limit gap {gap:.2e} over k <= M/2")
    # up to conjugation: g_inverse_coeffs conjugates non-even symbols
    gap = float(np.max(np.abs(np.abs(out["b"]) - np.abs(own))))
    if gap > 1e-9 * np.max(np.abs(own)):
        fails.append(f"|1/g| series gap {gap:.2e}")
    col = section_column(symbol_coeffs(roots, scale), N)
    entry, max_norm = gohberg_semencul(inverse_first_column(col))
    worst = max(abs(v - entry(k, l))
                for v, (k, l) in zip(out["entries"], inputs["queries"]))
    if worst > INVERSE_TOL * max_norm:
        fails.append(f"entry gap {worst:.2e} > {INVERSE_TOL:.0e} * "
                     f"{max_norm:.3e}")
    return fails


def check_spectrum_even(truth: dict, inputs: dict, out: dict) -> list[str]:
    cos_c, N = truth["cosine"], inputs["N"]
    fails = []
    col = np.zeros(N + 1)
    col[0] = cos_c[0]
    m = min(cos_c.size - 1, N)
    col[1: m + 1] = cos_c[1: m + 1] / 2.0
    own = scipy.linalg.eigvalsh(scipy.linalg.toeplitz(col))
    lam = np.asarray(out["eigenvalues"])
    scale = max(1.0, float(np.max(np.abs(own))))
    if lam.shape != own.shape:
        return [f"{lam.size} eigenvalues, expected {own.size}"]
    gap = float(np.max(np.abs(lam - own)))
    if gap > EIGEN_TOL * scale:
        fails.append(f"eigenvalue gap {gap:.2e} vs eigvalsh")
    if abs(lam.sum() - (N + 1) * cos_c[0]) > EIGEN_TOL * (N + 1) * scale:
        fails.append("trace identity fails")
    if truth["closed_form"]:
        want = 2.0 - 2.0 * np.cos(np.arange(1, N + 2) * np.pi / (N + 2))
        gap = float(np.max(np.abs(lam - np.sort(want))))
        if gap > EIGEN_TOL * scale:
            fails.append(f"closed-form gap {gap:.2e}")
    # grid localization: each theta* is an antecedent, slots distinct
    grid = cosine_values(cos_c, np.linspace(0.0, np.pi, 1 << 14))
    span = float(grid.max() - grid.min())
    if not np.array_equal(out["loc_eigenvalue"], lam):
        fails.append("locations are not in eigenvalue order")
    resid = np.abs(cosine_values(cos_c, out["theta_star"]) - lam)
    if resid.max() > THETA_TOL * span:
        fails.append(f"|f(theta*) - lambda| = {resid.max():.2e}")
    k = out["k"]
    if k.min() < 0 or k.max() > N + 1:
        fails.append("grid index outside [0, N + 1]")
    slots = set(zip(out["branch"].tolist(), k.tolist()))
    if len(slots) != lam.size:
        fails.append(f"{lam.size - len(slots)} repeated grid slots")
    shift = (out["theta_star"] - k * np.pi / (N + 2)) * N / np.pi
    if np.max(np.abs(shift - out["theta_shift"])) > 1e-9:
        fails.append("theta_shift inconsistent with theta* and k")
    if "det_N" in inputs:
        fails += check_det_roots(cos_c, inputs, out)
    return fails


def check_det_roots(cos_c, inputs: dict, out: dict) -> list[str]:
    """Det roots are the eigenvalues in the window, outside guard windows."""
    n = inputs["det_N"]
    lo, hi = inputs["det_window"]
    col = np.zeros(n + 1)
    col[0] = cos_c[0]
    m = min(cos_c.size - 1, n)
    col[1: m + 1] = cos_c[1: m + 1] / 2.0
    eig = scipy.linalg.eigvalsh(scipy.linalg.toeplitz(col))
    step = (hi - lo) / (inputs["det_samples"] - 1)
    guards = [(a - step, b + step) for a, b in out["det_excluded"]]

    def guarded(v):
        return any(a <= v <= b for a, b in guards)

    roots = np.asarray(out["det_roots"])
    fails = []
    matched = set()
    for r in roots:
        i = int(np.argmin(np.abs(eig - r)))
        if abs(eig[i] - r) > DET_TOL:
            fails.append(f"det root {r:.8f} is no eigenvalue "
                         f"(gap {abs(eig[i] - r):.2e})")
        elif i in matched:
            fails.append(f"two det roots at eigenvalue {eig[i]:.8f}")
        matched.add(i)
    for i, v in enumerate(eig):
        if lo + DET_TOL < v < hi - DET_TOL and not guarded(v) \
                and i not in matched:
            fails.append(f"eigenvalue {v:.8f} has no det root")
    return fails


CHECKS = {"inverse-full": check_inverse_full,
          "point-query": check_point_query,
          "spectrum-even": check_spectrum_even}
