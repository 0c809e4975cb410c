"""Seeded job lists for the three workloads.

Everything here is plain NumPy.  A job has two halves: ``inputs``, the only
part the worker process (and so the package) ever sees, and ``truth``, the
generator's own data (roots, scale, cosine coefficients) that the checkers
compare against.  Round ``r`` of a workload depends only on ``(seed, r)``,
so a run that stops after fewer rounds runs a prefix of the same list.

Hypothesis filters reject draws outside the family a workload is meant to
cover; each rejection is counted per filter and reported with the run.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

WORKLOADS = ("inverse-full", "point-query", "spectrum-even")

# One round of each workload: (group, lowest N, highest N) per job.  N is
# drawn log-uniform in its range, and the ranges shrink as the group's cost
# grows so that jobs cost about the same: then the median job time sits
# inside one smooth distribution, not in a gap between job kinds.
# inverse-full groups are n0, point-query groups the symbol degree.
INVERSE_FULL_CELLS = 2 * ((1, 230, 280), (2, 156, 190), (3, 128, 156),
                          (4, 94, 114))
POINT_QUERY_CELLS = 2 * ((2, 2560, 4096), (3, 1536, 2048), (4, 1024, 1536),
                         (5, 1024, 1280), (6, 1024, 1152))
PREDICTOR_M = 160
# spectrum-even groups: 0 is the closed-form symbol [2, -2], which takes a
# different N in each of the first 64 rounds; 1-3 are criterion-02 cosine
# symbols of that degree.
SPECTRUM_CELLS = ((0, 288, 352), (1, 224, 288), (2, 144, 176),
                  (3, 224, 288))
DET_ORDER = 8
DET_SAMPLES = 240
DET_MARGIN = 0.01                 # window edge offset, share of the range
# The det scan runs on symbols of degree <= 2 only: on degree 3 the phase-
# normalized determinant can turn imaginary around a root, and the sign scan
# then misses it (3 of 1000 draws), so degree-3 jobs stop after localization
# and get a larger order instead.
DET_MAX_DEGREE = 2

MIN_ROOT_GAP = 0.05
ROOT_MODULUS = {"inverse-full": (0.2, 0.85), "point-query": (0.05, 0.9)}


def _rng(seed: int, workload: str, round_index: int) -> np.random.Generator:
    return np.random.default_rng(
        [int(seed), WORKLOADS.index(workload), int(round_index)])


def poly_from_roots(roots) -> np.ndarray:
    """Ascending coefficients of prod (1 - a z)."""
    p = np.array([1.0 + 0j])
    for a in roots:
        p = np.convolve(p, np.array([1.0, -a]))
    return p


def symbol_coeffs(roots, scale: float) -> np.ndarray:
    """hat(f)(-d..d) of f = scale * prod |1 - a chi|^2."""
    p = poly_from_roots(roots)
    return scale * np.convolve(p, np.conj(p[::-1]))


def coeffs_spec(coeffs: np.ndarray) -> dict:
    """Symbol literal in the CLI's ``coeffs`` form."""
    c = np.asarray(coeffs, dtype=complex)
    return {"coeffs": [[float(z.real), float(z.imag)] for z in c],
            "offset": -(c.size // 2)}


def _separated(roots) -> bool:
    r = np.asarray(roots, dtype=complex)
    if r.size < 2:
        return True
    gaps = np.abs(r[:, None] - r[None, :])
    np.fill_diagonal(gaps, np.inf)
    return bool(gaps.min() >= MIN_ROOT_GAP)


def _band_roots(rng, n0: int, rejected: Counter) -> list:
    """Real roots and conjugate pairs, modulus in the inverse-full range."""
    lo, hi = ROOT_MODULUS["inverse-full"]
    while True:
        roots = []
        while len(roots) < n0:
            if n0 - len(roots) >= 2 and rng.random() < 0.4:
                z = rng.uniform(lo, hi) * np.exp(
                    1j * rng.uniform(0.25, np.pi - 0.25))
                roots += [z, np.conj(z)]
            else:
                roots.append(complex(rng.uniform(lo, hi)
                                     * rng.choice([-1.0, 1.0])))
        if _separated(roots):
            return roots
        rejected["inverse-full: roots closer than 0.05"] += 1


def _disk_roots(rng, degree: int, rejected: Counter) -> list:
    """Roots anywhere in the disk (area-uniform modulus), no pairing."""
    lo, hi = ROOT_MODULUS["point-query"]
    while True:
        r = np.sqrt(rng.uniform(lo ** 2, hi ** 2, size=degree))
        roots = list(r * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=degree)))
        if _separated(roots):
            return roots
        rejected["point-query: roots closer than 0.05"] += 1


def cosine_values(cos_c, theta) -> np.ndarray:
    """f(theta) = sum_j cos_c[j] cos(j theta)."""
    j = np.arange(len(cos_c))
    return np.cos(np.multiply.outer(theta, j)) @ np.asarray(cos_c, dtype=float)


def _unique_minimizer(cos_c, n_grid: int = 8192) -> bool:
    """One contiguous (wrap-around) run of grid points at the minimum."""
    theta = np.linspace(0.0, 2 * np.pi, n_grid, endpoint=False)
    vals = cosine_values(cos_c, theta)
    fmin = vals.min()
    near = vals <= fmin + 1e-10 * max(vals.max() - fmin, 1e-300)
    starts = np.flatnonzero(near & ~np.roll(near, 1))
    return near.all() or starts.size == 1


def _critical_values(cos_c) -> np.ndarray:
    """Sorted values of f at theta = 0, pi and at its extrema in between.

    With x = cos(theta), f is the Chebyshev series sum_j c_j T_j(x), so
    the interior extrema are the real roots of its derivative in (-1, 1).
    """
    f = np.polynomial.Chebyshev(np.asarray(cos_c, dtype=float))
    xs = [-1.0, 1.0] + [float(x.real) for x in f.deriv().roots()
                        if abs(x.imag) < 1e-12 and -1.0 < x.real < 1.0]
    return np.sort(f(np.array(xs)))


def det_window(cos_c) -> tuple[float, float]:
    """Range of lambda with a single antecedent next to the minimum.

    From the minimum the symbol climbs monotonically on [0, pi] until its
    next critical value (a local extremum or the far end point); the det
    scan runs inside that stretch, DET_MARGIN of the range away from both
    ends.
    """
    crit = _critical_values(cos_c)
    margin = DET_MARGIN * (crit[-1] - crit[0])
    return float(crit[0] + margin), float(crit[1] - margin)


def _cosine_draw(rng, degree: int, rejected: Counter) -> np.ndarray:
    """Acceptance criterion 02 family: c0 in [2.5, 5], c1..cd in [-1, 1]."""
    while True:
        c = np.concatenate([[rng.uniform(2.5, 5.0)],
                            rng.uniform(-1.0, 1.0, size=degree)])
        if not _unique_minimizer(c):
            rejected["spectrum-even: minimizer not unique"] += 1
            continue
        crit = _critical_values(c)
        if degree <= DET_MAX_DEGREE and \
                crit[1] - crit[0] < 0.25 * (crit[-1] - crit[0]):
            rejected["spectrum-even: single-cover stretch under 1/4 "
                     "of the range"] += 1
            continue
        return c


def _inverse_full_job(rng, n0, N, rejected):
    roots = _band_roots(rng, n0, rejected)
    scale = float(rng.uniform(0.5, 2.0))
    return {"inputs": {"spec": coeffs_spec(symbol_coeffs(roots, scale)),
                       "N": N},
            "truth": {"roots": np.array(roots), "scale": scale,
                      "cell": (n0, N)}}


def point_queries(N: int, mid: int) -> list[tuple[int, int]]:
    """Entries where the Hankel correction matters: corner and diagonal."""
    return [(N, N), (N - 2, N), (mid, mid)]


def _point_query_job(rng, degree, N, rejected):
    roots = _disk_roots(rng, degree, rejected)
    scale = float(rng.uniform(0.5, 2.0))
    mid = int(rng.integers(N // 3, 2 * N // 3))
    return {"inputs": {"spec": coeffs_spec(symbol_coeffs(roots, scale)),
                       "N": N, "M": PREDICTOR_M,
                       "queries": point_queries(N, mid)},
            "truth": {"roots": np.array(roots), "scale": scale,
                      "cell": (degree, N)}}


def _spectrum_inputs(cos_c, N) -> dict:
    cos_c = [float(v) for v in cos_c]
    inputs = {"spec": {"cosine": cos_c}, "N": N}
    if len(cos_c) - 1 <= DET_MAX_DEGREE:
        inputs.update(det_N=DET_ORDER, det_window=det_window(cos_c),
                      det_samples=DET_SAMPLES)
    return inputs


def _spectrum_job(cos_c, N, kind):
    return {"inputs": _spectrum_inputs(cos_c, N),
            "truth": {"cosine": np.array(cos_c, dtype=float),
                      "closed_form": kind == 0, "cell": (kind, N)}}


def _order(rng, lo: int, hi: int) -> int:
    return int(round(np.exp(rng.uniform(np.log(lo), np.log(hi)))))


def make_round(workload: str, seed: int, r: int, rejected: Counter) -> list:
    rng = _rng(seed, workload, r)
    if workload == "inverse-full":
        return [_inverse_full_job(rng, n0, _order(rng, lo, hi), rejected)
                for n0, lo, hi in INVERSE_FULL_CELLS]
    if workload == "point-query":
        return [_point_query_job(rng, d, _order(rng, lo, hi), rejected)
                for d, lo, hi in POINT_QUERY_CELLS]
    if workload == "spectrum-even":
        jobs = []
        for kind, lo, hi in SPECTRUM_CELLS:
            if kind == 0:
                # (symbol, N) pairs stay distinct: a seeded permutation
                N = lo + int(np.random.default_rng([int(seed), 99])
                             .permutation(hi - lo)[r % (hi - lo)])
                jobs.append(_spectrum_job([2.0, -2.0], N, kind))
            else:
                jobs.append(_spectrum_job(_cosine_draw(rng, kind, rejected),
                                          _order(rng, lo, hi), kind))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def warmup_job(workload: str) -> dict:
    """A fixed, seed-free input that no timed list contains."""
    if workload == "inverse-full":
        roots = [0.5, 0.3 * np.exp(1j), 0.3 * np.exp(-1j)]
        return {"spec": coeffs_spec(symbol_coeffs(roots, 1.0)), "N": 48}
    if workload == "point-query":
        roots = [0.6, 0.4j, -0.5 + 0.2j]
        return {"spec": coeffs_spec(symbol_coeffs(roots, 1.0)), "N": 512,
                "M": PREDICTOR_M, "queries": point_queries(512, 256)}
    if workload == "spectrum-even":
        return _spectrum_inputs([3.0, -1.0, 0.4], 64)
    raise ValueError(f"unknown workload {workload!r}")


def jobs_per_round(workload: str) -> int:
    return {"inverse-full": len(INVERSE_FULL_CELLS),
            "point-query": len(POINT_QUERY_CELLS),
            "spectrum-even": len(SPECTRUM_CELLS)}[workload]
