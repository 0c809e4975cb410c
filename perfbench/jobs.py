"""One job per workload, calling the package as the CLI subcommand does.

Imported only by the worker process, after the package's source directory
is on ``sys.path``.  Each function takes a job's ``inputs`` and returns
plain data (NumPy arrays, numbers, tuples) for the checkers; the package's
own objects never leave the worker.
"""

from __future__ import annotations

import time

import numpy as np

from toeplitz_spectra import band_decay, hankel_inversion, predictor, spectra
from toeplitz_spectra import symbol_core, toeplitz_core


def inverse_full(inp: dict, traced: bool) -> dict:
    """The ``decay`` pipeline: band symbol, then the columnwise inverse."""
    sym = symbol_core.symbol_from_spec(inp["spec"])
    band = band_decay.BandSymbol.from_symbol(sym, seed=0)
    rep = band_decay.band_decay_report(band, inp["N"])
    return {"inside": [complex(a) for a, m in band.roots.inside
                       for _ in range(m)],
            "rho": float(band.rho),
            "magnitudes": np.asarray(rep.magnitudes, dtype=float),
            "fit_window": tuple(rep.fit_window),
            "slope": rep.slope,
            "target": float(rep.target)}


def point_query(inp: dict, traced: bool) -> dict:
    """Factor, the ``predictor`` pipeline, then ``invert --entry`` queries."""
    sym = symbol_core.symbol_from_spec(inp["spec"])
    N, M = inp["N"], inp["M"]
    fac = symbol_core.wiener_hopf_factor(sym, seed=0)
    P = predictor.levinson(sym, M)
    b = predictor.g_inverse_coeffs(fac, M + 1)
    if traced:
        # builds the (value-keyed, cached) inversion context on its own span
        hankel_inversion.hankel_product_matrix(fac, N)
    entries = [hankel_inversion.inverse_entry(fac, N, k, l)
               for k, l in inp["queries"]]
    return {"inside": [complex(a) for a, m in fac.g2_factors
                       for _ in range(m)],
            "scale": float(fac.scale),
            "beta": np.array(P.beta, dtype=complex),
            "b": np.array(b, dtype=complex),
            "entries": np.array(entries, dtype=complex)}


def spectrum_even(inp: dict, traced: bool) -> dict:
    """The ``eigen`` pipeline, then (degree <= 2) a det-equation scan."""
    sym = symbol_core.symbol_from_spec(inp["spec"])
    N = inp["N"]
    eig = spectra.hermitian_eigen(toeplitz_core.build(sym, N).dense())
    locs = spectra.grid_localize(sym, N, eig)
    out = {"eigenvalues": np.array(eig.eigenvalues, dtype=float),
           "k": np.array([loc.k for loc in locs]),
           "branch": np.array([loc.branch for loc in locs]),
           "theta_star": np.array([loc.theta_star for loc in locs]),
           "theta_shift": np.array([loc.theta_shift for loc in locs]),
           "loc_eigenvalue": np.array([loc.eigenvalue for loc in locs])}
    if "det_N" in inp:
        det = spectra.det_equation_roots(sym, inp["det_N"],
                                         tuple(inp["det_window"]),
                                         n_samples=inp["det_samples"])
        out["det_roots"] = np.array(det.roots, dtype=float)
        out["det_excluded"] = [tuple(w) for w in det.excluded]
    return out


RUNNERS = {"inverse-full": inverse_full,
           "point-query": point_query,
           "spectrum-even": spectrum_even}


def dense_reference(inp: dict) -> float:
    """Seconds for the package's dense LU inverse of the job's section."""
    sym = symbol_core.symbol_from_spec(inp["spec"])
    t0 = time.perf_counter()
    toeplitz_core.dense_invert(toeplitz_core.build(sym, inp["N"]))
    return time.perf_counter() - t0
