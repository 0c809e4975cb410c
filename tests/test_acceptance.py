"""Acceptance suite: one test per shipping criterion, fixed tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the criterion at the stated tolerance.
"""

import time

import numpy as np

from toeplitz_spectra.band_decay import (
    BandSymbol,
    RegularSymbol,
    band_decay_report,
    corollary_decay_check,
    perturbation_inequality_check,
)
from toeplitz_spectra.hankel_inversion import (
    hankel_product_matrix,
    inverse_entry,
)
from toeplitz_spectra.predictor import lemma1_rate, property1_check
from toeplitz_spectra.spectra import (
    det_equation_roots,
    grid_localize,
    hermitian_eigen,
    min_eigen_sweep,
    weyl_gap,
    _unique_minimizer,
)
from toeplitz_spectra.errors import NonUniqueMinimum
from toeplitz_spectra.symbol_core import TrigSymbol, wiener_hopf_factor
from toeplitz_spectra.toeplitz_core import build, dense_invert

from helpers import symbol_from_inside_roots
from test_predictor import ar1_symbol, slow_tail_symbol


def _report(num: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} - {detail}")
    return ok


def test_criterion_01_exact_spectrum():
    t0 = time.perf_counter()
    N = 50
    eig = hermitian_eigen(build(TrigSymbol.from_cosine([2.0, -2.0]), N).dense())
    want = 2.0 - 2.0 * np.cos(np.arange(1, N + 2) * np.pi / (N + 2))
    gap = float(np.max(np.abs(eig.eigenvalues - np.sort(want))))
    elapsed = time.perf_counter() - t0
    ok = gap <= 1e-10 and elapsed < 1.0
    assert _report(1, ok, f"max |lambda - closed form| = {gap:.2e}, "
                          f"{elapsed:.2f}s")


def test_criterion_02_grid_form_random_symbols():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    symbols = []
    while len(symbols) < 10:
        c = np.concatenate([[rng.uniform(2.5, 5.0)],
                            rng.uniform(-1.0, 1.0, size=3)])
        sym = TrigSymbol.from_cosine(c)
        try:
            _unique_minimizer(sym)
        except NonUniqueMinimum:
            continue
        symbols.append(sym)
    worst_shift = 0.0
    all_converge = True
    for sym in symbols:
        for N in (32, 64, 128):
            eig = hermitian_eigen(build(sym, N).dense())
            locs = grid_localize(sym, N, eig)
            worst_shift = max(worst_shift,
                              max(abs(l.theta_shift) for l in locs))
        _, dists = min_eigen_sweep(sym, [32, 64, 128])
        monotone = all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        all_converge = all_converge and monotone and dists[-1] <= dists[0]
    elapsed = time.perf_counter() - t0
    ok = worst_shift < 1.0 and all_converge and elapsed < 30.0
    assert _report(2, ok, f"max |theta_shift| = {worst_shift:.3f}, "
                          f"min-eig grid convergence: {all_converge}, "
                          f"{elapsed:.1f}s")


def test_criterion_03_det_equation_equivalence():
    cases = [
        (TrigSymbol.from_cosine([2.0, -2.0]), 3, (0.05, 3.95)),
        (TrigSymbol.from_cosine([2.0, -2.0]), 8, (0.05, 3.95)),
        (TrigSymbol.from_cosine([2.1, -2.0, -0.1]), 8, (0.05, 3.95)),
    ]
    worst = 0.0
    ok = True
    for sym, N, window in cases:
        eig = hermitian_eigen(build(sym, N).dense()).eigenvalues
        inside = eig[(eig > window[0]) & (eig < window[1])]
        res = det_equation_roots(sym, N, window, n_samples=1600)
        if len(res.roots) != inside.size:
            ok = False
            continue
        worst = max(worst, float(np.max(np.abs(np.array(res.roots) - inside))))
    ok = ok and worst <= 1e-5
    assert _report(3, ok, f"root-vs-eigen max gap {worst:.2e} over 3 cases")


def test_criterion_04_inversion_formula_vs_dense():
    rng = np.random.default_rng(77)
    worst = 0.0
    norms_ok = True
    for _ in range(20):
        n0 = int(rng.integers(1, 4))
        roots = []
        while len(roots) < n0:
            if n0 - len(roots) >= 2 and rng.random() < 0.35:
                z = rng.uniform(0.2, 0.85) * np.exp(
                    1j * rng.uniform(0.25, np.pi - 0.25))
                roots += [z, np.conj(z)]
            else:
                roots.append(float(rng.uniform(0.2, 0.85))
                             * rng.choice([-1.0, 1.0]))
        sym = symbol_from_inside_roots(roots, float(rng.uniform(0.5, 2.0)))
        fac = wiener_hopf_factor(sym)
        N = int(rng.integers(8, 41))
        norms_ok = norms_ok and hankel_product_matrix(fac, N).norm2 < 1.0
        inv = dense_invert(build(sym, N))
        for _ in range(20):
            k = int(rng.integers(0, N + 1))
            l = int(rng.integers(0, N + 1))
            worst = max(worst, abs(inverse_entry(fac, N, k, l) - inv[k, l]))
    ok = worst <= 1e-8 and norms_ok
    assert _report(4, ok, f"max entry gap {worst:.2e} over 20 symbols, "
                          f"norm condition at N >= 8: {norms_ok}")


def test_criterion_05_band_decay_slopes():
    one = BandSymbol.from_symbol(TrigSymbol.from_cosine([1.25, -1.0]))
    rep1 = band_decay_report(one, 60)
    two = BandSymbol.from_symbol(TrigSymbol.from_cosine([2.85, -3.64, 0.8]))
    rep2 = band_decay_report(two, 80)
    d1 = abs(rep1.slope - np.log(0.5))
    d2 = abs(rep2.slope - np.log(0.8))
    ok = d1 <= 0.05 and d2 <= 0.05
    assert _report(5, ok, f"slope gaps: rho=0.5 -> {d1:.3f}, "
                          f"rho=0.8 -> {d2:.3f} (tol 0.05)")


def test_criterion_06_hankel_norm_decay():
    ok = True
    details = []
    for sym, rho in [(TrigSymbol.from_cosine([1.25, -1.0]), 0.5),
                     (TrigSymbol.from_cosine([2.85, -3.64, 0.8]), 0.8)]:
        fac = wiener_hopf_factor(sym)
        Ns = np.arange(8, 25)
        norms = np.array([hankel_product_matrix(fac, int(N)).norm2
                          for N in Ns])
        slope = float(np.polyfit(Ns, np.log(norms), 1)[0])
        target = 2.0 * np.log(rho)
        ok = ok and abs(slope - target) <= 0.1 * abs(target)
        details.append(f"rho={rho}: slope {slope:.4f} vs {target:.4f}")
    assert _report(6, ok, "; ".join(details))


def test_criterion_07_moment_identity():
    worst = 0.0
    for h in (TrigSymbol.constant(1.0),
              TrigSymbol.from_cosine([1.25, -1.0]),
              ar1_symbol(14)):
        worst = max(worst, property1_check(h, 12))
    ok = worst <= 1e-8
    assert _report(7, ok, f"max moment residual {worst:.2e} at M=12")


def test_criterion_08_predictor_limit_rate():
    sym, b = slow_tail_symbol()
    rep = lemma1_rate(sym, b, [32, 64, 128, 256])
    rational = lemma1_rate(ar1_symbol(20), [1.0, -0.5], [16])
    ok = (rep.non_increasing() and rep.slope is not None
          and rep.slope <= -2.4 and rational.errors[0] <= 1e-10)
    assert _report(8, ok, f"slow-tail slope {rep.slope:.2f} (<= -2.4), "
                          f"errors {['%.1e' % e for e in rep.errors]}, "
                          f"rational err(16) = {rational.errors[0]:.1e}")


def test_criterion_09_regular_symbol_decay():
    f = RegularSymbol(lambda t: np.exp(np.cos(t)))
    rep = corollary_decay_check(f, 60, 1.5)
    chk = perturbation_inequality_check(f, 40)
    ok = (rep.bound_constant is not None
          and np.isfinite(rep.bound_constant)
          and rep.slope <= -np.log(1.5) + 0.1
          and chk.q < 1.0 and chk.holds)
    assert _report(9, ok, f"C = {rep.bound_constant:.3e}, slope "
                          f"{rep.slope:.3f} <= {-np.log(1.5) + 0.1:.3f}, "
                          f"perturbation bound holds: {chk.holds} "
                          f"(q = {chk.q:.3f})")


def test_criterion_10_weyl_gap():
    sym = TrigSymbol.from_cosine([1.25, -1.0])
    g64 = weyl_gap(sym, 64)
    g256 = weyl_gap(sym, 256)
    ok = g256 < g64 and g256 <= 0.05
    assert _report(10, ok, f"gap(64) = {g64:.3e}, gap(256) = {g256:.3e}")
