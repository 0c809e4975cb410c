import numpy as np
import pytest

from toeplitz_spectra.errors import NotPositiveDefinite
from toeplitz_spectra.predictor import (
    g_inverse_coeffs,
    lemma1_rate,
    levinson,
    property1_check,
)
from toeplitz_spectra.symbol_core import TrigSymbol, fourier_coeffs, wiener_hopf_factor
from toeplitz_spectra.toeplitz_core import build, dense_invert

from helpers import (MULTIPLICITY_CASES, factorization_from_roots,
                     lemma1_errors_loop, mp_inverse_series,
                     moment_residual_loop, range_on_grid,
                     symbol_from_inside_roots)


def ar1_symbol(d):
    """h = 1/|1 - 0.5 e^{i t}|^2 via its closed-form coefficients 0.5^|s|/0.75."""
    s = np.arange(-d, d + 1)
    return TrigSymbol(0.5 ** np.abs(s) / 0.75)


def slow_tail_symbol(seed=0, U=600, d=300):
    """Positive symbol 1/|b(chi)|^2 with prescribed reciprocal-factor decay.

    b has a sign-scrambled (1+u)^-4 coefficient tail, so the analytic-factor
    limit of the predictor coefficients is b itself, known exactly.
    """
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=U + 1)
    u = np.arange(U + 1)
    b = signs * (1.0 + u) ** -4.0
    b[0] = 1.0

    def h_fn(theta):
        z = np.exp(1j * np.outer(theta, u))
        return 1.0 / np.abs(z @ b) ** 2

    coeffs = fourier_coeffs(h_fn, d, 1 << 15)
    return TrigSymbol(coeffs), b


class TestLevinson:
    def test_identity_symbol(self):
        P = levinson(TrigSymbol.constant(1.0), 5)
        assert np.allclose(P.beta, [1, 0, 0, 0, 0, 0], atol=1e-15)

    def test_ar1_terminates(self):
        P = levinson(ar1_symbol(12), 10)
        assert abs(P.beta[0] - 1.0) < 1e-12
        assert abs(P.beta[1] + 0.5) < 1e-12
        assert np.max(np.abs(P.beta[2:])) < 1e-6

    def test_first_column_identity(self):
        sym = TrigSymbol.from_cosine([1.25, -1.0])
        M = 3
        P = levinson(sym, M)
        inv = dense_invert(build(sym, M))
        want = inv[:, 0] / np.sqrt(inv[0, 0].real)
        assert np.max(np.abs(P.beta - want)) < 1e-10

    def test_first_column_random_sweep(self):
        rng = np.random.default_rng(31)
        for trial in range(50):
            k = int(rng.integers(1, 4))
            roots = [complex(rng.uniform(-0.8, 0.8),
                             rng.uniform(-0.4, 0.4)) for _ in range(k)]
            roots += [np.conj(r) for r in roots]
            sym = symbol_from_inside_roots(roots, float(rng.uniform(0.3, 2)))
            M = int(rng.integers(2, 65))
            P = levinson(sym, M)
            inv = dense_invert(build(sym, M))
            want = inv[:, 0] / np.sqrt(inv[0, 0].real)
            assert np.max(np.abs(P.beta - want)) < 1e-8, f"trial {trial}"

    def test_minimum_phase(self):
        rng = np.random.default_rng(13)
        for _ in range(12):
            c = np.concatenate([[rng.uniform(2, 5)],
                                rng.uniform(-1, 1, size=rng.integers(1, 4))])
            sym = TrigSymbol.from_cosine(c)
            if range_on_grid(sym)[0] <= 0.1:
                continue
            M = int(rng.integers(1, 33))
            P = levinson(sym, M)
            roots = P.roots()
            if roots.size:
                assert np.min(np.abs(roots)) >= 1.0 + 1e-9

    def test_not_positive(self):
        with pytest.raises(NotPositiveDefinite):
            levinson(TrigSymbol.from_cosine([0.0, 1.0]), 4)


class TestProperty1:
    def test_identity(self):
        assert property1_check(TrigSymbol.constant(1.0), 6) < 1e-12

    def test_ar1(self):
        assert property1_check(ar1_symbol(10), 8) <= 1e-8

    def test_one_pole(self):
        assert property1_check(TrigSymbol.from_cosine([1.25, -1.0]), 12) <= 1e-8


class TestLemma1Rate:
    def test_rational_exact(self):
        rep = lemma1_rate(ar1_symbol(20), [1.0, -0.5], [16])
        assert rep.errors[0] <= 1e-10

    def test_identity_zero_error(self):
        rep = lemma1_rate(TrigSymbol.constant(1.0), [1.0], [8, 16])
        assert rep.errors == (0.0, 0.0) and rep.slope is None

    def test_slow_tail_rate(self):
        sym, b = slow_tail_symbol()
        rep = lemma1_rate(sym, b, [32, 64, 128, 256])
        assert rep.non_increasing()
        assert rep.slope is not None and rep.slope <= -2.4


def test_checks_match_scalar_loops():
    rng = np.random.default_rng(31)
    for _ in range(20):
        roots = rng.uniform(0.1, 0.8, 3) * np.exp(2j * np.pi * rng.random(3))
        sym = symbol_from_inside_roots(roots, rng.uniform(0.5, 2.0))
        for M in (0, 1, 2, 3, 9, 40):
            assert property1_check(sym, M) == moment_residual_loop(sym, M)
        b = rng.standard_normal(int(rng.integers(1, 30))) + 0.5j
        Ns = [3, 8, 25, 60]
        assert lemma1_rate(sym, b, Ns).errors \
            == tuple(lemma1_errors_loop(sym, b, Ns))


class TestGInverseCoeffs:
    def test_one_pole(self):
        fac = wiener_hopf_factor(TrigSymbol.from_cosine([1.25, -1.0]))
        b = g_inverse_coeffs(fac, 6)
        # g = 1 - 0.5 chi up to the factor split convention: 1/g = sum 0.5^u
        assert np.allclose(b, 0.5 ** np.arange(6), atol=1e-12)

    def test_limit_consistency(self):
        sym = symbol_from_inside_roots([0.5, -0.3], 1.7)
        fac = wiener_hopf_factor(sym)
        b = g_inverse_coeffs(fac, 40)
        rep = lemma1_rate(sym, b, [24])
        assert rep.errors[0] < 1e-10

    def test_limit_complex_roots(self):
        # a symbol that is not even: 1/g is not its own conjugate series
        a = [0.5, -0.3, 0.4 * np.exp(1j)]
        sym = symbol_from_inside_roots(a, 2.7)
        b = g_inverse_coeffs(wiener_hopf_factor(sym), 100)
        P = levinson(sym, 200)
        limit = np.conj(b[0]) * b / abs(b[0])
        assert np.max(np.abs(P.beta[:100] - limit)) < 1e-12

    @pytest.mark.parametrize("mult", sorted(MULTIPLICITY_CASES))
    def test_against_mpmath(self, mult):
        # 1/g = conj of the series of 1/prod (1 - a z), over the inside
        # roots a, scaled by 1/sqrt(C); measured at most 9.1e-15 of max|b|
        # on these simple, double and triple roots, 2.6e-14 over 180 random
        # draws of degree 1-5
        inside = MULTIPLICITY_CASES[mult]
        roots = [a for a, m in inside for _ in range(m)]
        b = g_inverse_coeffs(factorization_from_roots(inside, 2.0), 400)
        want = np.conj(np.array(mp_inverse_series(roots, 400),
                                dtype=complex)) / np.sqrt(2.0)
        assert np.max(np.abs(b - want)) <= 1e-13 * np.max(np.abs(want))
