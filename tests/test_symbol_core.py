import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from toeplitz_spectra.errors import (
    AliasingRisk,
    DegeneratePoles,
    UnitModulusRoot,
)
from toeplitz_spectra.symbol_core import (
    RECON_TOL,
    TINY,
    TrigSymbol,
    cepstral_factor,
    factor_poly,
    fourier_coeffs,
    inverse_series,
    laurent_roots,
    partial_fractions,
    series_cut,
    series_quotient,
    symbol_from_spec,
    wiener_hopf_factor,
)

from helpers import (exp_sum_symbol, full_series_quotient, poly_from_factors,
                     subnormal_parts, symbol_from_inside_roots)

EPS = np.finfo(float).eps


class TestFourierCoeffs:
    def test_two_minus_two_cos(self):
        c = fourier_coeffs(lambda t: 2 - 2 * np.cos(t), d=1, grid_size=64)
        assert np.allclose(c, [-1, 2, -1], atol=1e-13)

    def test_constant(self):
        c = fourier_coeffs(lambda t: 3.5 * np.ones_like(t), d=0, grid_size=16)
        assert np.allclose(c, [3.5], atol=1e-14)

    def test_one_pole_modulus(self):
        # |1 - 0.5 e^{i t}|^2 = 1.25 - cos t
        c = fourier_coeffs(lambda t: np.abs(1 - 0.5 * np.exp(1j * t)) ** 2,
                           d=1, grid_size=64)
        assert np.allclose(c, [-0.5, 1.25, -0.5], atol=1e-13)

    def test_grid_too_small(self):
        with pytest.raises(AliasingRisk):
            fourier_coeffs(np.cos, d=8, grid_size=32)

    def test_not_power_of_two(self):
        with pytest.raises(AliasingRisk):
            fourier_coeffs(np.cos, d=1, grid_size=48)

    def test_hermitian_enforced(self):
        rng = np.random.default_rng(7)
        d = 4
        c = rng.standard_normal(2 * d + 1) + 1j * rng.standard_normal(2 * d + 1)
        c = 0.5 * (c + np.conj(c[::-1]))
        sym = TrigSymbol(c)

        got = fourier_coeffs(sym, d=d, grid_size=256)
        assert np.allclose(got, sym.coeffs, atol=1e-13)
        assert np.allclose(got, np.conj(got[::-1]), atol=0)


class TestTrigSymbol:
    def test_cosine_form(self):
        sym = TrigSymbol.from_cosine([2.0, -2.0])
        assert sym.parity
        assert sym.degree == 1
        assert sym.coeff(0) == 2.0 and sym.coeff(1) == -1.0
        assert np.allclose(sym(np.array([0.0, np.pi])), [0.0, 4.0])

    def test_json_forms(self):
        s1 = symbol_from_spec({"cosine": [1.25, -1.0]})
        s2 = symbol_from_spec({"coeffs": [[-0.5, 0], [1.25, 0], [-0.5, 0]],
                               "offset": -1})
        assert np.allclose(s1.coeffs, s2.coeffs)
        with pytest.raises(ValueError):
            symbol_from_spec({"nope": 1})

    def test_parity_is_measured_not_passed(self):
        with pytest.raises(TypeError):
            TrigSymbol(np.array([0.5j, 2.0, -0.5j]), parity=True)
        assert not TrigSymbol(np.array([0.5j, 2.0, -0.5j])).parity

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            TrigSymbol(np.array([1.0, 0.0, 2.0]))

    def test_degree_trim(self):
        sym = TrigSymbol.from_cosine([1.0, 0.5, 0.0])
        assert sym.degree == 1

    def test_from_cosine_layout(self):
        sym = TrigSymbol.from_cosine([3.0, -1.0, 0.4])
        assert np.array_equal(sym.coeffs, [0.2, -0.5, 3.0, -0.5, 0.2])
        assert np.array_equal(TrigSymbol.from_cosine([2.5]).coeffs, [2.5])

    @pytest.mark.parametrize("d", range(41))
    def test_horner_matches_exp_sum(self, d):
        rng = np.random.default_rng(100 + d)
        half = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        c = np.concatenate([np.conj(half[:0:-1]), [half[0].real], half[1:]])
        sym = TrigSymbol(c)
        j = np.abs(np.arange(-d, d + 1))
        tol_f = 4 * EPS * (d + 1) * np.abs(c).sum()
        tol_df = 4 * EPS * (d + 1) * np.abs(j * c).sum()
        theta = np.concatenate([rng.uniform(-7.0, 7.0, 200),
                                [0.0, np.pi / 2, np.pi, 2 * np.pi]])
        f, df = exp_sum_symbol(sym, theta)
        assert np.max(np.abs(sym(theta) - f)) <= tol_f
        assert np.max(np.abs(sym.derivative(theta) - df)) <= tol_df
        # a scalar angle gives a scalar, an (m, n) array an (m, n) array
        f1, df1 = exp_sum_symbol(sym, 1.3)
        assert np.ndim(sym(1.3)) == 0 and abs(sym(1.3) - f1) <= tol_f
        assert np.ndim(sym.derivative(1.3)) == 0
        assert abs(sym.derivative(1.3) - df1) <= tol_df
        grid = theta[:200].reshape(20, 10)
        assert sym(grid).shape == sym.derivative(grid).shape == (20, 10)
        assert np.array_equal(sym(grid).ravel(), sym(theta[:200]))


class TestLaurentRoots:
    def test_quadratic(self):
        # 1.25 - cos t lifts to -0.5 + 1.25 z - 0.5 z^2 with roots 0.5 and 2
        rs = laurent_roots(TrigSymbol.from_cosine([1.25, -1.0]).coeffs)
        assert rs.inside == ((0.5 + 0j, 1),)
        (root, mult), = rs.outside
        assert mult == 1 and abs(root - 2.0) < 1e-12

    def test_double_roots(self):
        # (z - 0.5)^2 (z - 2)^2 = 1 - 5 z + 8.25 z^2 - 5 z^3 + z^4
        rs = laurent_roots(
            np.array([1.0, -5.0, 8.25, -5.0, 1.0], dtype=complex))
        assert len(rs.inside) == 1 and len(rs.outside) == 1
        (ri, mi), = rs.inside
        (ro, mo), = rs.outside
        assert mi == 2 and mo == 2
        assert abs(ri - 0.5) < 1e-9 and abs(ro - 2.0) < 1e-9

    def test_unit_modulus(self):
        with pytest.raises(UnitModulusRoot):
            laurent_roots(np.array([-1.0, 0.0, 1.0], dtype=complex))

    def test_roundtrip_random_roots(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = rng.integers(1, 4)
            roots, mults = [], []
            for _ in range(k):
                r = rng.uniform(0.1, 0.85) * np.exp(2j * np.pi * rng.random())
                if rng.random() < 0.5:
                    r = 1.0 / np.conj(r)  # outside
                if all(abs(r - q) > 1e-5 for q in roots):
                    roots.append(r)
                    mults.append(int(rng.integers(1, 3)))
            expanded = []
            for r, m in zip(roots, mults):
                expanded.extend([r] * m)
            coeffs = np.array([1.0 + 0j])
            for r in expanded:
                coeffs = np.convolve(coeffs, np.array([-r, 1.0]))
            rs = laurent_roots(coeffs)
            found = {**dict(rs.inside), **dict(rs.outside)}
            assert sum(found.values()) == len(expanded)
            for r, m in zip(roots, mults):
                match = min(found, key=lambda z: abs(z - r))
                assert abs(match - r) < 1e-6
                assert found[match] == m


class TestWienerHopf:
    def test_one_pole(self):
        fac = wiener_hopf_factor(TrigSymbol.from_cosine([1.25, -1.0]))
        assert abs(fac.scale - 1.0) < 1e-10
        assert abs(fac.phase - 1.0) < 1e-10
        ((w, s),) = fac.g1_factors
        assert s == 1 and abs(w - 0.5) < 1e-12
        ((a, s2),) = fac.g2_factors
        assert s2 == 1 and abs(a - 0.5) < 1e-12

    def test_constant(self):
        fac = wiener_hopf_factor(TrigSymbol.constant(4.0))
        assert fac.scale == 4.0 and fac.g1_factors == () and fac.g2_factors == ()
        fac_neg = wiener_hopf_factor(TrigSymbol.constant(-2.0))
        assert fac_neg.scale == 2.0 and fac_neg.phase == -1.0

    def test_squared_symbol(self):
        # (1.25 - cos t)^2 = 2.0625 - 2.5 cos t + 0.5 cos 2t
        fac = wiener_hopf_factor(TrigSymbol.from_cosine([2.0625, -2.5, 0.5]))
        assert abs(fac.scale - 1.0) < 1e-9
        ((w, s),) = fac.g1_factors
        assert s == 2 and abs(w - 0.5) < 1e-7

    def test_reconstruction_random(self):
        rng = np.random.default_rng(3)
        theta = np.linspace(0, 2 * np.pi, 512, endpoint=False)
        for _ in range(15):
            k = int(rng.integers(1, 4))
            roots = []
            while len(roots) < k:
                if rng.random() < 0.4 and k - len(roots) >= 2:
                    z = rng.uniform(0.15, 0.9) * np.exp(
                        1j * rng.uniform(0.1, np.pi - 0.1))
                    roots.extend([z, np.conj(z)])
                else:
                    roots.append(rng.uniform(-0.9, 0.9))
            scale = rng.uniform(0.5, 3.0) * (1 if rng.random() < 0.8 else -1)
            sym = symbol_from_inside_roots(roots, scale)
            fac = wiener_hopf_factor(sym)
            fvals = sym(theta)
            sup = np.max(np.abs(fvals))
            assert np.max(np.abs(fac.reconstruct(theta) - fvals)) <= 1e-9 * sup
            assert fac.scale > 0

    @staticmethod
    def _assert_factors(sym, n):
        fac = wiener_hopf_factor(sym)
        assert fac.n0 == n
        theta = np.linspace(0, 2 * np.pi, 512, endpoint=False)
        fvals = sym(theta)
        assert np.max(np.abs(fac.reconstruct(theta) - fvals)) \
            <= RECON_TOL * np.max(np.abs(fvals))

    @pytest.mark.parametrize("roots", [[0.75, 0.75, 0.6875, 0.5],
                                       [0.5, 0.5, 0.5]])
    def test_repeated_roots_factor(self, roots):
        # a repeated root moved by about sqrt(eps), as Newton on a
        # derivative moves it, no longer reconstructs the symbol
        self._assert_factors(symbol_from_inside_roots(roots, 1.0), len(roots))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_reconstruction(self, data):
        # unpaired complex inside roots, at least 0.01 apart; the first is
        # repeated m times.  A triple root of modulus above 0.7 with other
        # roots within 0.3 can still fail, as can multiplicity 5 and more.
        n = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(1, min(n, 3)))
        k = n - m + 1
        mods = [data.draw(st.floats(0.05, 0.9 if m < 3 else 0.7))] + \
            data.draw(st.lists(st.floats(0.05, 0.9), min_size=k - 1,
                               max_size=k - 1))
        args = data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=k,
                                  max_size=k))
        roots = np.array(mods) * np.exp(1j * np.array(args))
        assume(np.min(np.abs(roots[:, None] - roots[None, :]) + np.eye(k),
                      initial=1.0) >= 0.01)
        self._assert_factors(symbol_from_inside_roots(
            np.concatenate([np.repeat(roots[:1], m), roots[1:]]),
            data.draw(st.floats(0.5, 2.0))), n)

    def test_pf_reconstruction_on_circle(self):
        sym = symbol_from_inside_roots([0.5, 0.5, -0.3], 1.0)
        fac = wiener_hopf_factor(sym)
        rng = np.random.default_rng(5)
        z = 0.99 * np.exp(2j * np.pi * rng.random(16))
        lhs = 1.0 / np.prod(
            [(1 - w * z) ** s for w, s in fac.g1_factors], axis=0)
        rhs = sum(c / (1 - w * z) ** h
                  for w, h, c in partial_fractions(fac.g1_factors))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(lhs))

    def test_unbalanced_rejected(self):
        # hand-made non-Hermitian coefficient data cannot even be built as a
        # symbol; unbalance instead arises when root pairing breaks, which the
        # reconstruction check converts into UnbalancedWinding
        c = np.array([0.2, 1.0, 0.2])  # roots both inside or both outside?
        sym = TrigSymbol(c)
        rs = laurent_roots(sym.coeffs)
        assert rs.balanced  # real symbols always balance; sanity guard


class TestFactorPoly:
    def test_stack_matches_rows_and_convolution(self):
        rng = np.random.default_rng(6)
        for r in range(5):
            w = rng.standard_normal((7, r)) + 1j * rng.standard_normal((7, r))
            g = factor_poly(w)
            assert g.shape == (7, r + 1)
            for s in range(7):
                assert np.array_equal(g[s], factor_poly(w[s]))
                want = poly_from_factors(w[s])
                assert np.max(np.abs(g[s] - want)) \
                    <= 4 * EPS * np.max(np.abs(want))

    def test_factorization_g(self):
        # f = C * phase * conj(g)(chi) * g(chibar) on the circle
        sym = symbol_from_inside_roots([0.5, 0.5, -0.3 + 0.4j, 0.6j], 1.5)
        fac = wiener_hopf_factor(sym)
        assert fac.g.size == fac.n0 + 1 and not fac.g.flags.writeable
        chi = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
        P = np.polynomial.polynomial
        prod = (fac.scale * fac.phase * P.polyval(chi, np.conj(fac.g))
                * P.polyval(np.conj(chi), fac.g))
        assert np.max(np.abs(prod - sym(np.angle(chi)))) <= 1e-12


def assert_cut(got, want):
    """Each coefficient is ``want``'s bit for bit, or a zero where
    |want| < TINY."""
    same = got.view(float).reshape(-1, 2) == want.view(float).reshape(-1, 2)
    assert np.all(same.all(axis=1) | ((got == 0) & (np.abs(want) < TINY)))


class TestSeriesQuotient:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_cut_against_full_recursion(self, data):
        # degree 0-6 (rho = 0 at degree 0), moduli 0.05-0.99, multiplicity
        # <= 3; every coefficient is the uncut one bit for bit, or an exact
        # zero where the uncut one is below TINY
        degree, roots = data.draw(st.integers(0, 6)), []
        while len(roots) < degree:
            a = data.draw(st.floats(0.05, 0.99)) * np.exp(
                1j * data.draw(st.floats(0.0, 2 * np.pi)))
            roots += [a] * data.draw(st.integers(1, 3))
        roots = roots[:degree]
        g = factor_poly(roots)
        rho = max(np.abs(roots), default=0.0)
        size = data.draw(st.integers(1, 20000))
        support = data.draw(st.integers(1, size))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        y = rng.standard_normal(support) + 1j * rng.standard_normal(support)
        if data.draw(st.booleans()):
            y[:-1] = 0.0                    # a unit-like right-hand side
        norm = 10.0 ** data.draw(st.floats(-20.0, 6.0))
        y *= norm / np.abs(y).sum()
        assert_cut(series_quotient(g, y, size, series_cut(g.size - 1, rho),
                                   norm), full_series_quotient(g, y, size))

    @pytest.mark.parametrize("roots, norm", [
        # n = 1, where the majorant is the series: the cut needs its
        # log(norm) / -log_rate extra terms
        ([0.6], 1e6),
        # a 6-fold root, moved by rounding: without the margin the series
        # past the cut reaches 5.6 TINY
        ([0.005062006441589562 + 0.7443792978540563j] * 6, 1.0)])
    def test_cut_on_tight_majorants(self, roots, norm):
        g = factor_poly(roots)
        y = np.array([0.0, 0.0, norm])
        got = series_quotient(g, y, 6000,
                              series_cut(len(roots), max(np.abs(roots))), norm)
        assert_cut(got, full_series_quotient(g, y, 6000))
        assert got[-1] == 0

    def test_cut_reached(self):
        # roots 0.3, 0.5i, -0.4: the cut lies past the index where the series
        # falls below TINY, a few dozen terms before 1 100
        g = factor_poly([0.3, 0.5j, -0.4])
        reach, log_rate = series_cut(3, 0.5)
        assert 1000 < reach < 1100 and -0.7 < log_rate < -0.65
        y = np.ones(5)
        got = series_quotient(g, y, 4000, (reach, log_rate), 5.0)
        assert np.all(got[reach + 7:] == 0) and np.all(got[:reach] != 0)
        assert series_cut(0, 0.0) == (1, -np.inf)
        assert series_cut(6, 0.995) is None        # margin 0.013
        assert np.array_equal(series_quotient(g, y, 4000, None),
                              full_series_quotient(g, y, 4000))

    def test_cut_skipped_below_its_lower_bound(self):
        # reach > log(TINY) / log r = 1 022.1 for n = 3, rho = 0.5: a series
        # of at most that many terms needs no cut, and gets none
        g = factor_poly([0.3, 0.5j, -0.4])
        bound = np.log(TINY) / np.log(0.5 + 4.0 * (3 * EPS) ** (1 / 3))
        assert series_cut(3, 0.5, 1022) is None and 1022 <= bound < 1023
        assert series_cut(3, 0.5, 1023) == series_cut(3, 0.5) \
            == series_cut(3, 0.5, 10 ** 6)
        y = np.ones(5)
        for size in (1022, 1030):
            assert np.array_equal(
                series_quotient(g, y, size, series_cut(3, 0.5, size), 5.0),
                series_quotient(g, y, size, series_cut(3, 0.5), 5.0))

    def test_inverse_series_has_no_subnormals(self):
        # the full recursion holds 2 615 subnormal terms here
        g = factor_poly([0.6])
        want = full_series_quotient(g, [1.0], 4002)
        got = inverse_series(g, 4002, series_cut(1, 0.6))
        assert subnormal_parts(want) == 2615 and subnormal_parts(got) == 0
        big = np.abs(want) >= TINY
        assert np.array_equal(got[big], want[big]) and not got[~big].any()


class TestPartialFractions:
    def test_two_simple_poles(self):
        out = partial_fractions([(0.5, 1), (1 / 3, 1)])
        coefs = {round(w.real, 6): c for w, h, c in out}
        assert abs(coefs[0.5] - 3.0) < 1e-12
        assert abs(coefs[round(1 / 3, 6)] + 2.0) < 1e-12

    def test_single_pole(self):
        ((w, h, c),) = partial_fractions([(0.7 + 0.1j, 1)])
        assert h == 1 and abs(c - 1.0) < 1e-14

    def test_double_pole_identity(self):
        out = {h: c for _, h, c in partial_fractions([(0.5, 2)])}
        assert abs(out[2] - 1.0) < 1e-14
        assert abs(out[1]) < 1e-14

    def test_coincident_rejected(self):
        with pytest.raises(DegeneratePoles):
            partial_fractions([(0.5, 1), (0.5 + 1e-14, 1)])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            poles = []
            while len(poles) < k:
                w = rng.uniform(0.2, 0.9) * np.exp(2j * np.pi * rng.random())
                if all(abs(w - p) > 0.05 for p, _ in poles):
                    poles.append((w, int(rng.integers(1, 4))))
            out = partial_fractions(poles)
            z = 0.99 * np.exp(2j * np.pi * rng.random(16))
            lhs = np.ones_like(z)
            for w, m in poles:
                lhs /= (1 - w * z) ** m
            rhs = sum(c / (1 - w * z) ** h for w, h, c in out)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(lhs))


class TestCepstralFactor:
    def test_recovers_polynomial_factor(self):
        p = cepstral_factor(lambda t: np.abs(1 - 0.5 * np.exp(1j * t)) ** 2,
                            degree=6)
        assert np.allclose(p[:2], [1.0, -0.5], atol=1e-12)
        assert np.max(np.abs(p[2:])) < 1e-12

    def test_constant(self):
        p = cepstral_factor(lambda t: 4.0 * np.ones_like(t), degree=2)
        assert abs(p[0] - 2.0) < 1e-12 and np.max(np.abs(p[1:])) < 1e-13
