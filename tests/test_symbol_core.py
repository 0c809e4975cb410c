import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from toeplitz_spectra.errors import (
    AliasingRisk,
    DegeneratePoles,
    UnbalancedWinding,
    UnitModulusRoot,
)
from toeplitz_spectra.symbol_core import (
    RECON_TOL,
    TrigSymbol,
    cepstral_factor,
    fourier_coeffs,
    laurent_roots,
    partial_fractions,
    symbol_from_spec,
    wiener_hopf_factor,
)

from helpers import poly_from_factors, symbol_from_inside_roots


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

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            TrigSymbol(np.array([1.0, 0.0, 2.0]))

    def test_degree_trim(self):
        sym = TrigSymbol.from_cosine([1.0, 0.5, 0.0])
        assert sym.degree == 1


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
