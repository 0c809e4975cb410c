import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from toeplitz_spectra import band_decay
from toeplitz_spectra.band_decay import (
    BandSymbol,
    RegularSymbol,
    approx_regular,
    band_decay_report,
    corollary_decay_check,
    modulus_squared_symbol,
    perturbation_inequality_check,
)
from toeplitz_spectra.errors import ApproxFailure, WindowTooSmall
from toeplitz_spectra.hankel_inversion import hankel_product_matrix
from toeplitz_spectra.symbol_core import (RootSet, SpectralFactorization,
                                          TrigSymbol)
from toeplitz_spectra.toeplitz_core import build, dense_invert

from helpers import symbol_from_inside_roots


def _exact_band(roots, mult, scale):
    """Band symbol scale * prod |1 - a chi|^2, factored from its own roots.

    Built without root finding, so that a draw tests the report and not
    ``wiener_hopf_factor`` on ill-conditioned roots.
    """
    sym = symbol_from_inside_roots(np.repeat(roots, mult), scale)
    # the Laurent lift of |1 - a chi|^2 has its inside root at conj(a)
    inside = tuple(zip(np.conj(roots), mult))
    fac = SpectralFactorization(
        scale=scale, phase=1.0 + 0j,
        roots=RootSet(inside, tuple((1.0 / np.conj(a), s)
                                    for a, s in inside)),
        symbol=sym)
    return BandSymbol(fac)


class TestBandDecayReport:
    def test_one_pole_slope(self):
        band = BandSymbol.from_symbol(TrigSymbol.from_cosine([1.25, -1.0]))
        assert band.rho == pytest.approx(0.5, abs=1e-12)
        rep = band_decay_report(band, 60, check_oracle=True)
        assert rep.oracle_gap < 1e-9
        assert abs(rep.slope - np.log(0.5)) < 0.05

    def test_constant_exact_band(self):
        band = BandSymbol.from_symbol(TrigSymbol.constant(2.0))
        rep = band_decay_report(band, 12)
        assert rep.exact_band
        assert all(m == 0 for m in rep.magnitudes[1:])

    def test_two_root_slope(self):
        # roots {0.5, 0.8}: (1.25 - cos t)(1.64 - 1.6 cos t)
        band = BandSymbol.from_symbol(
            TrigSymbol.from_cosine([2.85, -3.64, 0.8]))
        assert band.rho == pytest.approx(0.8, abs=1e-10)
        rep = band_decay_report(band, 80)
        assert abs(rep.slope - np.log(0.8)) < 0.05

    def test_window_too_small(self):
        band = BandSymbol.from_symbol(TrigSymbol.from_cosine([1.25, -1.0]))
        with pytest.raises(WindowTooSmall):
            band_decay_report(band, 5)

    def test_random_band_symbols(self):
        # moduli are kept separated by a factor 0.8: with near-tied moduli the
        # subdominant root still contributes over the fit window at these
        # orders and biases the fitted slope outside the +-0.08 band
        rng = np.random.default_rng(41)
        for N in (40, 80):
            for _ in range(3):
                n0 = int(rng.integers(1, 4))
                while True:
                    roots = []
                    while len(roots) < n0:
                        if n0 - len(roots) >= 2 and rng.random() < 0.3:
                            z = rng.uniform(0.2, 0.85) * np.exp(
                                1j * rng.uniform(0.3, np.pi - 0.3))
                            roots += [z, np.conj(z)]
                        else:
                            roots.append(float(rng.uniform(0.2, 0.85))
                                         * rng.choice([-1, 1]))
                    mods = sorted({round(abs(r), 6) for r in roots})
                    if all(a <= 0.8 * b for a, b in zip(mods, mods[1:])):
                        break
                band = BandSymbol.from_symbol(symbol_from_inside_roots(roots))
                rep = band_decay_report(band, N)
                assert abs(rep.slope - np.log(band.rho)) < 0.08, (roots, N)

    def test_negative_definite_section(self):
        # f < 0: the section is negative definite and x_0 = T^{-1}[0, 0] < 0
        neg = band_decay_report(
            BandSymbol.from_symbol(TrigSymbol.from_cosine([-1.25, 1.0])), 60,
            check_oracle=True)
        pos = band_decay_report(
            BandSymbol.from_symbol(TrigSymbol.from_cosine([1.25, -1.0])), 60)
        assert neg.oracle_gap <= 1e-12
        assert neg.magnitudes == pos.magnitudes

    def test_one_invert_apply_call(self, monkeypatch):
        calls = []
        invert_apply = band_decay.invert_apply

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return invert_apply(*args, **kwargs)

        band = BandSymbol.from_symbol(
            TrigSymbol.from_cosine([2.85, -3.64, 0.8]))
        monkeypatch.setattr(band_decay, "invert_apply", counting)
        band_decay_report(band, 80)
        assert len(calls) == 1

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_property_against_dense(self, data):
        # unpaired complex inside roots, so the symbol is complex Hermitian
        n = data.draw(st.integers(1, 6))
        double = n < 6 and data.draw(st.booleans())
        mods = data.draw(st.lists(st.floats(0.05, 0.9), min_size=n,
                                  max_size=n))
        args = data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n,
                                  max_size=n))
        roots = np.array(mods) * np.exp(1j * np.array(args))
        gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(n)
        assume(gaps.min() >= 0.01)
        mult = [2 if double and i == 0 else 1 for i in range(n)]
        band = _exact_band(roots, mult, data.draw(st.floats(0.5, 2.0)))
        N = data.draw(st.integers(2 * band.n0 + 4, 64))
        assume(hankel_product_matrix(band.factorization, N).norm2 < 1.0)
        rep = band_decay_report(band, N, check_oracle=True)
        T = build(band.symbol, N)
        inv = dense_invert(T)
        dense_mags = np.array([np.max(np.abs(np.diagonal(inv, offset=d)))
                               for d in range(N + 1)])
        # the dense oracle is itself only good to about cond * eps
        tol = (1e-9 + np.linalg.cond(T.dense()) * np.finfo(float).eps) \
            * np.max(np.abs(inv))
        assert rep.oracle_gap <= tol
        assert np.max(np.abs(np.array(rep.magnitudes) - dense_mags)) <= tol


class TestApproxRegular:
    def test_recovers_exact_factor(self):
        f = RegularSymbol(lambda t: np.abs(1 - 0.5 * np.exp(1j * t)) ** 2)
        p = approx_regular(f, 1e-10)
        assert abs(abs(p[0]) - 1.0) < 1e-9
        assert abs(p[1] / p[0] + 0.5) < 1e-9

    def test_constant(self):
        f = RegularSymbol(lambda t: 4.0 * np.ones_like(t))
        p = approx_regular(f, 1e-12)
        assert abs(p[0] - 2.0) < 1e-10

    def test_exp_cos(self):
        f = RegularSymbol(lambda t: np.exp(np.cos(t)))
        p = approx_regular(f, 1e-6)
        assert p.size - 1 <= 24
        theta = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
        pv = np.polynomial.polynomial.polyval(np.exp(1j * theta), p)
        assert np.max(np.abs(np.abs(pv) ** 2 - np.exp(np.cos(theta)))) <= 1e-6

    def test_roots_outside(self):
        f = RegularSymbol(lambda t: np.exp(np.cos(t)))
        p = approx_regular(f, 1e-6)
        roots = np.roots(p[::-1])
        assert np.min(np.abs(roots)) > 1.0

    def test_cap_failure(self):
        f = RegularSymbol(lambda t: np.exp(np.cos(t)))
        with pytest.raises(ApproxFailure) as err:
            approx_regular(f, 1e-30, degree_cap=16)
        assert err.value.achieved is not None

    def test_not_positive_rejected(self):
        with pytest.raises(ValueError):
            RegularSymbol(np.cos)


class TestCorollaryDecay:
    def test_exp_cos(self):
        f = RegularSymbol(lambda t: np.exp(np.cos(t)))
        rep = corollary_decay_check(f, 60, 1.5)
        assert rep.bound_constant is not None and np.isfinite(rep.bound_constant)
        assert rep.slope <= -np.log(1.5) + 0.1

    def test_constant(self):
        f = RegularSymbol(lambda t: 3.0 * np.ones_like(t))
        rep = corollary_decay_check(f, 20, 1.5)
        assert all(m < 1e-14 for m in rep.magnitudes[1:])

    def test_perturbed_modulus(self):
        base = RegularSymbol(
            lambda t: np.abs(1 - 0.5 * np.exp(1j * t)) ** 2)
        pert = RegularSymbol(
            lambda t: np.abs(1 - 0.5 * np.exp(1j * t)) ** 2
            + 0.01 * np.cos(2 * t))
        r0 = corollary_decay_check(base, 60, 1.8)
        r1 = corollary_decay_check(pert, 60, 1.8)
        assert abs(r0.slope - r1.slope) < 0.1

    def test_bad_rho(self):
        f = RegularSymbol(lambda t: np.exp(np.cos(t)))
        with pytest.raises(ValueError):
            corollary_decay_check(f, 30, 0.9)


class TestPerturbationInequality:
    def test_exp_cos_n40(self):
        f = RegularSymbol(lambda t: np.exp(np.cos(t)))
        chk = perturbation_inequality_check(f, 40)
        assert chk.q < 1.0
        assert chk.holds

    def test_modulus_squared_symbol(self):
        p = np.array([1.0, -0.5])
        sym = modulus_squared_symbol(p)
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        want = np.abs(1 - 0.5 * np.exp(1j * theta)) ** 2
        assert np.max(np.abs(sym(theta) - want)) < 1e-14
