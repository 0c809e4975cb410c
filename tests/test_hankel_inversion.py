import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from toeplitz_spectra import hankel_inversion
from toeplitz_spectra.errors import RefinementFailure
from toeplitz_spectra.hankel_inversion import (
    MAX_REFINEMENT_STEPS,
    RESIDUAL_TOL,
    _cached_context,
    hankel_half,
    hankel_product_matrix,
    inverse_entry,
    invert_apply,
)
from toeplitz_spectra.symbol_core import (TrigSymbol, factor_poly,
                                         wiener_hopf_factor)
from toeplitz_spectra.toeplitz_core import build, dense_invert

from helpers import (
    MULTIPLICITY_CASES,
    NEAR_CIRCLE_ROOTS,
    brute_hankel_product,
    factorization_from_roots,
    full_series_quotient,
    gram_norm,
    gram_similar,
    largest_eigenvalues,
    mp_context_product,
    mp_inverse_series,
    recursion_hankel_halves,
    subnormal_parts,
    symbol_from_inside_roots,
)


def _brute_product(fac, N, dim):
    plus = [w for w, s in fac.g1_factors for _ in range(s)]
    minus = [a for a, s in fac.g2_factors for _ in range(s)]
    return brute_hankel_product(plus, minus, fac.scale * fac.phase, N, dim)


@pytest.fixture(scope="module")
def one_pole_factor():
    return wiener_hopf_factor(TrigSymbol.from_cosine([1.25, -1.0]))


@pytest.fixture(scope="module")
def two_pole_factor():
    # inside roots 0.5 and -0.35: degree-2 positive symbol
    return wiener_hopf_factor(symbol_from_inside_roots([0.5, -0.35]))


class TestProductMatrix:
    def test_one_pole_magnitude(self, one_pole_factor):
        N = 10
        H = hankel_product_matrix(one_pole_factor, N)
        assert H.entries.shape == (1, 1)
        assert abs(abs(H.entries[0, 0]) - 0.5 ** (2 * N + 4)) < 1e-18

    def test_shrink_per_step(self, one_pole_factor):
        mags = [abs(hankel_product_matrix(one_pole_factor, N).entries[0, 0])
                for N in range(5, 16)]
        ratios = np.array(mags[1:]) / np.array(mags[:-1])
        assert np.allclose(ratios, 0.25, rtol=1e-10)

    def test_constant_symbol(self):
        fac = wiener_hopf_factor(TrigSymbol.constant(3.0))
        H = hankel_product_matrix(fac, 6)
        assert H.dim == 0 and H.norm2 == 0.0

    def test_matches_truncation_oracle(self, two_pole_factor):
        # basis-free: M's eigenvalues are the nonzero ones of the operator
        fac = two_pole_factor
        N = 5
        P = _brute_product(fac, N, 128)
        M = hankel_product_matrix(fac, N).entries
        got = np.sort_complex(np.linalg.eigvals(M))
        want = largest_eigenvalues(P, M.shape[0])
        assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))

    def test_norm_decay_slope(self, two_pole_factor):
        rho = two_pole_factor.rho
        Ns = np.arange(8, 25)
        norms = [hankel_product_matrix(two_pole_factor, int(N)).norm2
                 for N in Ns]
        slope = np.polyfit(Ns, np.log(norms), 1)[0]
        assert abs(slope - 2 * np.log(rho)) < 0.1 * abs(2 * np.log(rho))

    def test_basis_dimension(self):
        fac = wiener_hopf_factor(symbol_from_inside_roots([0.5, 0.5, -0.3]))
        H = hankel_product_matrix(fac, 8)
        assert H.dim == 3
        assert H.entries.shape == (3, 3)

    @pytest.mark.parametrize("roots, N", [
        ([0.55 + 0.25j, 0.55 - 0.25j, -0.4], 14),
        ([0.3 + 0.6j, -0.7, 0.2j], 20),
    ])
    def test_norm_is_operator_norm(self, roots, N):
        # complex poles: norm2 must be the 2-norm of the composed maps on
        # the whole space (their range is E)
        fac = wiener_hopf_factor(symbol_from_inside_roots(roots))
        want = np.linalg.norm(_brute_product(fac, N, 200), 2)
        got = hankel_product_matrix(fac, N).norm2
        assert abs(got - want) <= 1e-10 * want

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_norm_matches_gram_oracle(self, data):
        # the spectral radius of M against its operator norm in the Stein
        # Gram inner product.  On clustered roots near the circle M is
        # rounded far from self-adjoint in that basis (both routes then read
        # above 1), so twice the measured anti-Hermitian part E of
        # H = R M R^{-1} is allowed: by Bauer-Fike the eigenvalues of H lie
        # within ||E|| of those of its Hermitian part K, and ||H|| within
        # ||E|| of ||K||.  Where M is sound, E is at rounding level
        n = data.draw(st.integers(1, 6))
        mods = data.draw(st.lists(st.floats(0.05, 0.95), min_size=n,
                                  max_size=n))
        args = data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n,
                                  max_size=n))
        roots = np.array(mods) * np.exp(1j * np.array(args))
        gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(n)
        assume(gaps.min() >= 0.01)
        fac = factorization_from_roots(zip(roots, [1] * n))
        N = data.draw(st.integers(0, 64))
        with warnings.catch_warnings():     # ill-conditioned Stein solves
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            want, H = gram_norm(fac, N), gram_similar(fac, N)
        defect = np.linalg.norm(H - H.conj().T, 2) / 2
        got = hankel_product_matrix(fac, N).norm2
        assert abs(got - want) <= 1e-12 * want + 2 * defect


class TestHankelHalf:
    @staticmethod
    def pairs(rng, r):
        """Factor pairs of degree r with independent plus and minus poles:
        two with simple poles (one unimodular), then for r >= 2 a double
        root in plus, and double roots on both sides."""
        def poles(double=False):
            w = rng.uniform(0.2, 1.0, r) * np.exp(2j * np.pi * rng.random(r))
            if double:
                w[-2] = w[-1]
            return w
        pairs = [(poles(), poles()) for _ in range(2)]
        pairs[0][0][0] = np.exp(-0.7j)
        if r >= 2:
            pairs += [(poles(True), poles()), (poles(True), poles(True))]
        return [(tuple((w, 1) for w in a), tuple((w, 1) for w in b))
                for a, b in pairs]

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("N", [0, 1, 7, 64, 500])
    def test_matches_recursion_oracle(self, r, N):
        # both halves of a stack of factor pairs, and the context's M for
        # the conjugate pair built from the minus poles.  On a repeated
        # root the companion power loses digits that the forward recursion
        # keeps: against 50-digit mpmath series, over 100 random draws at
        # N = 500, a double root cost up to 5e-7 of max|V| at r = 4 (the
        # recursion 5e-11), a triple root 2e-5 at r = 3 and 0.14 at r = 4
        # (the recursion 2e-8)
        pairs = self.pairs(np.random.default_rng([r, N]), r)
        g1, g2 = (np.array([factor_poly([w for w, _ in side])
                            for side in sides]) for sides in zip(*pairs))
        V12, V21 = hankel_half(g1, g2, N), hankel_half(g2, g1, N)
        assert V12.shape == (len(pairs), r, r)
        for s, (plus, minus) in enumerate(pairs):
            tol = 1e-11 if s < 2 else 1e-6
            H12, H21 = recursion_hankel_halves(plus, minus, N)
            for got, half in ((V12[s], H12), (V21[s], H21)):
                assert np.max(np.abs(got - half)) \
                    <= tol * np.max(np.abs(half)), s
            # the context reads its far terms from the forward recursion
            # too, so its M needs no allowance for repeated roots (the
            # companion power was off by 2.8e-9 of max|M| on the double
            # root of s = 3 at r = 4, N = 64); TestMpmathOracle is the
            # independent check of that recursion
            conj_minus = tuple((np.conj(q), m) for q, m in minus)
            H12, H21 = recursion_hankel_halves(conj_minus, minus, N)
            want = H12 @ H21
            M = _cached_context(factorization_from_roots(minus), N).M
            assert np.max(np.abs(M - want)) <= 1e-10 * np.max(np.abs(want)), s

    def test_degree_zero(self):
        assert hankel_half(np.ones((3, 1)), np.ones((3, 1)), 5).shape \
            == (3, 0, 0)

    def test_mismatched_pair_against_truncation(self):
        # basis-free, against the Fourier-truncated composed Hankel maps:
        # hankel_half takes any pair, not only the conjugate one
        plus, minus = (0.6 + 0.3j, -0.45), (0.3 - 0.5j, 0.7)
        N = 4
        g1, g2 = factor_poly(plus)[None], factor_poly(minus)[None]
        M = (hankel_half(g1, g2, N) @ hankel_half(g2, g1, N))[0]
        got = np.sort_complex(np.linalg.eigvals(M))
        want = largest_eigenvalues(
            brute_hankel_product(list(plus), list(minus), 1.0, N, 96), 2)
        assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))


class TestMpmathOracle:
    """The context's b and M against 50-digit mpmath series.

    Tolerances, relative to max|b| and max|M|, from the errors measured on
    these root sets: b at most 9.1e-15 (2.6e-14 over 180 random draws of
    degree 1-5 with a simple, double or triple root), M at N <= 64 at most
    5.7e-15 / 1.8e-13 / 1.5e-12 for simple / double / triple roots, and at
    N = 500 5.3e-14 / 9.7e-12 / 4.9e-10.  The context reads M's far terms
    from its own series; the companion power it took before lost 7.4e-11
    and 1.0e-5 on the triple root at N = 64 and 500.
    """

    M_TOL = {1: 1e-13, 2: 1e-12, 3: 1e-11}
    FAR_M_TOL = {1: 1e-12, 2: 1e-10, 3: 1e-8}

    @pytest.mark.parametrize("mult", sorted(MULTIPLICITY_CASES))
    @pytest.mark.parametrize("N", [0, 7, 64, 500])
    def test_series_and_product(self, mult, N):
        inside = MULTIPLICITY_CASES[mult]
        roots = [a for a, m in inside for _ in range(m)]
        ctx = _cached_context(factorization_from_roots(inside, 1.5), N)
        want_b = np.array(mp_inverse_series(roots, ctx.b.size), dtype=complex)
        assert np.max(np.abs(ctx.b - want_b)) \
            <= 1e-13 * np.max(np.abs(want_b))
        want_M = mp_context_product(roots, N)
        tol = (self.FAR_M_TOL if N > 64 else self.M_TOL)[mult]
        assert np.max(np.abs(ctx.M - want_M)) \
            <= tol * np.max(np.abs(want_M))


class TestInvertApply:
    def test_constant(self):
        fac = wiener_hopf_factor(TrigSymbol.constant(2.0))
        Q = np.array([1.0, 2.0, 3.0])
        out = invert_apply(fac, 4, Q)
        assert np.allclose(out[:3], Q / 2.0) and np.allclose(out[3:], 0)

    def test_monomial_column(self, one_pole_factor):
        N = 8
        T = build(TrigSymbol.from_cosine([1.25, -1.0]), N)
        inv = dense_invert(T)
        Q = np.zeros(4)
        Q[3] = 1.0
        out = invert_apply(one_pole_factor, N, Q)
        assert np.max(np.abs(out - inv[:, 3])) < 1e-9

    def test_double_pole_column(self):
        sym = TrigSymbol.from_cosine([2.0625, -2.5, 0.5])  # (1.25 - cos t)^2
        fac = wiener_hopf_factor(sym)
        N = 12
        inv = dense_invert(build(sym, N))
        out = invert_apply(fac, N, np.array([1.0]))
        assert np.max(np.abs(out - inv[:, 0])) < 1e-8

    def test_indefinite_scale(self):
        # negative symbol: phase -1 absorbed into g1
        sym = symbol_from_inside_roots([0.4], -1.5)
        fac = wiener_hopf_factor(sym)
        N = 6
        inv = dense_invert(build(sym, N))
        out = invert_apply(fac, N, np.array([0.0, 1.0]))
        assert np.max(np.abs(out - inv[:, 1])) < 1e-10


class TestInverseEntry:
    def test_two_by_two_corner(self, one_pole_factor):
        val = inverse_entry(one_pole_factor, 1, 0, 0)
        assert abs(val - 0.952381) < 1e-6

    def test_constant_off_diagonal(self):
        fac = wiener_hopf_factor(TrigSymbol.constant(5.0))
        assert inverse_entry(fac, 6, 2, 5) == 0
        assert abs(inverse_entry(fac, 6, 3, 3) - 0.2) < 1e-15

    def test_far_entry_against_dense(self, one_pole_factor):
        N = 30
        inv = dense_invert(build(TrigSymbol.from_cosine([1.25, -1.0]), N))
        val = inverse_entry(one_pole_factor, N, 5, 20)
        assert abs(val - inv[5, 20]) < 1e-9
        assert abs(val) <= 10 * 0.5 ** 15

    def test_random_rational_symbols(self):
        rng = np.random.default_rng(23)
        for trial in range(8):
            n0 = int(rng.integers(1, 4))
            roots = []
            while len(roots) < n0:
                if n0 - len(roots) >= 2 and rng.random() < 0.4:
                    z = rng.uniform(0.2, 0.85) * np.exp(
                        1j * rng.uniform(0.2, np.pi - 0.2))
                    roots += [z, np.conj(z)]
                else:
                    r = float(rng.uniform(0.2, 0.85)) * rng.choice([-1, 1])
                    roots.append(r)
            sym = symbol_from_inside_roots(roots, float(rng.uniform(0.5, 2)))
            fac = wiener_hopf_factor(sym)
            N = int(rng.integers(8, 41))
            inv = dense_invert(build(sym, N))
            worst = 0.0
            for _ in range(20):
                k = int(rng.integers(0, N + 1))
                l = int(rng.integers(0, N + 1))
                worst = max(worst, abs(inverse_entry(fac, N, k, l)
                                       - inv[k, l]))
            assert worst < 1e-8, f"trial {trial}: {worst}"

    def test_hermitian_complex_symbol(self):
        # complex conjugate root pair plus a real root: entries stay
        # conjugate-symmetric and match the dense oracle off the diagonal
        sym = symbol_from_inside_roots([0.55 + 0.25j, 0.55 - 0.25j, -0.4])
        fac = wiener_hopf_factor(sym)
        N = 14
        inv = dense_invert(build(sym, N))
        for (k, l) in [(0, 9), (9, 0), (3, 11), (11, 3), (7, 7)]:
            val = inverse_entry(fac, N, k, l)
            assert abs(val - inv[k, l]) < 1e-9
        a = inverse_entry(fac, N, 3, 11)
        b = inverse_entry(fac, N, 11, 3)
        assert abs(a - np.conj(b)) < 1e-12

    def test_invertibility_when_norm_small(self, two_pole_factor):
        for N in (8, 16, 24):
            H = hankel_product_matrix(two_pole_factor, N)
            assert H.norm2 < 1.0
            dense_invert(build(two_pole_factor.symbol, N))  # must not raise

    @pytest.mark.parametrize("N", [2, 20, 100])
    def test_refinement_failure_reported(self, N):
        # a real positive symbol with inside roots near the circle: cond(T_2)
        # is only 1.1e2, but the formula diverges under refinement, and a
        # column that misses its residual is an error, not a result
        fac = wiener_hopf_factor(symbol_from_inside_roots(NEAR_CIRCLE_ROOTS))
        for call in (lambda: invert_apply(fac, N, np.array([1.0])),
                     lambda: inverse_entry(fac, N, 0, 0)):
            with pytest.raises(RefinementFailure) as info:
                call()
            assert info.value.residual > RESIDUAL_TOL
            assert info.value.tolerance == RESIDUAL_TOL
            assert info.value.steps == MAX_REFINEMENT_STEPS


class TestSeriesCut:
    # inside roots whose 1/g series falls below the smallest normal double
    # near index 1 020, well inside N = 4096
    ROOTS = ((0.3, 1), (0.5j, 1), (-0.4, 1))
    N = 4096

    def test_context_series_has_no_subnormals(self):
        b = _cached_context(factorization_from_roots(self.ROOTS), self.N).b
        full = full_series_quotient(factor_poly([0.3, 0.5j, -0.4]), [1.0],
                                    b.size)
        assert subnormal_parts(full) == 106 and subnormal_parts(b) == 0

    def test_entries_match_uncut_route(self, monkeypatch):
        fac, N = factorization_from_roots(self.ROOTS), self.N
        points = [(N, N), (N // 2, N // 2)]
        got = [inverse_entry(fac, N, k, l) for k, l in points]
        monkeypatch.setattr(
            hankel_inversion, "series_quotient",
            lambda g, y, size, cut, norm=1.0: full_series_quotient(g, y, size))
        monkeypatch.setattr(
            hankel_inversion, "inverse_series",
            lambda g, count, cut: full_series_quotient(g, [1.0], count))
        _cached_context.cache_clear()
        try:
            want = [inverse_entry(fac, N, k, l) for k, l in points]
            assert subnormal_parts(_cached_context(fac, N).b) == 106
        finally:
            _cached_context.cache_clear()
        assert np.array(got).tobytes() == np.array(want).tobytes()


class TestStateSpaceForm:
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
        fac = factorization_from_roots(zip(roots, mult),
                                       data.draw(st.floats(0.5, 2.0)))
        N = data.draw(st.integers(sum(mult), 64))
        assume(hankel_product_matrix(fac, N).norm2 < 1.0)   # certified
        T = build(fac.symbol, N)
        inv = dense_invert(T)
        cols = np.array([invert_apply(fac, N, np.eye(N + 1)[l, : l + 1])
                         for l in range(N + 1)]).T
        idx = sorted({0, N // 3, N // 2, N - 1, N})
        ents = np.array([[inverse_entry(fac, N, k, l) for l in idx]
                         for k in idx])
        gap = max(np.max(np.abs(cols - inv)),
                  np.max(np.abs(ents - inv[np.ix_(idx, idx)])))
        # the dense oracle is itself only good to about cond * eps
        tol = 1e-9 + np.linalg.cond(T.dense()) * np.finfo(float).eps
        assert gap <= tol * np.max(np.abs(inv))

    @pytest.mark.parametrize("roots, N", [([0.6, 0.61, 0.62], 40),
                                          ([0.5, 0.5001], 30)])
    def test_close_roots_against_dense(self, roots, N):
        # the partial-fraction route lost 2.3e-8 on the first symbol and
        # raised DegeneratePoles on the second
        sym = symbol_from_inside_roots(roots)
        fac = wiener_hopf_factor(sym)
        inv = dense_invert(build(sym, N))
        got = np.array([[inverse_entry(fac, N, k, l) for l in range(N + 1)]
                        for k in range(N + 1)])
        assert np.max(np.abs(got - inv)) <= 1e-8

    def test_entries_independent_of_call_order(self):
        # a point query with and without building the context through
        # hankel_product_matrix first must give bit-identical entries
        roots = [0.6 + 0.2j, -0.35 + 0.5j, 0.8j, -0.7 - 0.1j]
        fac = wiener_hopf_factor(symbol_from_inside_roots(roots, 1.3))
        N = 1024
        queries = [(N, N), (N - 2, N), (400, 400), (3, 900)]
        _cached_context.cache_clear()
        plain = [inverse_entry(fac, N, k, l) for k, l in queries]
        _cached_context.cache_clear()
        hankel_product_matrix(fac, N)
        traced = [inverse_entry(fac, N, k, l) for k, l in queries]
        assert plain == traced
