from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import scipy.linalg
from scipy.optimize import linear_sum_assignment

from toeplitz_spectra import spectra
from toeplitz_spectra.errors import (
    FlatSymbol,
    LocalizationFailure,
    MissedRoots,
    NonFiniteMatrix,
    NonUniqueMinimum,
    NotHermitian,
)
from toeplitz_spectra.spectra import (
    characteristic_matrix,
    det_equation_roots,
    grid_localize,
    hermitian_eigen,
    min_eigen_report,
    min_eigen_sweep,
    monotone_branches,
    weyl_gap,
    _antecedent_partners,
    _unique_minimizer,
)
from toeplitz_spectra.symbol_core import TrigSymbol, aberth_roots
from toeplitz_spectra.toeplitz_core import build, dense_det

from helpers import (
    bisect_fixed,
    brute_hankel_product,
    char_poly_coeffs,
    closed_form_characteristic_matrix,
    dense_eigvalsh,
    dense_slot_assignment,
    grid_branches,
    grid_minimizer,
    largest_eigenvalues,
    mp_x_roots,
    range_on_grid,
    recursion_hankel_halves,
    slot_cost,
    symbol_from_inside_roots,
    table_antecedents,
)

CRITERION_02 = TrigSymbol.from_cosine([4.870821, 0.243767, -0.262014, 0.02278])
EPS = np.finfo(float).eps


def root_tol(x):
    """The bracket width at which ``spectra._root`` stops."""
    return 4 * EPS * np.maximum(np.abs(x), 1.0)


def laplacian_spectrum(N):
    k = np.arange(1, N + 2)
    return 2.0 - 2.0 * np.cos(k * np.pi / (N + 2))


class TestHermitianEigen:
    def test_tridiagonal_closed_form(self):
        eig = hermitian_eigen(build(TrigSymbol.from_cosine([2.0, -2.0]), 2).dense())
        assert np.allclose(eig.eigenvalues,
                           [2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)], atol=1e-12)

    def test_scaled_identity(self):
        eig = hermitian_eigen(1.5 * np.eye(4))
        assert np.allclose(eig.eigenvalues, 1.5)

    def test_matches_char_poly_roots(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        M = 0.5 * (M + M.conj().T)
        eig = hermitian_eigen(M)
        roots = np.sort(aberth_roots(char_poly_coeffs(M)).real)
        assert np.max(np.abs(eig.eigenvalues - roots)) < 1e-8

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_trace_and_det_consistency(self):
        rng = np.random.default_rng(9)
        for n in (16, 64):
            M = rng.standard_normal((n, n))
            M = 0.5 * (M + M.T) + n * np.eye(n)
            eig = hermitian_eigen(M)
            scale = np.max(np.abs(M))
            assert abs(np.trace(M) - eig.eigenvalues.sum()) <= 1e-9 * scale * n
            det_lu = dense_det(M)
            det_eig = np.prod(eig.eigenvalues)
            assert abs(det_lu - det_eig) <= 1e-8 * abs(det_lu)


class TestBandEigen:
    """The banded route against the dense ``eigvalsh`` oracle."""

    @staticmethod
    def assert_matches_oracle(M):
        M = np.asarray(M)
        got = hermitian_eigen(M).eigenvalues
        want = dense_eigvalsh(M)
        scale = max(1.0, float(np.max(np.abs(M), initial=0.0)))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale

    def test_complex_non_even_section(self):
        sym = symbol_from_inside_roots([0.5 + 0.2j, -0.3 + 0.4j, 0.6j], 1.5)
        assert sym.degree == 3 and not sym.parity
        M = build(sym, 300).dense()
        assert np.abs(M.imag).max() > 0.1
        self.assert_matches_oracle(M)

    def test_even_real_section(self):
        sym = TrigSymbol.from_cosine([3.0, -1.0, 0.4, 0.2])
        self.assert_matches_oracle(build(sym, 200).dense())

    def test_zero_rows_and_one_far_pair(self, monkeypatch):
        # the bandwidth 7 comes from the one pair (2, 9) and (9, 2); zero
        # rows (0, 5 and 11) and zero diagonal entries must not widen it
        M = np.zeros((12, 12), dtype=complex)
        M[[1, 3, 4, 6], [1, 3, 4, 6]] = [1.0, -2.0, 0.5, 3.0]
        M[2, 9], M[9, 2] = 0.7 - 0.2j, 0.7 + 0.2j
        M[7, 8] = M[8, 7] = 1.5
        bands = []
        real = scipy.linalg.eigvals_banded

        def recording(band, **kwargs):
            bands.append(band.shape)
            return real(band, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigvals_banded", recording)
        self.assert_matches_oracle(M)
        assert bands == [(8, 12)]
        M[2, 9] += 1e-6
        with pytest.raises(NotHermitian):
            hermitian_eigen(M)

    def test_diagonal(self):
        d = np.random.default_rng(2).standard_normal(17)
        eig = hermitian_eigen(np.diag(d))
        assert np.array_equal(eig.eigenvalues, np.sort(d))

    def test_one_by_one(self):
        eig = hermitian_eigen(np.array([[-2.5]]))
        assert eig.eigenvalues.tolist() == [-2.5]

    def test_full_random_hermitian(self):
        rng = np.random.default_rng(11)
        n = 40
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = 0.5 * (M + M.conj().T)
        assert M[n - 1, 0] != 0
        self.assert_matches_oracle(M)

    def test_far_corner_asymmetry(self):
        M = build(TrigSymbol.from_cosine([2.0, -2.0]), 30).dense()
        M[0, -1] = 1e-6
        with pytest.raises(NotHermitian) as err:
            hermitian_eigen(M)
        assert err.value.asymmetry == pytest.approx(1e-6)

    @settings(max_examples=80, deadline=None)
    @given(c0=st.floats(-3.0, 3.0),
           outer=st.lists(st.tuples(st.floats(-2.0, 2.0),
                                    st.floats(-2.0, 2.0)), max_size=6),
           N=st.integers(0, 200))
    def test_property_matches_oracle(self, c0, outer, N):
        c = np.array([complex(a, b) for a, b in outer])
        coeffs = np.concatenate([np.conj(c[::-1]), [c0], c])
        self.assert_matches_oracle(build(TrigSymbol(coeffs), N).dense())

    def test_no_dense_eigensolver(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("dense eigensolver called")

        for mod, name in [(np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                          (np.linalg, "eigvals"), (np.linalg, "eig"),
                          (scipy.linalg, "eigvalsh"), (scipy.linalg, "eigh"),
                          (scipy.linalg, "eigvals"), (scipy.linalg, "eig")]:
            monkeypatch.setattr(mod, name, dense)
        sym = TrigSymbol.from_cosine([3.0, -1.0, 0.4])
        assert hermitian_eigen(build(sym, 64).dense()).n == 65

    def test_non_finite_entries(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteMatrix) as err:
                hermitian_eigen(np.array([[1.0, bad], [bad, 1.0]]))
            assert err.value.count == 2

    def test_non_square(self):
        with pytest.raises(NotHermitian) as err:
            hermitian_eigen(np.zeros((2, 3)))
        assert err.value.shape == (2, 3)

    def test_empty(self):
        assert hermitian_eigen(np.zeros((0, 0))).n == 0


class TestRoot:
    @staticmethod
    def record(monkeypatch):
        """Route every ``_root`` call past the bisection oracle, counting
        the evaluations of its function; records (root, oracle root,
        evaluations, |g| at both)."""
        calls = []
        real = spectra._root

        def checked(g, lo, hi, g_lo, g_hi):
            count = [0]

            def counted(m):
                count[0] += 1
                return g(m)

            got = real(counted, lo, hi, g_lo, g_hi)
            # the oracle keeps the upper half where its function is positive
            s = np.where(np.asarray(g_lo) != 0, np.sign(g_lo), -np.sign(g_hi))
            want = bisect_fixed(lambda m: s * g(m), lo, hi, 100)
            calls.append((got, want, count[0], np.abs(g(got)),
                          np.abs(g(want))))
            return got

        monkeypatch.setattr(spectra, "_root", checked)
        return calls

    def test_branches_and_localization_match_oracle(self, monkeypatch):
        # the cuts against the f' grid scan, and the antecedents against
        # table-bracketed bisection, with no bracketing root finder called
        calls = self.record(monkeypatch)
        seen = []
        real = spectra._slot_assignment

        def recording(theta, N):
            seen.append(theta)
            return real(theta, N)

        monkeypatch.setattr(spectra, "_slot_assignment", recording)
        N = 256
        eig = hermitian_eigen(build(CRITERION_02, N).dense())
        grid_localize(CRITERION_02, N, eig)
        assert calls == []
        got, want = monotone_branches(CRITERION_02), grid_branches(CRITERION_02)
        assert len(got) == len(want) == 2
        cuts = np.array([b[:2] for b in got])
        assert np.max(np.abs(cuts - [b[:2] for b in want])) <= 1e-14
        (theta,) = seen
        oracle = table_antecedents(CRITERION_02, want, eig.eigenvalues)
        assert np.array_equal(np.isnan(theta), np.isnan(oracle))
        # near an extremum f - lambda is flat, so compare the residuals:
        # the colleague eigenvalues leave at most a few eps max|f|
        f_max = np.abs(CRITERION_02.cosine_coeffs()).sum()
        lam = np.broadcast_to(eig.eigenvalues[:, None], theta.shape)
        on = ~np.isnan(theta)
        resid = np.abs(CRITERION_02(theta[on]) - lam[on])
        resid_oracle = np.abs(CRITERION_02(oracle[on]) - lam[on])
        assert np.max(resid_oracle) <= 4 * EPS * f_max
        assert np.max(resid) <= 16 * EPS * f_max

    def test_localization_symbol_evaluations(self, monkeypatch):
        # one evaluation of f, at the candidate cuts of the branches
        N = 256
        eig = hermitian_eigen(build(CRITERION_02, N).dense())
        evals = [0]
        real_call = TrigSymbol.__call__

        def counted(sym, theta):
            evals[0] += 1
            return real_call(sym, theta)

        monkeypatch.setattr(TrigSymbol, "__call__", counted)
        grid_localize(CRITERION_02, N, eig)
        assert evals[0] == 1

    def test_det_scan_matches_oracle(self, monkeypatch):
        calls = self.record(monkeypatch)
        sym = TrigSymbol.from_cosine([2.1, -2.0, -0.1])
        res = det_equation_roots(sym, 8, (0.05, 3.95), n_samples=240)
        assert len(res.roots) == 9
        (got, want, count, _, _), = [c for c in calls if c[0].size]
        assert got.size == 9
        assert np.all(np.abs(got - want) <= root_tol(want))
        assert count <= 12

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 5.0),
                              st.floats(0.0, 5.0), st.sampled_from([-1, 1]),
                              st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
                    min_size=1, max_size=8))
    def test_monotone_cubics_property(self, cubics):
        # g = s t (a + b t^2), t = x - r, is monotone with its only sign
        # change exactly at r, so the rounded g has no spurious roots
        r, a, b, s, u, v = map(np.array, zip(*cubics))

        def g(x):
            t = x - r
            return s * t * (a + b * t * t)

        lo, hi = r - u, r + v
        got = spectra._root(g, lo, hi, g(lo), g(hi))
        want = bisect_fixed(lambda m: -s * g(m), lo, hi, 100)
        assert np.all(np.abs(got - r) <= root_tol(r))
        assert np.all(np.abs(got - want)
                      <= root_tol(want) + np.spacing(np.abs(want)))

    def test_exact_zero_at_an_end(self):
        count = [0]

        def g(x):
            count[0] += 1
            return x - 0.5

        got = spectra._root(g, [0.5, 0.0], [1.0, 0.5], [0.0, -0.5], [0.5, 0.0])
        assert count[0] == 0 and np.array_equal(got, [0.5, 0.5])
        # a midpoint that hits the root stops after that evaluation
        got = spectra._root(g, [0.0], [1.0], [-0.5], [0.5])
        assert count[0] == 1 and got[0] == 0.5

    def test_jump_closes_within_cap(self):
        count = [0]
        c = 0.3

        def g(x):
            count[0] += 1
            return np.where(x < c, -1.0, 1.0) + 0.1 * (x - c)

        got = spectra._root(g, [0.0], [1.0], g(0.0), g(1.0))
        assert 1 < count[0] < spectra.ROOT_STEPS
        assert abs(got[0] - c) <= root_tol(c)

    def test_jump_rejected_by_residual(self, monkeypatch, caplog):
        # flip the sign of det(I - M) above c, in a sample interval without
        # an eigenvalue: the scan gains a sign change there, the finder
        # closes in on c, and the residual |D(c)| rejects it
        sym = TrigSymbol.from_cosine([2.1, -2.0, -0.1])
        window, n = (0.05, 3.95), 240
        plain = det_equation_roots(sym, 8, window, n_samples=n)
        lams = np.linspace(*window, n)
        mid = 0.5 * (lams[:-1] + lams[1:])
        c = mid[np.argmax(np.min(np.abs(mid[:, None] - plain.roots), axis=1))]
        real_det = spectra._det_normalized

        def flipped(cos_c, m, N):
            Dn, D, n_uni = real_det(cos_c, m, N)
            s = np.where(np.asarray(m) > c, -1.0, 1.0)
            return Dn * s, D * s, n_uni

        calls = self.record(monkeypatch)
        monkeypatch.setattr(spectra, "_det_normalized", flipped)
        with caplog.at_level("DEBUG", logger="toeplitz_spectra"):
            res = det_equation_roots(sym, 8, window, n_samples=n)
        assert res.roots == plain.roots
        (got, _, count, _, _), = [k for k in calls if k[0].size]
        assert got.size == 10 and count < spectra.ROOT_STEPS
        assert np.min(np.abs(got - c)) <= root_tol(c)
        assert any(r.getMessage().startswith("rejecting pseudo-crossing")
                   for r in caplog.records)

    def test_step_cap(self):
        # halving a bracket of width 2e300 down to 4 eps would take about
        # 1 050 steps: the cap stops it after ROOT_STEPS evaluations
        count = [0]

        def g(x):
            count[0] += 1
            return np.where(x < 0.3, -1.0, 1.0)

        got = spectra._root(g, [-1e300], [1e300], [-1.0], [1.0])
        assert count[0] == spectra.ROOT_STEPS
        assert np.isfinite(got[0])

    def test_logs_evaluations(self, caplog):
        with caplog.at_level("DEBUG", logger="toeplitz_spectra"):
            spectra._root(lambda x: x - 0.25, [0.0], [1.0], [-0.25], [0.75])
        (rec,) = [r for r in caplog.records if r.msg.startswith("root:")]
        assert rec.args == (1, 2, 0.0)


class TestGridLocalize:
    def test_exact_grid_spectrum(self):
        sym = TrigSymbol.from_cosine([2.0, -2.0])
        for N in (2, 16, 49):
            eig = hermitian_eigen(build(sym, N).dense())
            locs = grid_localize(sym, N, eig)
            ks = [loc.k for loc in locs]
            assert ks == list(range(1, N + 2))
            assert max(abs(loc.theta_shift) for loc in locs) < 1e-7

    def test_constant_convention(self):
        sym = TrigSymbol.constant(2.0)
        eig = hermitian_eigen(build(sym, 5).dense())
        locs = grid_localize(sym, 5, eig)
        assert all(loc.theta_shift == 0.0 for loc in locs)
        assert len({loc.k for loc in locs}) == len(locs)

    def test_spectrum_inclusion_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            c = rng.standard_normal(4)
            sym = TrigSymbol.from_cosine(c)
            lo, hi = range_on_grid(sym)
            if lo <= 0:
                c[0] += 1.0 - 2 * lo
                sym = TrigSymbol.from_cosine(c)
                lo, hi = range_on_grid(sym)
            for N in (32, 256):
                eig = hermitian_eigen(build(sym, N).dense())
                assert eig.eigenvalues[0] >= lo - 1e-10
                assert eig.eigenvalues[-1] <= hi + 1e-10

    def test_random_even_symbols_localize(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 6:
            c = np.concatenate([[rng.uniform(2, 4)],
                                rng.uniform(-1, 1, size=3)])
            sym = TrigSymbol.from_cosine(c)
            try:
                _unique_minimizer(sym)
            except NonUniqueMinimum:
                continue
            done += 1
            for N in (32, 64):
                eig = hermitian_eigen(build(sym, N).dense())
                locs = grid_localize(sym, N, eig)
                assert all(abs(loc.theta_shift) < 1.0 for loc in locs)
                slots = [(loc.branch, loc.k) for loc in locs]
                assert len(set(slots)) == len(slots)

    @settings(max_examples=25, deadline=None)
    @given(c0=st.floats(2.5, 5.0),
           c=st.lists(st.floats(-1.0, 1.0), max_size=2),
           top=st.floats(0.05, 1.0), sign=st.sampled_from([-1.0, 1.0]),
           N=st.integers(16, 256))
    def test_antecedents_and_slots_property(self, c0, c, top, sign, N):
        # the top coefficient is kept off zero: a symbol flat to rounding
        # is rejected with FlatSymbol (test_flat_symbol_rejected)
        cos_c = np.array([c0, *c, sign * top])
        sym = TrigSymbol.from_cosine(cos_c)
        try:
            _unique_minimizer(sym)
        except NonUniqueMinimum:
            assume(False)
        eig = hermitian_eigen(build(sym, N).dense())
        locs = grid_localize(sym, N, eig)

        def f(theta):
            j = np.arange(cos_c.size)
            return np.cos(np.multiply.outer(theta, j)) @ cos_c

        grid = f(np.linspace(0.0, np.pi, 1 << 14))
        span = grid.max() - grid.min()
        theta_star = np.array([loc.theta_star for loc in locs])
        assert np.max(np.abs(f(theta_star) - eig.eigenvalues)) <= 1e-9 * span
        slots = [(loc.branch, loc.k) for loc in locs]
        assert len(set(slots)) == len(slots)
        assert all(0 <= loc.k <= N + 1 for loc in locs)

    @settings(max_examples=40, deadline=None)
    @given(c0=st.floats(-5.0, 5.0),
           c=st.lists(st.floats(-1.0, 1.0), max_size=23),
           top=st.floats(0.05, 1.0), sign=st.sampled_from([-1.0, 1.0]),
           N=st.integers(8, 96))
    def test_antecedent_residual_to_degree_24(self, c0, c, top, sign, N):
        # the colleague roots leave |f(theta*) - lambda| at most 7.7e-13 of
        # the range over 1 500 random draws of this family
        cos_c = np.array([c0, *c, sign * top])
        sym = TrigSymbol.from_cosine(cos_c)
        eig = hermitian_eigen(build(sym, N).dense())
        theta = np.array([loc.theta_star for loc in grid_localize(sym, N, eig)])
        j = np.arange(cos_c.size)
        f = np.cos(np.multiply.outer(theta, j)) @ cos_c
        grid = np.cos(np.multiply.outer(np.linspace(0.0, np.pi, 1 << 14), j))
        span = np.ptp(grid @ cos_c)
        assert np.max(np.abs(f - eig.eigenvalues)) <= 5e-12 * span

    def test_non_even_symbol_rejected(self):
        # only [0, pi] is searched, which holds every antecedent of an even
        # symbol alone
        sym = symbol_from_inside_roots([0.5 + 0.2j, -0.3], 1.5)
        assert not sym.parity
        eig = hermitian_eigen(build(sym, 8).dense())
        with pytest.raises(LocalizationFailure, match="parity False"):
            grid_localize(sym, 8, eig)

    def test_flat_symbol_rejected(self):
        # all 17 eigenvalues equal 3.0 and their antecedents coincide, so
        # only three grid slots lie next to them
        sym = TrigSymbol.from_cosine([3.0, 6.58e-18])
        eig = hermitian_eigen(build(sym, 16).dense())
        with pytest.raises(FlatSymbol) as err:
            grid_localize(sym, 16, eig)
        assert isinstance(err.value, LocalizationFailure)
        assert 0.0 <= err.value.span <= err.value.rounding
        # a range well above the eigenvalue rounding still localizes
        sym = TrigSymbol.from_cosine([3.0, 1e-9])
        locs = grid_localize(sym, 16, hermitian_eigen(build(sym, 16).dense()))
        assert len(locs) == 17

    def test_out_of_range_eigenvalue(self):
        sym = TrigSymbol.from_cosine([2.0, -2.0])
        eig = hermitian_eigen(build(sym, 4).dense())
        bad = type(eig)(eigenvalues=np.array([-0.5]))
        with pytest.raises(LocalizationFailure):
            grid_localize(sym, 4, bad)

    def test_slot_exhaustion(self):
        # five copies of the eigenvalue 2 of f = 2 - 2 cos theta: one
        # branch, one antecedent pi/2, and only three grid slots next to it
        sym = TrigSymbol.from_cosine([2.0, -2.0])
        eig = hermitian_eigen(build(sym, 4).dense())
        five = type(eig)(eigenvalues=np.full(5, 2.0))
        with pytest.raises(LocalizationFailure,
                           match="slot exhaustion") as err:
            grid_localize(sym, 4, five)
        assert not isinstance(err.value, FlatSymbol)

    @staticmethod
    def assert_matches_dense(sym, N):
        """grid_localize against the dense padded assignment on the same
        antecedents: equal total cost, so the same slots wherever the
        optimum is unique."""
        seen = []
        real = spectra._slot_assignment

        def recording(theta, N):
            seen.append(theta)
            return real(theta, N)

        eig = hermitian_eigen(build(sym, N).dense())
        with mock.patch.object(spectra, "_slot_assignment", recording):
            locs = grid_localize(sym, N, eig)
        (theta,) = seen
        got = (np.array([loc.branch for loc in locs]),
               np.array([loc.k for loc in locs]))
        want = dense_slot_assignment(theta, N)
        assert want is not None
        got_cost = slot_cost(theta, N, *got)
        want_cost = slot_cost(theta, N, *want)
        assert abs(got_cost - want_cost) <= 1e-9 * max(1.0, want_cost)
        return all(np.array_equal(g, w) for g, w in zip(got, want))

    @settings(max_examples=40, deadline=None)
    @given(c0=st.floats(2.5, 5.0),
           c=st.lists(st.floats(-1.0, 1.0), max_size=2),
           top=st.floats(0.05, 1.0), sign=st.sampled_from([-1.0, 1.0]),
           N=st.integers(16, 256))
    def test_assignment_matches_dense_property(self, c0, c, top, sign, N):
        self.assert_matches_dense(
            TrigSymbol.from_cosine([c0, *c, sign * top]), N)

    def test_assignment_matches_dense_with_ties(self):
        # f = 2.5 + cos(j theta): the section splits into j interleaved
        # tridiagonal blocks, so eigenvalues repeat and antecedents on the
        # j branches mirror each other; every slot is wanted by several
        # eigenvalues at equal cost
        for cosine in ([2.5, 0.0, 1.0], [2.5, 0.0, 0.0, 1.0],
                       [2.5, 0.0, 0.0, -1.0]):
            for N in (16, 131, 256):
                self.assert_matches_dense(TrigSymbol.from_cosine(cosine), N)

    def test_assignment_matches_dense_criterion_02(self):
        for N in (64, 256):
            assert self.assert_matches_dense(CRITERION_02, N)


class TestCharacteristicMatrix:
    def test_matches_recursion_oracle(self):
        # entrywise against Hd L(g) Hb L(g) read off the forward recursion
        rng = np.random.default_rng(5)
        for r in range(1, 5):
            for N in (0, 1, 7, 64, 500):
                om = (rng.uniform(0.2, 1.0, (3, r))
                      * np.exp(2j * np.pi * rng.random((3, r))))
                om[0, 0] = np.exp(-0.7j)
                M = characteristic_matrix(om, N)
                assert M.shape == (3, r, r)
                for s in range(3):
                    factors = tuple((w, 1) for w in om[s])
                    want = np.matmul(*recursion_hankel_halves(
                        factors, factors, N))
                    err = np.max(np.abs(M[s] - want))
                    assert err <= 1e-11 * np.max(np.abs(want)), (r, N, s)

    def test_partner_branches(self):
        # omega + 1/omega = 2x in the disk; a root x in (-1, 1) gets
        # e^{-i theta}, as the phase normalization expects
        om = _antecedent_partners(np.array([2.0, -2.0]),   # 2 - 2x
                                  [1.3, -1.0, 5.0])[:, 0]
        want = [np.exp(-1j * np.arccos(0.35)), 1.5 - np.sqrt(1.25),
                np.sqrt(1.25) - 1.5]
        assert np.max(np.abs(om - want)) < 1e-15
        # far outside the range the partner is small: x - sqrt(x^2 - 1)
        # cancels there (6.7e-9 relative at x = -9999), 1/(x + sqrt) does not
        om = _antecedent_partners(np.array([2.0, -2.0]), [2e4])[0, 0]
        assert abs(om * (9999 + np.sqrt(9999.0 ** 2 - 1)) + 1) < 4 * EPS
        c = np.array([3.0, -1.0, 0.4])
        om = _antecedent_partners(c, [1.0])[0]
        x = np.polynomial.chebyshev.chebroots(c - [1.0, 0.0, 0.0])  # a pair
        assert np.all(np.abs(om) < 1.0)
        assert np.max(np.abs(np.sort_complex(om + 1 / om)
                             - np.sort_complex(2 * x))) < 1e-13

    def test_unimodular_single_root(self):
        sym = TrigSymbol.from_cosine([2.0, -2.0])
        om = _antecedent_partners(sym.cosine_coeffs(), [1.3])
        assert om.shape == (1, 1)
        assert abs(abs(om[0, 0]) - 1.0) < 1e-12
        M = characteristic_matrix(om, 6)
        assert abs(abs(M[0, 0, 0]) - 1.0) < 1e-12

    def test_damping_to_zero(self):
        sym = TrigSymbol.from_cosine([2.0, -2.0])
        om = _antecedent_partners(sym.cosine_coeffs(), [0.8])
        M = characteristic_matrix(1e-3 * om, 4)
        assert np.max(np.abs(M)) < 1e-12

    @pytest.mark.parametrize("d", [16, 24])
    def test_partners_against_mpmath(self, d):
        # the roots read back from the partners, x = (omega + 1/omega) / 2,
        # against 50-digit roots; a power-basis companion matrix is off by
        # 5.5e-13 at d = 16 and 1.7e-9 at d = 24 here
        c = np.random.default_rng(d).uniform(-1.0, 1.0, d + 1)
        lo, hi = range_on_grid(TrigSymbol.from_cosine(c))
        lams = np.linspace(lo, hi, 5)[1:-1]
        om = _antecedent_partners(c, lams)
        assert om.shape == (3, d) and np.all(np.abs(om) <= 1.0 + 1e-15)
        for x, lam in zip((om + 1 / om) / 2, lams):
            want = np.array(mp_x_roots(c, lam))
            err = np.abs(x[:, None] - want[None, :])
            rows, cols = linear_sum_assignment(err)
            assert np.max(err[rows, cols] / np.maximum(1.0, np.abs(want[cols]))
                          ) <= 1e-13

    def test_stacked_omegas_match_single_calls(self):
        rng = np.random.default_rng(5)
        om = (rng.uniform(0.2, 0.9, (6, 3))
              * np.exp(2j * np.pi * rng.random((6, 3))))
        stacked = characteristic_matrix(om, 7)
        assert stacked.shape == (6, 3, 3)
        for s in range(6):
            single = characteristic_matrix(om[s:s + 1], 7)[0]
            assert np.allclose(stacked[s], single, rtol=1e-14, atol=0.0)

    def test_brute_force_truncation(self):
        om = np.array([0.6 + 0.3j, -0.45 + 0.1j, 0.2 - 0.5j])
        N = 5
        got = np.sort_complex(np.linalg.eigvals(
            characteristic_matrix(om[None], N)[0]))
        brute = largest_eigenvalues(
            brute_hankel_product(list(om), list(om), 1.0, N, dim=64), om.size)
        assert np.max(np.abs(brute - got)) < 1e-9 * np.max(np.abs(got))

    def test_det_matches_closed_form(self):
        # distinct partners, where the partial-fraction formula holds
        rng = np.random.default_rng(8)
        for r in (1, 2, 3):
            om = (rng.uniform(0.3, 1.0, (4, r))
                  * np.exp(2j * np.pi * rng.random((4, r))))
            for N in (0, 3, 20):
                eye = np.eye(r)
                got = np.linalg.det(eye - characteristic_matrix(om, N))
                want = np.linalg.det(
                    eye - closed_form_characteristic_matrix(om, N))
                assert np.max(np.abs(got - want)) \
                    <= 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_det_continuous_as_partners_meet(self):
        # the simple-pole closed form reads -1163 + 3165i at a gap of 1e-6,
        # 4e12 at 1e-9 and NaN at 0
        a, N = np.exp(-0.7j), 8
        double = ((a, 2),)
        want = np.linalg.det(
            np.eye(2) - np.matmul(*recursion_hankel_halves(double, double, N)))
        assert abs(want - (-187.6956 - 59.7028j)) < 1e-3
        for gap in (1e-6, 1e-9, 0.0):
            om = np.array([[a, a * np.exp(1j * gap)]])
            got = np.linalg.det(np.eye(2) - characteristic_matrix(om, N))[0]
            assert abs(got - want) <= (100 * gap + 1e-11) * abs(want), gap


class TestDetEquationRoots:
    def test_laplacian_n3(self):
        sym = TrigSymbol.from_cosine([2.0, -2.0])
        res = det_equation_roots(sym, 3, (0.1, 3.9), n_samples=800)
        want = laplacian_spectrum(3)
        assert len(res.roots) == 4
        assert np.max(np.abs(np.array(res.roots) - want)) < 1e-6

    def test_guard_window_at_range_end(self):
        # lambda = f(pi) = 4 is the 101st sample
        sym = TrigSymbol.from_cosine([2.0, -2.0])
        res = det_equation_roots(sym, 5, (2.0, 4.0), n_samples=101)
        assert res.excluded == ((4.0, 4.0),)
        assert len(res.roots) == 3

    def test_guard_window_inside(self):
        # f(pi) = 3.634 is the 101st sample, in the middle of the window
        sym = TrigSymbol.from_cosine([3.348, -0.966, -0.68])
        f_pi = float(sym(np.pi))
        res = det_equation_roots(sym, 8, (f_pi - 0.5, f_pi + 0.5),
                                 n_samples=201)
        assert len(res.excluded) == 1
        a, b = res.excluded[0]
        assert a == b and abs(a - 3.634) < 1e-12
        eig = hermitian_eigen(build(sym, 8).dense()).eigenvalues
        want = eig[np.abs(eig - f_pi) < 0.5]
        assert want.size == 6 and len(res.roots) == 6
        assert np.max(np.abs(np.array(res.roots) - want)) < 1e-12

    def test_empty_window(self):
        sym = TrigSymbol.from_cosine([2.0, -2.0])
        res = det_equation_roots(sym, 5, (-1.0, -0.1), n_samples=200)
        assert res.roots == ()

    def test_perturbed_degree_two(self):
        sym = TrigSymbol.from_cosine([2.1, -2.0, -0.1])
        N = 8
        eig = hermitian_eigen(build(sym, N).dense())
        res = det_equation_roots(sym, N, (0.05, 3.95), n_samples=1500)
        assert len(res.roots) == eig.n
        assert np.max(np.abs(np.array(res.roots) - eig.eigenvalues)) < 1e-5

    @pytest.mark.parametrize("cosine, n_samples, rel_margin, margin, missed", [
        # a close eigenvalue pair inside one sample interval
        ([3.348, -0.966, -0.68], 200, 0.01, 0.0, 2),
        # a root where the normalized determinant is nearly imaginary
        ([3.5674, -0.6644, 0.1225, -0.2064], 240, 0.0, 1e-3, 1),
    ])
    def test_missed_roots_raise(self, cosine, n_samples, rel_margin, margin,
                                missed):
        sym = TrigSymbol.from_cosine(cosine)
        lo, hi = range_on_grid(sym)
        margin += rel_margin * (hi - lo)
        with pytest.raises(MissedRoots) as info:
            det_equation_roots(sym, 8, (lo + margin, hi - margin),
                               n_samples=n_samples)
        assert info.value.expected == 9
        assert info.value.found == 9 - missed


class TestWeylGap:
    def test_constant_exact_zero(self):
        assert weyl_gap(TrigSymbol.constant(3.0), 32) == 0.0

    def test_matches_closed_form_and_decreases(self):
        sym = TrigSymbol.from_cosine([2.0, -2.0])
        gaps = {}
        for N in (64, 256):
            lam = laplacian_spectrum(N)[:N]
            theta = -np.pi + 2 * np.pi * np.arange(1, N + 1) / (N + 1)
            direct = max(abs(np.sum(h(lam)) - np.sum(h(sym(theta)))) / N
                         for h in spectra.WEYL_TEST_FUNCTIONS)
            got = weyl_gap(sym, N)
            assert abs(got - direct) < 1e-10
            gaps[N] = got
        assert gaps[256] < gaps[64]

    def test_one_pole_gap_small(self):
        gap = weyl_gap(TrigSymbol.from_cosine([1.25, -1.0]), 128)
        assert gap <= 0.05


class TestMinEigenReport:
    def test_laplacian(self):
        rep = min_eigen_report(TrigSymbol.from_cosine([2.0, -2.0]), 50)
        assert abs(rep.lambda_min - (2 - 2 * np.cos(np.pi / 52))) < 1e-12
        assert rep.location.k == 1
        assert abs(rep.location.theta_shift) < 1e-7
        assert abs(rep.theta0) < 1e-9

    def test_constant(self):
        rep = min_eigen_report(TrigSymbol.constant(4.0), 10)
        assert rep.lambda_min == 4.0

    def test_sweep_converges(self):
        _, dists = min_eigen_sweep(TrigSymbol.from_cosine([1.25, -1.0]),
                                   [16, 32, 64, 128])
        assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(dists, dists[1:]))
        assert dists[-1] < dists[0]

    def test_non_unique_minimum(self):
        with pytest.raises(NonUniqueMinimum):
            min_eigen_report(TrigSymbol.from_cosine([2.0, 0.0, -2.0]), 12)


class TestUniqueMinimizer:
    def test_branch_ends_exact(self):
        assert _unique_minimizer(TrigSymbol.from_cosine([2.0, -2.0])) == 0.0
        assert _unique_minimizer(TrigSymbol.from_cosine([2.0, 2.0])) == np.pi
        assert _unique_minimizer(CRITERION_02) == np.pi

    @pytest.mark.parametrize("cosine", [
        [2.0, 0.0, -2.0],        # minima at 0 and pi
        [0.75, -1.0, 0.5],       # (cos - 1/2)^2: interior, with its mirror
        [0.25, 0.0, 0.0, 0.25],  # (1 + cos 3 theta) / 4: pi/3 ties with pi
    ])
    def test_non_unique(self, cosine):
        with pytest.raises(NonUniqueMinimum):
            _unique_minimizer(TrigSymbol.from_cosine(cosine))

    def test_constant_and_non_even(self):
        assert _unique_minimizer(TrigSymbol.constant(3.0)) == 0.0
        with pytest.raises(ValueError):
            _unique_minimizer(TrigSymbol(np.array([0.5j, 2.0, -0.5j])))

    def test_matches_grid_minimizer(self):
        # accepted and rejected as by the 8192-point grid with parabolic
        # refinement, with theta0 at its refined point
        rng = np.random.default_rng(2024)
        for _ in range(300):
            d = int(rng.integers(1, 5))
            sym = TrigSymbol.from_cosine(np.concatenate(
                [[rng.uniform(2.5, 5.0)], rng.uniform(-1.0, 1.0, d)]))
            want = grid_minimizer(sym)
            if want is None:
                with pytest.raises(NonUniqueMinimum):
                    _unique_minimizer(sym)
            else:
                got = _unique_minimizer(sym)
                assert min(abs(got - want), 2 * np.pi - abs(got - want)) \
                    < 1e-11


class TestMonotoneBranches:
    def test_single_branch(self):
        b = monotone_branches(TrigSymbol.from_cosine([2.0, -2.0]))
        assert len(b) == 1
        a, z, fa, fz = b[0]
        assert a == 0.0 and z == np.pi
        assert fa == pytest.approx(0.0) and fz == pytest.approx(4.0)

    def test_two_branches(self):
        # f = 2 - 2 cos(2 theta) falls then rises on [0, pi]? it rises to
        # theta = pi/2 then falls; two monotone pieces
        b = monotone_branches(TrigSymbol.from_cosine([2.0, 0.0, -2.0]))
        assert len(b) == 2
        assert b[0][1] == pytest.approx(np.pi / 2, abs=1e-9)

    def test_two_interior_extrema(self):
        # f' = -sin(theta) (7.2 cos^2(theta) - 0.8) vanishes at cos = +-1/3
        b = monotone_branches(TrigSymbol.from_cosine([2.0, 1.0, 0.0, 0.6]))
        assert len(b) == 3
        assert b[0][0] == 0.0 and b[-1][1] == np.pi
        assert abs(b[0][1] - np.arccos(1.0 / 3.0)) < 1e-9
        assert abs(b[1][1] - np.arccos(-1.0 / 3.0)) < 1e-9
        assert b[0][1] == b[1][0] and b[1][1] == b[2][0]

    def test_inflection_is_no_cut(self):
        # f = 2 + cos^3 theta: p = 2 + x^3, and p' = 3 x^2 has a double root
        # at 0 that the colleague matrix splits; f does not turn there
        b = monotone_branches(TrigSymbol.from_cosine([2.0, 0.75, 0.0, 0.25]))
        assert b == ((0.0, np.pi, 3.0, 1.0),)

    def test_flat_interior_minimum(self):
        # p = 1 + (x - 0.3)^4: the triple root of p' is one turn, which
        # rounding moves by about eps^(1/3) in x
        c = np.polynomial.chebyshev.poly2cheb([1.0081, -0.108, 0.54, -1.2, 1.0])
        b = monotone_branches(TrigSymbol.from_cosine(c))
        assert len(b) == 2 and b[0][1] == b[1][0]
        assert abs(b[0][1] - np.arccos(0.3)) < 1e-4
        assert abs(b[0][3] - 1.0) < 1e-15
