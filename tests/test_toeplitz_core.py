import numpy as np
import pytest

from toeplitz_spectra.errors import SingularMatrix
from toeplitz_spectra.symbol_core import TrigSymbol
from toeplitz_spectra.toeplitz_core import (
    build,
    dense_det,
    dense_invert,
    format_complex,
)

from helpers import symbol_from_inside_roots


class TestBuild:
    def test_discrete_laplacian(self):
        T = build(TrigSymbol.from_cosine([2.0, -2.0]), 2)
        expect = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=float)
        assert np.array_equal(T.dense().real, expect)
        assert T.bandwidth == 1

    def test_constant(self):
        T = build(TrigSymbol.constant(3.0), 5)
        assert np.array_equal(T.dense(), 3.0 * np.eye(6))

    def test_one_pole(self):
        T = build(TrigSymbol.from_cosine([1.25, -1.0]), 1)
        assert np.allclose(T.dense(), [[1.25, -0.5], [-0.5, 1.25]])

    def test_linearity(self):
        rng = np.random.default_rng(0)
        a = TrigSymbol.from_cosine(rng.standard_normal(3))
        b = TrigSymbol.from_cosine(rng.standard_normal(4))
        a_plus_b = TrigSymbol(a.padded(3) + b.padded(3))
        N = 6
        assert np.array_equal(build(a_plus_b, N).dense(),
                              build(a, N).dense() + build(b, N).dense())

    def test_entry_indexing(self):
        sym = symbol_from_inside_roots([0.4 + 0.2j, 0.4 - 0.2j])
        T = build(sym, 4)
        D = T.dense()
        for k in range(5):
            for l in range(5):
                assert D[k, l] == sym.coeff(k - l)
        assert np.array_equal(D, D.conj().T)


class TestDenseInvert:
    def test_two_by_two(self):
        T = build(TrigSymbol.from_cosine([1.25, -1.0]), 1)
        inv = dense_invert(T)
        assert np.allclose(inv, [[0.952381, 0.380952], [0.380952, 0.952381]],
                           atol=1e-6)

    def test_constant(self):
        T = build(TrigSymbol.constant(4.0), 3)
        assert np.allclose(dense_invert(T), 0.25 * np.eye(4), atol=1e-14)

    def test_green_kernel(self):
        # inverse of the N=3 discrete Laplacian section has the product form
        # min(k,l) (N + 2 - max(k,l)) / (N + 2) in 1-based indices
        N = 3
        T = build(TrigSymbol.from_cosine([2.0, -2.0]), N)
        inv = dense_invert(T)
        for k in range(1, N + 2):
            for l in range(1, N + 2):
                expect = min(k, l) * (N + 2 - max(k, l)) / (N + 2)
                assert abs(inv[k - 1, l - 1] - expect) < 1e-12

    def test_singular(self):
        T = build(TrigSymbol.from_cosine([0.0, 0.0, -2.0]), 2)
        with pytest.raises(SingularMatrix) as err:
            dense_invert(T)
        assert err.value.pivot is not None

    def test_roundtrip_random(self):
        rng = np.random.default_rng(21)
        for N in (10, 50, 200):
            roots = [rng.uniform(-0.7, 0.7) for _ in range(2)]
            T = build(symbol_from_inside_roots(roots, 1.0), N)
            inv = dense_invert(T)
            eye = np.eye(N + 1)
            assert np.max(np.abs(T.dense() @ inv - eye)) < 1e-9
            assert np.max(np.abs(inv @ T.dense() - eye)) < 1e-9


class TestDetAndDump:
    def test_det_matches_eig_free_route(self):
        T = build(TrigSymbol.from_cosine([2.0, -2.0]), 3)
        # det of the N=3 Laplacian section is N + 2 = 5
        assert abs(dense_det(T.dense()) - 5.0) < 1e-12

    def test_format(self):
        assert format_complex(1.5 + 0.25j, 6) == "1.5+0.25i"
        assert format_complex(1.5 - 0.25j, 6) == "1.5-0.25i"
        assert format_complex(2.0 + 0j, 6) == "2"
