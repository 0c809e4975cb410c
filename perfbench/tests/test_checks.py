"""The benchmark's checkers pass real outputs and reject corrupted ones.

    python3 -m pytest perfbench/tests

Each test runs one small job through the package (as the worker does),
confirms the checker accepts the output, then corrupts one field at a time
by a small amount and confirms the checker rejects it.
"""

import copy
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import jobs  # noqa: E402
import workloads  # noqa: E402


def _corrupted(out, key, fn):
    bad = copy.deepcopy(out)
    bad[key] = fn(bad[key])
    return bad


def _bump(index, amount):
    def fn(arr):
        arr = np.array(arr)
        arr[index] = arr[index] + amount
        return arr
    return fn


@pytest.fixture(scope="module")
def inverse_full_case():
    rng = np.random.default_rng(3)
    job = workloads._inverse_full_job(rng, 3, 40, Counter())
    return job, jobs.inverse_full(job["inputs"], False)


@pytest.fixture(scope="module")
def point_query_case():
    rng = np.random.default_rng(4)
    job = workloads._point_query_job(rng, 4, 200, Counter())
    return job, jobs.point_query(job["inputs"], False)


def _spectrum_case(cos_c, kind, N=40):
    job = workloads._spectrum_job(cos_c, N, kind)
    return job, jobs.spectrum_even(job["inputs"], False)


@pytest.fixture(scope="module")
def spectrum_case():
    rng = np.random.default_rng(5)
    return _spectrum_case(
        workloads._cosine_draw(rng, 2, Counter()), 2)


@pytest.fixture(scope="module")
def closed_form_case():
    return _spectrum_case([2.0, -2.0], 0)


def test_inverse_full_accepts_and_rejects(inverse_full_case):
    job, out = inverse_full_case
    check = checks.check_inverse_full
    assert check(job["truth"], job["inputs"], out) == []
    scale = out["magnitudes"][0]
    for key, fn in [("magnitudes", _bump(3, 1e-6 * scale)),
                    ("magnitudes", _bump(0, 1e-6 * scale)),
                    ("inside", _bump(0, 1e-5)),
                    ("rho", lambda r: r + 1e-6),
                    ("slope", lambda s: s + 1e-6),
                    ("target", lambda t: t + 1e-6),
                    ("fit_window", lambda w: (w[0] + 1, w[1]))]:
        assert check(job["truth"], job["inputs"],
                     _corrupted(out, key, fn)), key


def test_point_query_accepts_and_rejects(point_query_case):
    job, out = point_query_case
    check = checks.check_point_query
    assert check(job["truth"], job["inputs"], out) == []
    for key, fn in [("entries", _bump(0, 1e-6)),
                    ("entries", _bump(2, 1e-6j)),
                    ("beta", _bump(1, 1e-4)),
                    ("b", _bump(2, 1e-6)),
                    ("inside", _bump(1, 1e-5)),
                    ("scale", lambda s: s * (1 + 1e-6))]:
        assert check(job["truth"], job["inputs"],
                     _corrupted(out, key, fn)), key


def test_spectrum_accepts_and_rejects(spectrum_case):
    job, out = spectrum_case
    check = checks.check_spectrum_even
    assert check(job["truth"], job["inputs"], out) == []
    lam = out["eigenvalues"]
    bad = copy.deepcopy(out)
    bad["eigenvalues"] = lam + 1e-7
    bad["loc_eigenvalue"] = bad["eigenvalues"]
    assert check(job["truth"], job["inputs"], bad)
    for key, fn in [("theta_star", _bump(2, 1e-6)),
                    ("theta_shift", _bump(2, 1e-6)),
                    ("k", _bump(0, 1)),
                    ("det_roots", _bump(0, 1e-4)),
                    ("det_roots", lambda r: r[1:]),
                    ("det_roots", lambda r: np.append(r, r[-1]))]:
        assert check(job["truth"], job["inputs"],
                     _corrupted(out, key, fn)), key


def test_spectrum_rejects_repeated_slot(spectrum_case):
    job, out = spectrum_case
    bad = copy.deepcopy(out)
    bad["k"][1], bad["branch"][1] = bad["k"][0], bad["branch"][0]
    assert any("repeated grid slots" in m for m in
               checks.check_spectrum_even(job["truth"], job["inputs"], bad))


def test_closed_form_rejects_shifted_spectrum(closed_form_case):
    job, out = closed_form_case
    check = checks.check_spectrum_even
    assert check(job["truth"], job["inputs"], out) == []
    lam = out["eigenvalues"].copy()
    lam[0] += 1e-8
    lam[-1] -= 1e-8
    bad = check(job["truth"], job["inputs"],
                dict(out, eigenvalues=lam, loc_eigenvalue=lam))
    assert any("closed-form" in m for m in bad)


def test_gohberg_semencul_matches_dense_inverse():
    rng = np.random.default_rng(8)
    roots = [0.7, 0.4 * np.exp(2j), -0.5 + 0.3j]
    col = checks.section_column(workloads.symbol_coeffs(roots, 1.3), 30)
    inv = np.linalg.inv(scipy.linalg.toeplitz(col, np.conj(col)))
    entry, max_norm = checks.gohberg_semencul(
        checks.inverse_first_column(col))
    for k, l in rng.integers(0, 31, size=(20, 2)):
        assert abs(entry(int(k), int(l)) - inv[k, l]) < 1e-12
    assert abs(max_norm - np.max(np.abs(inv))) < 1e-12


def test_g_inverse_series_inverts_the_factor():
    roots = [0.6, 0.3j, -0.2 - 0.5j]
    b = checks.g_inverse_series(roots, 2.0, 40)
    g = np.sqrt(2.0) * workloads.poly_from_roots(roots)
    prod = np.convolve(g, b)[:40]
    assert np.allclose(prod, np.eye(40)[0], atol=1e-14)


def test_rounds_are_seeded_and_fresh():
    a = workloads.make_round("point-query", 11, 2, Counter())
    b = workloads.make_round("point-query", 11, 2, Counter())
    c = workloads.make_round("point-query", 12, 2, Counter())
    assert [j["inputs"] for j in a] == [j["inputs"] for j in b]
    assert [j["inputs"] for j in a] != [j["inputs"] for j in c]
    pairs = set()
    for r in range(64):
        for j in workloads.make_round("spectrum-even", 11, r,
                                      Counter()):
            key = (tuple(j["inputs"]["spec"]["cosine"]), j["inputs"]["N"])
            assert key not in pairs
            pairs.add(key)


def test_det_window_of_closed_form():
    lo, hi = workloads.det_window([2.0, -2.0])
    assert abs(lo - 0.04) < 1e-9 and abs(hi - 3.96) < 1e-9
