"""Shared construction helpers and independent oracles for the test suite.

Everything here is deliberately written along a *different* route than the
library code it checks (series truncation, convolution identities, dense
linear algebra), so the two sides never share a bug.
"""

import mpmath
import numpy as np
import scipy.linalg
import scipy.linalg.blas
from scipy.optimize import linear_sum_assignment

from toeplitz_spectra.errors import NotPositiveDefinite
from toeplitz_spectra.hankel_inversion import hankel_product_matrix
from toeplitz_spectra.predictor import levinson
from toeplitz_spectra.symbol_core import (RootSet, SpectralFactorization,
                                         TrigSymbol)

RANGE_GRID = 4096

# (root, multiplicity) inside roots with a simple, double and triple root
MULTIPLICITY_CASES = {
    1: ((0.6 + 0.3j, 1), (-0.5, 1), (0.2j, 1), (0.8 - 0.1j, 1)),
    2: ((0.7 + 0.2j, 2), (-0.4, 1), (0.3 - 0.6j, 1)),
    3: ((0.8, 3), (0.3j, 1)),
}

# inside roots of a real symbol near the unit circle (moduli 0.9991, 0.9909,
# 0.9931); refinement of the inversion formula diverges at 476 of the orders
# N <= 2000, at every N < 100 but one and at none above 649
NEAR_CIRCLE_ROOTS = tuple(
    z for a in (-0.7115641719 + 0.7012953674j, -0.9552121442 + 0.2636326469j,
                -0.9923069295 + 0.0403574230j) for z in (a, a.conjugate()))


def poly_from_factors(ws):
    """Ascending coefficients of prod (1 - w z)."""
    c = np.array([1.0 + 0j])
    for w in ws:
        c = np.convolve(c, np.array([1.0, -w]))
    return c


def symbol_from_inside_roots(roots, scale=1.0):
    """Real symbol scale * prod |1 - a chi|^2 over the given inside roots.

    ``roots`` may contain repeats (multiplicities) and complex entries; for a
    real symbol complex entries must come in conjugate pairs.
    """
    p = poly_from_factors(roots)
    conv = np.convolve(p, np.conj(p[::-1]))
    return TrigSymbol(scale * conv)


def factorization_from_roots(inside, scale=1.0):
    """SpectralFactorization with the given (root, multiplicity) inside roots.

    Built by hand, without ``wiener_hopf_factor``: phase 1, the mirrored
    outside roots, and as symbol scale * prod |1 - conj(a) chi|^2, whose
    Laurent polynomial has exactly these inside roots.
    """
    inside = tuple((complex(a), int(m)) for a, m in inside)
    outside = tuple((1.0 / np.conj(a), m) for a, m in inside)
    sym = symbol_from_inside_roots(
        [np.conj(a) for a, m in inside for _ in range(m)], scale)
    return SpectralFactorization(scale=float(scale), phase=1.0 + 0j,
                                 roots=RootSet(inside, outside), symbol=sym)


def range_on_grid(sym):
    """(min, max) of a symbol on RANGE_GRID equispaced points of [0, 2 pi)."""
    vals = sym(np.linspace(0.0, 2.0 * np.pi, RANGE_GRID, endpoint=False))
    return float(vals.min()), float(vals.max())


def char_poly_coeffs(M):
    """Characteristic polynomial of M by Faddeev-LeVerrier (trace recursion).

    Independent of any eigenvalue routine.  Returns ascending coefficients of
    det(lambda I - M).
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    c = np.zeros(n + 1, dtype=complex)
    c[n] = 1.0
    A = np.zeros_like(M)
    for k in range(1, n + 1):
        A = M @ A + c[n - k + 1] * np.eye(n)
        c[n - k] = -np.trace(M @ A) / k
    return c


def _pf_simple(poles):
    """Weights A_h with 1/prod(1 - w z) = sum A_h/(1 - w_h z), simple poles."""
    A = []
    for h, wh in enumerate(poles):
        prod = 1.0 + 0j
        for n, wn in enumerate(poles):
            if n != h:
                prod *= 1 - wn / wh
        A.append(1.0 / prod)
    return np.array(A)


def laurent_tables(plus_poles, minus_poles, scale, N, U):
    """Laurent coefficients of chi^{N+1} scale*G1/G2 and chi^{-N-1} G2/(scale G1).

    Simple poles only.  Returns two dicts exponent -> coefficient covering
    all exponents reachable with series index up to U.
    """
    g1 = scale * poly_from_factors(plus_poles)
    g2 = poly_from_factors(minus_poles)
    A_minus = _pf_simple(minus_poles) if len(minus_poles) else None
    A_plus = _pf_simple(plus_poles) if len(plus_poles) else None
    u = np.arange(U + 1)
    inv_g2 = np.zeros(U + 1, dtype=complex)
    if A_minus is None:
        inv_g2[0] = 1.0
    else:
        for Ah, q in zip(A_minus, minus_poles):
            inv_g2 += Ah * q ** u
    inv_g1 = np.zeros(U + 1, dtype=complex)
    if A_plus is None:
        inv_g1[0] = 1.0
    else:
        for Ah, w in zip(A_plus, plus_poles):
            inv_g1 += Ah * w ** u
    inv_g1 = inv_g1 / scale
    phi = {}
    for mu, g in enumerate(g1):
        for k in range(U + 1):
            e = N + 1 + mu - k
            phi[e] = phi.get(e, 0j) + g * inv_g2[k]
    phit = {}
    for mu, g in enumerate(g2):
        for k in range(U + 1):
            e = -(N + 1) - mu + k
            phit[e] = phit.get(e, 0j) + g * inv_g1[k]
    return phi, phit


def closed_form_characteristic_matrix(omegas, N):
    """Partial-fraction form of the composed Hankel matrix, distinct partners.

    With A the simple partial-fraction weights of 1/prod(1 - w z) and Q_m the
    product skipping factor m, on the simple-pole basis

        M[i, j] = A_i w_i^{N+2} sum_h A_h w_h^{N+2} Q_j(w_h) Q_h(w_i).

    ``omegas`` has shape (..., r); the result has shape (..., r, r).  It is
    singular where two partners meet.
    """
    om = np.asarray(omegas, dtype=complex)
    eye = np.eye(om.shape[-1], dtype=bool)
    # [h, n] = 1 - om_n / om_h, 1 on the diagonal
    diff = np.where(eye, 1.0, 1.0 - om[..., None, :] / om[..., :, None])
    A = 1.0 / np.prod(diff, axis=-1)
    # [m, n, i] = 1 - om_n om_i, 1 where n == m; Qz[m, i] = Q_m(om_i)
    fac = np.where(eye[:, :, None], 1.0,
                   1.0 - om[..., None, :, None] * om[..., None, None, :])
    Qz = np.prod(fac, axis=-2)
    pw = om ** (N + 2)
    # V[i, h] = A_i w_i^{N+2} Q_h(w_i)
    V = (A * pw)[..., :, None] * np.swapaxes(Qz, -1, -2)
    return V @ V


def full_series_quotient(g, y, size):
    """First ``size`` coefficients of y / g by one ``tbsv`` over all of them.

    The recursion of ``symbol_core.series_quotient`` without its cut: every
    coefficient is computed, subnormal tails included.
    """
    x = np.zeros(size, dtype=complex)
    x[:len(y)] = y
    band = np.repeat(np.asarray(g, dtype=complex)[:, None], size, axis=1)
    return scipy.linalg.blas.ztbsv(len(g) - 1, band, x, lower=1)


def subnormal_parts(a):
    """Number of real and imaginary parts of ``a`` that are subnormal."""
    parts = np.abs(np.asarray(a).view(float))
    return int(np.count_nonzero((parts > 0) & (parts < np.finfo(float).tiny)))


def recursion_hankel_halves(plus, minus, N):
    """Hd L(G2) and Hb L(G1) from the full 1/G1 and 1/G2 series.

    ``plus`` and ``minus`` are (pole, multiplicity) tuples of G1 and G2.
    Both series come from the uncut forward recursion up to
    index N + n1 + n2 + 2, Hd[i, e-1] = d[N+1+e+i] and Hb[e-1, j] =
    b[N+1+j+e] are read off by index, and L(G) is the dense lower
    triangular Toeplitz matrix; M is the product of the two halves.  The
    route that ``hankel_inversion.hankel_half`` replaced.
    """
    g1 = poly_from_factors([w for w, s in plus for _ in range(s)])
    g2 = poly_from_factors([q for q, s in minus for _ in range(s)])
    n1, n2 = g1.size - 1, g2.size - 1
    d = full_series_quotient(g1, [1.0], N + n1 + n2 + 3)
    b = full_series_quotient(g2, [1.0], N + n1 + n2 + 3)
    i, e = np.arange(n1), np.arange(1, n2 + 1)
    L1 = scipy.linalg.toeplitz(g1[:n1], np.zeros(n1))
    L2 = scipy.linalg.toeplitz(g2[:n2], np.zeros(n2))
    return (d[N + 1 + i[:, None] + e[None, :]] @ L2,
            b[N + 1 + e[:, None] + i[None, :]] @ L1)


def _mp_poly(roots):
    """prod (1 - a z) over ``roots`` as a list of mpc, at the working dps."""
    g = [mpmath.mpc(1)]
    for a in roots:
        a = mpmath.mpc(complex(a))
        g = [x - a * y for x, y in zip(g + [0], [0] + g)]
    return g


def mp_inverse_series(roots, count, dps=50):
    """Coefficients 0..count-1 of 1 / prod (1 - a z) in ``dps``-digit mpmath.

    ``roots`` lists a repeated root once per multiplicity.  The polynomial
    is expanded and its series recursion run in mpmath, so the rounding of
    the double-precision routes does not enter; the result stays a list of
    ``mpc``.
    """
    with mpmath.workdps(dps):
        g = _mp_poly(roots)
        b = [mpmath.mpc(1)]
        for k in range(1, count):
            b.append(-mpmath.fsum(g[j] * b[k - j]
                                  for j in range(1, min(k, len(g) - 1) + 1)))
        return b


def mp_predictor(h, M, dps=40):
    """The degree-M predictor's beta in ``dps``-digit mpmath.

    The Levinson-Durbin recursion run on the double coefficients
    hat(h)(0..M), read exactly, so only the rounding of the double routes
    separates them from this; returned as complex doubles.
    """
    upto = max(M, h.degree)
    r = h.padded(upto)[upto: upto + M + 1]
    with mpmath.workdps(dps):
        r = [mpmath.mpc(complex(z)) for z in r]
        a, E = [mpmath.mpc(1)], r[0].real
        for m in range(1, M + 1):
            kappa = -mpmath.fsum(a[j] * r[m - j] for j in range(m)) / E
            a = [a[0]] + [a[j] + kappa * mpmath.conj(a[m - j])
                          for j in range(1, m)] + [kappa]
            E *= 1 - abs(kappa) ** 2
        return np.array([complex(x / mpmath.sqrt(E)) for x in a])


def mp_context_product(roots, N, dps=50):
    """M = V conj(V) of the inversion context from 50-digit series.

    V[i, j] = sum_{j <= e < n} d[N+2+i+e] g[e-j], with d the series of
    1/conj(g) and g = prod (1 - a z) over ``roots`` (a repeated root once
    per multiplicity); the product is formed in mpmath as well.
    """
    n = len(roots)
    with mpmath.workdps(dps):
        g = _mp_poly(roots)
        d = [mpmath.conj(x) for x in mp_inverse_series(roots, N + 2 * n + 1,
                                                      dps)]
        V = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                V[i, j] = mpmath.fsum(d[N + 2 + i + e] * g[e - j]
                                      for e in range(j, n))
        return np.array((V * V.apply(mpmath.conj)).tolist(), dtype=complex)


def gram_similar(fac, N):
    """The context's M in an orthonormal basis of E: R M R^{-1}.

    The squared norm of the element with state x is x^H G x, with the
    Stein Gram matrix G = A^H G A + e0 e0^T for the companion matrix A of
    G1 = conj(g), and G = R^H R is its Cholesky factorization.  For a real
    symbol the result is Hermitian up to the rounding of M.
    """
    M = hankel_product_matrix(fac, N).entries
    n = M.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    A = np.eye(n, k=1, dtype=complex)
    A[-1] = -fac.g.conj()[:0:-1]
    e0 = np.zeros((n, n))
    e0[0, 0] = 1.0
    G = scipy.linalg.solve_discrete_lyapunov(A.conj().T, e0)
    R = scipy.linalg.cholesky(0.5 * (G + G.conj().T))
    return R @ M @ np.linalg.inv(R)


def gram_norm(fac, N):
    """Operator norm of the context's M in the inner product of E.

    ||R M R^{-1}||_2 (``gram_similar``): the route that the spectral radius
    of ``hankel_product_matrix`` replaced.
    """
    return float(np.linalg.norm(gram_similar(fac, N), 2))


def largest_eigenvalues(P, r):
    """The r eigenvalues of P of largest modulus, sorted by np.sort_complex."""
    ev = np.linalg.eigvals(P)
    return np.sort_complex(ev[np.argsort(-np.abs(ev))[:r]])


def brute_hankel_product(plus_poles, minus_poles, scale, N, dim):
    """Fourier-truncated matrix of the composed Hankel maps on chi^0..chi^{dim-1}."""
    phi, phit = laurent_tables(plus_poles, minus_poles, scale, N,
                               U=3 * dim + 2 * N + 8)
    H = np.array([[phi.get(-(w + k), 0j) for k in range(dim)]
                  for w in range(1, dim + 1)])
    Ht = np.array([[phit.get(k + w, 0j) for w in range(1, dim + 1)]
                   for k in range(dim)])
    return Ht @ H


def dense_eigvalsh(M):
    """Ascending eigenvalues of a Hermitian matrix by dense LAPACK eigvalsh.

    The O(n^3) route that the banded ``hermitian_eigen`` replaced.
    """
    return np.linalg.eigvalsh(np.asarray(M, dtype=complex))


def bisect_fixed(g, lo, hi, steps):
    """Bisection of many brackets at once that always runs ``steps`` steps.

    g > 0 at a midpoint keeps the upper half, g <= 0 the lower half, and
    NaN freezes the bracket.  The oracle for ``spectra._root``.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    if not lo.size:
        return lo
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        s = g(mid)
        lo = np.where(s > 0, mid, lo)
        hi = np.where(s <= 0, mid, hi)
    return 0.5 * (lo + hi)


def grid_branches(sym, n_grid=8193):
    """Monotone pieces (a, b, f(a), f(b)) of a symbol on [0, pi] from a grid.

    f' is sampled on n_grid points; each sign change is bisected, an
    interior sample where f' is exactly 0 is a cut too, and cuts closer
    than 1e-9 are merged.  The route that ``spectra.monotone_branches``
    replaced.
    """
    theta = np.linspace(0.0, np.pi, n_grid)
    df = sym.derivative(theta)
    flat = (df[:-1] == 0.0) & (np.arange(n_grid - 1) > 0)
    change = df[:-1] * df[1:] < 0
    s = np.sign(df[:-1][change])
    zeros = bisect_fixed(lambda m: s * sym.derivative(m), theta[:-1][change],
                         theta[1:][change], 100)
    cuts = sorted({0.0, np.pi, *theta[:-1][flat].tolist(), *zeros.tolist()})
    merged = [cuts[0]]
    for c in cuts[1:]:
        if c - merged[-1] > 1e-9:
            merged.append(c)
    vals = sym(np.array(merged)).tolist()
    return tuple(zip(merged[:-1], merged[1:], vals[:-1], vals[1:]))


def table_antecedents(sym, branches, lams, n_table=1025):
    """theta[j, b]: the antecedent of lams[j] on branch b, NaN off its range.

    A table of f on n_table points of each branch brackets every target
    (lams clipped into the branch's range), and bisection refines it.  The
    route that ``spectra.grid_localize`` replaced.
    """
    lams = np.asarray(lams, dtype=float)
    span = max(max(fa, fb) for *_, fa, fb in branches) \
        - min(min(fa, fb) for *_, fa, fb in branches)
    theta = np.full((lams.size, len(branches)), np.nan)
    for bi, (a, b, fa, fb) in enumerate(branches):
        lo, hi = min(fa, fb), max(fa, fb)
        on = (lams >= lo - 1e-12 * span) & (lams <= hi + 1e-12 * span)
        target = np.clip(lams[on], lo, hi)
        ts = np.linspace(a, b, n_table)
        tab = sym(ts)
        tab[[0, -1]] = fa, fb
        up = 1.0 if fb >= fa else -1.0
        i = np.searchsorted(np.maximum.accumulate(up * tab), up * target)
        i = np.maximum(i - 1, 0)
        theta[on, bi] = bisect_fixed(lambda m: up * (target - sym(m)),
                                     ts[i], ts[i + 1], 100)
    return theta


def mp_x_roots(cosine, lam, dps=50):
    """Roots x of sum_j cosine[j] T_j(x) - lam at dps digits, by mpmath.

    The Chebyshev series goes to the power basis by T_{j+1} = 2x T_j -
    T_{j-1} in dps-digit arithmetic, whose roots ``mpmath.polyroots``
    finds; an independent route to ``spectra._x_roots``.
    """
    with mpmath.workdps(dps):
        cheb = [[mpmath.mpf(1)], [mpmath.mpf(0), mpmath.mpf(1)]]
        while len(cheb) < len(cosine):
            twice = [mpmath.mpf(0), *(2 * v for v in cheb[-1])]
            cheb.append([v - (cheb[-2][i] if i < len(cheb[-2]) else 0)
                         for i, v in enumerate(twice)])
        power = [mpmath.mpf(0)] * len(cosine)
        for cj, tj in zip(cosine, cheb):
            for i, v in enumerate(tj):
                power[i] += mpmath.mpf(float(cj)) * v
        power[0] -= mpmath.mpf(float(lam))
        roots = mpmath.polyroots(power[::-1], maxsteps=400, extraprec=dps)
        return [complex(r) for r in roots]


def exp_sum_symbol(sym, theta):
    """f and f' of a TrigSymbol from the full exponential sum over -d..d.

    The (M, 2d+1) matrix of e^{i j theta} route that Horner evaluation
    replaced; the oracle for ``TrigSymbol.__call__`` and ``derivative``.
    """
    theta = np.asarray(theta, dtype=float)
    d = sym.degree
    js = np.arange(-d, d + 1)
    E = np.exp(1j * np.multiply.outer(theta, js))
    return np.real(E @ sym.coeffs), np.real(E @ (1j * js * sym.coeffs))


def dense_slot_assignment(theta, N):
    """Grid slots (branch, k) by a dense padded linear_sum_assignment.

    ``theta[j, b]`` is the antecedent of eigenvalue j on branch b (NaN:
    none).  Each antecedent offers the grid points k pi/(N+2) next to it;
    the cost matrix holds the squared grid distances, every other entry is
    1e9, and slots are numbered by first appearance in eigenvalue-major,
    branch, k order.  The route ``spectra._slot_assignment`` replaced.
    Returns (branch, k) arrays, or None when some eigenvalue is left on a
    padded entry (slot exhaustion).
    """
    grid_step = np.pi / (N + 2)
    jj, bb = np.nonzero(~np.isnan(theta))
    k0 = np.rint(theta[jj, bb] / grid_step).astype(int)
    J, B = np.repeat(jj, 3), np.repeat(bb, 3)
    K = (k0[:, None] + np.arange(-1, 2)).ravel()
    keep = (K >= 0) & (K <= N + 1)
    J, B, K = J[keep], B[keep], K[keep]
    _, first, inverse = np.unique(B * (N + 2) + K, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    head = first[order]
    slot = np.argsort(order)[inverse]
    n_eig = theta.shape[0]
    big = 1e9
    cost = np.full((n_eig, max(head.size, n_eig)), big)
    cost[J, slot] = ((theta[J, B] - K * grid_step) / grid_step) ** 2
    rows, cols = linear_sum_assignment(cost)
    if np.any(cost[rows, cols] >= big):
        return None
    return B[head[cols]], K[head[cols]]


def slot_cost(theta, N, branch, k):
    """Total squared grid distance of the assignment (branch, k)."""
    grid_step = np.pi / (N + 2)
    t = theta[np.arange(theta.shape[0]), branch]
    return float(np.sum(((t - k * grid_step) / grid_step) ** 2))


def grid_minimizer(sym, n_grid=8192):
    """The minimizer of a symbol from an n_grid-point grid on [0, 2 pi).

    Grid points within 1e-10 of the range above the least sample form
    groups, split where two are more than 2.5 steps apart and joined across
    2 pi.  One group is a unique minimizer, refined by up to 60 halving
    parabolic steps from its middle point.  Returns None for more than one
    group.  The route that ``spectra._unique_minimizer`` replaced.
    """
    h = 2 * np.pi / n_grid
    theta = np.linspace(0.0, 2 * np.pi, n_grid, endpoint=False)
    vals = sym(theta)
    near = theta[vals <= vals.min() + 1e-10 * max(np.ptp(vals), 1e-300)]
    groups = [[near[0]]]
    for t in near[1:]:
        if t - groups[-1][-1] <= 2.5 * h:
            groups[-1].append(t)
        else:
            groups.append([t])
    if len(groups) >= 2 and groups[0][0] + 2 * np.pi - groups[-1][-1] \
            <= 2.5 * h:
        groups[0] = groups.pop() + groups[0]
    if len(groups) != 1:
        return None
    center = float(groups[0][len(groups[0]) // 2])
    for _ in range(60):
        f0, fp, fm = sym(center), sym(center + h), sym(center - h)
        denom = fp - 2 * f0 + fm
        if denom <= 0:
            break
        center += float(np.clip(0.5 * h * (fm - fp) / denom, -h, h))
        h *= 0.5
    return center % (2 * np.pi)


def levinson_loop(h, M):
    """``predictor.levinson``'s beta by the Levinson-Durbin recursion.

    The scalar loop over the orders 1..M on hat(h)(0..M) (Levinson 1947)
    that the banded Cholesky solve replaced.  Raises NotPositiveDefinite,
    with the ``order``, when a reflection coefficient reaches modulus one.
    """
    upto = max(M, h.degree)
    r = h.padded(upto)[upto: upto + M + 1]
    a = np.zeros(M + 1, dtype=complex)
    a[0] = 1.0
    E = float(r[0].real)
    if E <= 0:
        raise NotPositiveDefinite("hat(h)(0) must be positive", order=0)
    for m in range(1, M + 1):
        acc = r[m] + np.dot(a[1:m], r[m - 1: 0: -1])
        kappa = -acc / E
        if abs(kappa) >= 1.0:
            raise NotPositiveDefinite(
                f"reflection coefficient |kappa|={abs(kappa):.6f} at order "
                f"{m}", order=m)
        a_new = a.copy()
        a_new[m] = kappa
        if m > 1:
            a_new[1:m] = a[1:m] + kappa * np.conj(a[m - 1: 0: -1])
        a = a_new
        E *= 1.0 - abs(kappa) ** 2
    return a / np.sqrt(E)


def moment_residual_loop(h, M):
    """``predictor.property1_check`` by a scalar loop over s = -M..M.

    The route the vectorised check replaced; the same arithmetic, so the
    two agree bit for bit.
    """
    P = levinson(h, M)
    grid_size = 1024
    while grid_size < 16 * max(M, 1):
        grid_size *= 2
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    fhat = np.fft.fft(1.0 / np.abs(P.on_circle(theta)) ** 2) / grid_size
    return float(max(abs(h.coeff(s) - fhat[s % grid_size])
                     for s in range(-M, M + 1)))


def lemma1_errors_loop(h, b, N_list):
    """``predictor.lemma1_rate``'s errors by a scalar loop over k <= N/2.

    The route the vectorised errors replaced; they agree bit for bit.
    """
    b = np.asarray(b, dtype=complex)
    limit = np.conj(b[0]) * b / abs(b[0])
    errs = []
    for N in N_list:
        beta = levinson(h, int(N)).beta
        errs.append(float(max(abs(beta[k] - (limit[k] if k < b.size else 0.0))
                              for k in range(int(N) // 2 + 1))))
    return errs
