import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmoment import (BlockJacobiMatrix, Determinacy, DeterminacyClass,
                         MatrixPoly, StepMeasure, classify, cumulative,
                         deficiency_indices, estimate_H, extension_bracket,
                         extension_spectrum, form,
                         gauss_quadrature, generate_first_kind,
                         growth_diagnostic, ind_fixture, jump_bound,
                         kernel_partial, moments_from_jacobi, quartet,
                         second_kind, stieltjes_invert, stieltjes_transform,
                         transform_extremal, transform_from_V)
from blockmoment import matkernel as mk
from blockmoment import nevanlinna
from blockmoment.errors import (HalfPlaneError, InvalidInputError,
                                PoleError, RefusedError)
from blockmoment.polys import (_scalar_series, _series, _SeriesAccumulator,
                               _state_chunks, first_kind_values)

from conftest import random_regular_growing, random_unitary, rel_err


@pytest.fixture(scope="module")
def ind_cls(ind):
    return classify(ind)


def double_ind_fixture(rng=None, n_blocks=260):
    """Dense p=2 completely indeterminate fixture.

    Unitary conjugation of the interleave of IND with a shifted copy; both
    scalar components are indeterminate, so nu = (2, 2).
    """
    w = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)

    def rule(k):
        d = np.diag([0.0, 1.0]).astype(complex)
        o = np.diag([float((k + 1) ** 2), 1.3 * float((k + 1) ** 2)])
        return w @ d @ w.conj().T, w @ o @ w.conj().T

    diag = tuple(rule(k)[0] for k in range(n_blocks))
    off = tuple(rule(k)[1] for k in range(n_blocks - 1))
    return BlockJacobiMatrix(2, diag, off, rule)


# ---------------------------------------------------------------------------
# second kind polynomials
# ---------------------------------------------------------------------------

def test_second_kind_examples(ch):
    basis = generate_first_kind(ch, 4)
    sk = second_kind(basis, 3)
    assert sk.epolys[0].degree == -1
    assert np.allclose(sk.epolys[1].coeffs.ravel(), [2.0])
    assert np.allclose(sk.epolys[2].coeffs.ravel(), [0.0, 4.0])


def test_second_kind_degrees(ind):
    basis = generate_first_kind(ind, 8)
    sk = second_kind(basis, 8)
    for k in range(1, 9):
        assert sk.epolys[k].degree == k - 1


def test_second_kind_matches_divided_difference(ch, ind, ds, rng):
    # independent oracle for the defining formula: divide D_k(lam) - D_k(z0)
    # by (lam - z0) synthetically, pair the quotient with I under the form,
    # and compare with the symbolic E_k evaluated at z0
    for j in (ch, ind, ds):
        basis = generate_first_kind(j, 8)
        sk = second_kind(basis, 8)
        ident = MatrixPoly.constant(np.eye(j.p))
        for _ in range(3):
            z0 = complex(rng.standard_normal(), rng.standard_normal())
            for k in range(9):
                c = basis.polys[k].coeffs
                quot = np.zeros((max(k, 1), j.p, j.p), dtype=complex)
                carry = np.zeros((j.p, j.p), dtype=complex)
                for i in range(k, 0, -1):      # synthetic division by lam-z0
                    carry = c[i] + carry * z0
                    quot[i - 1] = carry
                dd = MatrixPoly(j.p, quot)
                want = form(dd, ident, basis)
                got = sk.epolys[k](z0)
                assert rel_err(got, want) < 1e-10


def test_second_kind_recurrence(ch, ind, ds):
    # E_k satisfies the three-term recurrence for k >= 1 (k <= 20)
    for j in (ch, ind, ds):
        basis = generate_first_kind(j, 21)
        sk = second_kind(basis, 21)
        jp = j.prefix(22)
        for k in range(1, 21):
            lhs = sk.epolys[k].shift()
            rhs = MatrixPoly(j.p, jp.diag[k][None] @ sk.epolys[k].coeffs)
            rhs = rhs + MatrixPoly(
                j.p, jp.offdiag[k][None] @ sk.epolys[k + 1].coeffs)
            rhs = rhs + MatrixPoly(
                j.p,
                (jp.offdiag[k - 1].conj().T)[None] @ sk.epolys[k - 1].coeffs)
            diff = lhs - rhs
            scale = max(1.0, np.abs(lhs.coeffs).max())
            assert np.abs(diff.coeffs).max() < 1e-10 * scale


def engine_values(j, zs, n):
    """D_k(zs) and E_k(zs), k = 0..n, from the series engine's states."""
    p = j.p
    chunks = _state_chunks(j, np.repeat(zs, 2), [False, True] * len(zs), n)
    xs = np.concatenate([c.copy() for c in chunks])
    blocks = xs.reshape(n + 1, p, 2 * len(zs), p).transpose(0, 2, 1, 3)
    return blocks[:, 0::2], blocks[:, 1::2]


def test_pointwise_matches_symbolic(ind, rng):
    zs = [0.3 - 0.7j, 2.0 + 1.0j]
    for j in (ind, double_ind_fixture(), random_regular_growing(2, 12, rng)):
        basis = generate_first_kind(j, 10)
        sk = second_kind(basis, 10)
        dks, eks = engine_values(j, zs, 10)
        for k in range(11):
            for i, z in enumerate(zs):
                assert rel_err(dks[k, i], basis.polys[k](z)) < 1e-12
                assert rel_err(eks[k, i], sk.epolys[k](z)) < 1e-12


# ---------------------------------------------------------------------------
# quartet
# ---------------------------------------------------------------------------

def test_quartet_at_zero_exact(ind, ind_cls):
    q = quartet(ind, 0.0, determinacy=ind_cls)
    assert np.array_equal(q.f1, np.eye(1))
    assert np.array_equal(q.f2, np.zeros((1, 1)))
    assert np.array_equal(q.g1, np.zeros((1, 1)))
    assert np.array_equal(q.g2, np.eye(1))
    assert q.converged


def test_quartet_refused_for_determinate(ch):
    with pytest.raises(RefusedError):
        quartet(ch, 1j)


def test_quartet_tolerance_stop_is_stable_under_nmax_doubling(ind, ind_cls):
    # series terms decay like 1/k^2, so the increment rule stops the sum
    # well before n_max; doubling n_max then reproduces the values exactly
    for z in (1j, 2.0 - 1.0j, 4.0):
        a = quartet(ind, z, n_max=60000, series_tol=1e-7,
                    determinacy=ind_cls)
        b = quartet(ind, z, n_max=120000, series_tol=1e-7,
                    determinacy=ind_cls)
        assert a.converged and b.converged
        assert a.n_used == b.n_used
        for name in ("f1", "f2", "g1", "g2"):
            assert np.abs(getattr(a, name) - getattr(b, name)).max() < 1e-10


def test_quartet_reports_nonconvergence_at_default_depth(ind, ind_cls):
    q = quartet(ind, 1j, determinacy=ind_cls)
    assert not q.converged
    assert q.n_used == 400
    assert q.tail_norm > 0


def test_quartet_scalar_path_matches_block_path(ind):
    # the p = 1 scalar path against the engine on the sums of the quartet,
    # of the extremal transform and of the extension bracket
    z, xi, x = 0.7 + 1.3j, 0.4, -1.7
    zb = z.conjugate()
    cases = (  # scalar: w, v, weight, watch; engine: points, second,
               # n_left, weight; scalar sums (DD, DE, ED, EE) compared
        (zb, 0j, (z, z), (True,) * 4,
         [zb, zb, 0.0, 0.0], [False, True, False, True], 2, z, (0, 1, 2, 3)),
        (zb, xi, None, (True, False, True, False),
         [zb, zb, xi], [False, True, False], 2, 1.0, (0, 2)),
        (x, 0j, (x, x), (True, True, False, False),
         [x, 0.0, 0.0], [False, False, True], 1, x, (0, 1)))
    for w, v, weight, watch, zs, second, n_left, eng_weight, idx in cases:
        for tol in (0.0, 1e-5):
            sums, n_used, _, conv = _scalar_series(
                ind, w, v, weight, (0j, 0j, 0j), watch, 300, tol)
            t, n_eng, _, conv_eng = _series(ind, zs, second, n_left,
                                            eng_weight, 300, tol)
            for i, want in zip(idx, t.ravel()):
                assert rel_err(sums[i], want) < 1e-12
            assert (n_used, conv) == (n_eng, conv_eng)


def test_series_stop_rule_is_the_same_one_at_a_time_and_in_chunks():
    rng = np.random.default_rng(7)
    for _ in range(200):
        incs = 10.0 ** rng.uniform(-9, -5, rng.integers(1, 40))
        incs[rng.random(incs.size) < 0.3] = 0.0     # parity zeros
        single = _SeriesAccumulator(1e-7)
        stop = next((i + 1 for i, x in enumerate(incs) if single.push(x)),
                    None)
        chunked = _SeriesAccumulator(1e-7)
        got, seen = None, 0
        for part in np.array_split(incs, rng.integers(1, 5)):
            got = chunked.push_chunk(part)
            if got is not None:
                got += seen
                break
            seen += part.size
        assert got == stop
        assert (chunked.steps, chunked.tail) == (single.steps, single.tail)


def ci_matrix(rng, p, n_blocks, rule):
    """A_kk = a, A_{k,k+1} = (k+1)^2 (I + 0.3 G), ||G|| = 1: always CI."""
    g = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    a = 0.5 * (g + g.conj().T)
    g = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    x = np.eye(p) + 0.3 * g / np.linalg.svd(g, compute_uv=False)[0]

    def blocks(k):
        return a, (k + 1) ** 2 * x

    return BlockJacobiMatrix(p, tuple(a for _ in range(n_blocks)),
                             tuple(blocks(k)[1] for k in range(n_blocks - 1)),
                             blocks if rule else None)


def plain_quartet(j, z, n_terms, series_tol):
    """Quartet sums by one solve per step and per family, and the stop rule
    (two consecutive increments below tol, not before the third term)."""
    p = j.p
    jp = j.prefix(n_terms + 1)
    zero = np.zeros((p, p), dtype=complex)
    eye = np.eye(p, dtype=complex)
    e1 = np.linalg.solve(jp.offdiag[0], eye)
    # (previous, current) for D(conj z), D(0), E(conj z), E(0)
    states = [(zero, eye), (zero, eye), (zero, zero), (zero, zero)]
    points = (np.conj(z), 0.0, np.conj(z), 0.0)
    sums = [eye, zero, -z * eye, eye]
    incs = [np.abs(sums[2]).max()]
    for k in range(n_terms):
        nxt = []
        for i, ((prev, cur), w) in enumerate(zip(states, points)):
            rhs = w * cur - jp.diag[k] @ cur
            if k > 0:
                rhs -= jp.offdiag[k - 1].conj().T @ prev
            new = np.linalg.solve(jp.offdiag[k], rhs)
            nxt.append((cur, e1 if (k == 0 and i >= 2) else new))
        states = nxt
        dz, d0k, ez, e0k = (cur.conj().T if i in (0, 2) else cur
                            for i, (_, cur) in enumerate(states))
        terms = [z * (ez @ d0k), z * (ez @ e0k), -z * (dz @ d0k),
                 -z * (dz @ e0k)]
        sums = [s + t for s, t in zip(sums, terms)]
        incs.append(max(np.abs(t).max() for t in terms))
        if len(incs) >= 3 and max(incs[-2:]) < series_tol:
            return sums, k + 1, True
    return sums, n_terms, False


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 32 - 1),
       extended=st.booleans(), log_tol=st.floats(-6.0, -1.0))
def test_engine_matches_plain_recurrence(p, seed, extended, log_tol):
    rng = np.random.default_rng(seed)
    j = ci_matrix(rng, p, 20 if extended else 150, rule=extended)
    z = complex(*rng.uniform(-4.0, 4.0, 2))
    cls = DeterminacyClass(Determinacy.COMPLETELY_INDETERMINATE, p, p)
    q = quartet(j, z, n_max=200, series_tol=10.0 ** log_tol,
                determinacy=cls)
    sums, n_used, converged = plain_quartet(j, z, 200 if extended else 149,
                                            10.0 ** log_tol)
    assert (q.n_used, q.converged) == (n_used, converged)
    for got, want in zip((q.f1, q.f2, q.g1, q.g2), sums):
        assert rel_err(got, want) < 1e-12


def test_second_call_reuses_the_recurrence_plan(monkeypatch):
    j = double_ind_fixture()
    cls = DeterminacyClass(Determinacy.COMPLETELY_INDETERMINATE, 2, 2)
    counts = {"prefix": 0, "inv": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(BlockJacobiMatrix, "prefix",
                        counted("prefix", BlockJacobiMatrix.prefix))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    quartet(j, 1j, determinacy=cls)
    assert counts == {"prefix": 1, "inv": 1}      # one batched inverse
    counts.update(prefix=0, inv=0)
    quartet(j, 0.5 + 2j, determinacy=cls)
    quartet(j, 1j, n_max=100, determinacy=cls)    # shorter: same plan
    extension_bracket(j, np.eye(2), np.linspace(-1.0, 1.0, 5))
    assert counts == {"prefix": 0, "inv": 0}
    transform_extremal(j, 0.3, 1.0 - 1j, determinacy=cls)
    assert counts == {"prefix": 0, "inv": 1}      # the bracket inverse only
    counts.update(prefix=0, inv=0)
    quartet(j, 1j, n_max=500, determinacy=cls)   # longer: one rebuild
    assert counts == {"prefix": 1, "inv": 1}
    # the kernel sums, the classifier and the quadrature share the plan
    counts.update(prefix=0, inv=0)
    kernel_partial(j, 1j, 300)
    estimate_H(j, 2j)
    classify(j)
    gauss_quadrature(j, 12)
    assert counts["prefix"] == 0
    # so do the symbolic polynomials of both kinds
    basis = generate_first_kind(j, 12)
    for call in (lambda: generate_first_kind(j, 12),
                 lambda: second_kind(basis, 12),
                 lambda: moments_from_jacobi(j, 12)):
        counts.update(prefix=0, inv=0)
        call()
        assert counts["prefix"] == 0 and counts["inv"] <= 1
    # and so does the p = 1 scalar path
    ind = ind_fixture(420)
    cls = DeterminacyClass(Determinacy.COMPLETELY_INDETERMINATE, 1, 1)
    quartet(ind, 1j, determinacy=cls)
    counts.update(prefix=0, inv=0)
    quartet(ind, 0.5 + 2j, determinacy=cls)
    extension_bracket(ind, np.eye(1), [0.5])
    assert counts == {"prefix": 0, "inv": 0}


def test_singular_d0_is_invalid_input(ch):
    # the two entry points that take a D_0, at p = 1 and p = 2
    for j, bad in ((ch, [[0]]), (double_ind_fixture(),
                                 [[1.0, 2.0], [2.0, 4.0]])):
        for call in (lambda: generate_first_kind(j, 4, bad),
                     lambda: moments_from_jacobi(j, 4, bad)):
            with pytest.raises(InvalidInputError, match="D_0"):
                call()


def test_series_kernel_and_quadrature_entry_points_take_no_d0():
    def params(fn):
        return set(inspect.signature(fn).parameters)

    for fn in (first_kind_values, kernel_partial, estimate_H,
               gauss_quadrature, jump_bound, quartet, transform_extremal,
               transform_from_V):
        assert "d0" not in params(fn), fn.__name__
    for fn in (extension_bracket, extension_spectrum):
        assert not {"d0", "series_tol"} & params(fn), fn.__name__
    for fn in (generate_first_kind, moments_from_jacobi):
        assert "d0" in params(fn), fn.__name__
    # the engine runs on the fixed seeds D_0 = I and E_1 = B_0^{-1}
    for fn in (_state_chunks, _series, _scalar_series):
        assert "seeds" not in params(fn), fn.__name__


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_extremal_half_plane_enforced(ind, ind_cls):
    for z in (1j, 0.5, 2.0 + 0.1j):
        with pytest.raises(HalfPlaneError):
            transform_extremal(ind, 0.0, z, determinacy=ind_cls)


def test_extremal_herglotz_sign(ind, ind_cls):
    m = transform_extremal(ind, 0.0, -1j, determinacy=ind_cls)
    assert m[0, 0].imag < 0
    m = transform_extremal(ind, 0.3, -2.0 - 0.5j, determinacy=ind_cls)
    assert m[0, 0].imag < 0


def test_extremal_mass_extraction(ind, ind_cls):
    # eps * |m(xi - i*eps)| -> jump at xi = K_infty(xi)^{-1}
    n = 20000
    vals = []
    for eps in (1e-2, 1e-3, 1e-4):
        m = transform_extremal(ind, 0.0, -1j * eps, n_max=n,
                               series_tol=0.0, determinacy=ind_cls)
        vals.append(eps * abs(m[0, 0]))
    k = kernel_partial(ind, 0.0, n)
    target = 1.0 / k[0, 0].real
    extrap = vals[2] - (vals[1] - vals[2]) / 9.0  # first-order Richardson
    assert abs(extrap - target) < 1e-3 * target
    assert abs(vals[2] - target) < 1e-3 * target


def test_jump_bound_examples(ch, ind):
    assert np.allclose(jump_bound(ch, 0.0, 0), np.eye(1))
    # D_1(0) = 0 so K_1(0) = 1
    assert jump_bound(ch, 0.0, 1)[0, 0] == pytest.approx(1.0)
    for j in (ch, ind):
        for xi in (0.0, 0.3):
            prev = jump_bound(j, xi, 0)
            for n in range(1, 31):
                cur = jump_bound(j, xi, n)
                assert mk.loewner_leq(cur, prev, 1e-12)
                prev = cur


def test_transform_v_reductions(ind, ind_cls):
    z = 0.5 + 1.5j
    q = quartet(ind, z, determinacy=ind_cls)
    m_plus = transform_from_V(ind, z, np.eye(1), determinacy=ind_cls)
    assert rel_err(m_plus, q.f1 @ np.linalg.inv(q.g1)) < 1e-12
    m_minus = transform_from_V(ind, z, -np.eye(1), determinacy=ind_cls)
    assert rel_err(m_minus, q.f2 @ np.linalg.inv(q.g2)) < 1e-12
    m0 = transform_from_V(ind, z, np.zeros((1, 1)), determinacy=ind_cls)
    ref = (q.f1 + 1j * q.f2) @ np.linalg.inv(q.g1 + 1j * q.g2)
    assert rel_err(m0, ref) < 1e-12
    assert m0[0, 0].imag > 0


def test_transform_v_herglotz_and_callable(ind, ind_cls, rng):
    # strict contractions are sampled at Im z >= 1: closer to the axis the
    # printed interior parametrization is known to lose the Herglotz sign
    # (see the transform_from_V docstring)
    sampler = lambda z: np.array([[0.4 - 0.3j]])  # constant contraction
    for _ in range(10):
        z = complex(2 * rng.standard_normal(), 1.0 + 2 * rng.random())
        m = transform_from_V(ind, z, sampler, determinacy=ind_cls)
        assert m[0, 0].imag > 0


def test_transform_v_unitary_herglotz_near_axis(ind, ind_cls, rng):
    # unitary V yields genuine solutions: Herglotz even close to the axis
    for theta in (0.0, np.pi / 3, np.pi, 1.0):
        v = np.exp(1j * theta) * np.eye(1)
        for _ in range(5):
            z = complex(4 * rng.standard_normal(), 0.05 + rng.random())
            m = transform_from_V(ind, z, v, determinacy=ind_cls)
            assert m[0, 0].imag > 0


def test_transform_v_validation(ind, ind_cls):
    with pytest.raises(HalfPlaneError):
        transform_from_V(ind, -1j, np.zeros((1, 1)), determinacy=ind_cls)
    with pytest.raises(InvalidInputError):
        transform_from_V(ind, 1j, 1.5 * np.eye(1), determinacy=ind_cls)
    with pytest.raises(RefusedError):
        transform_from_V(ch_det(), 1j, np.zeros((1, 1)))


def ch_det():
    from blockmoment import ch_fixture
    return ch_fixture()


def test_transform_moment_asymptotics(ind, ind_cls):
    # z m(z) + S_0 -> 0 along the imaginary axis
    prev = np.inf
    for t in (10.0, 40.0, 160.0):
        z = 1j * t
        m = transform_from_V(ind, z, np.zeros((1, 1)), n_max=4000,
                             series_tol=1e-13, determinacy=ind_cls)
        err = mk.spectral_norm(z * m + np.eye(1))
        assert err < prev
        prev = err


def test_extremal_consistent_with_unit_contraction(ind, ind_cls):
    # the extremal solution at xi=0 carries the maximal jump there; its
    # transform agrees with the V=I member across the real axis via the
    # reflection m(conj z) = m(z)^H
    z = 0.4 + 1.1j
    m_up = transform_from_V(ind, z, np.eye(1), n_max=30000,
                            series_tol=1e-10, determinacy=ind_cls)
    m_dn = transform_extremal(ind, 0.0, np.conj(z), n_max=30000,
                              series_tol=1e-10, determinacy=ind_cls)
    assert rel_err(m_dn, m_up.conj().T) < 1e-6


def test_double_ind_block_quartet_and_transforms(rng):
    j = double_ind_fixture()
    cls = classify(j)
    assert str(cls) == "CompletelyIndeterminate"
    z = 0.3 + 1.2j
    q = quartet(j, z, n_max=800, series_tol=1e-11, determinacy=cls)
    m1 = transform_from_V(j, z, np.eye(2), n_max=800, series_tol=1e-11,
                          determinacy=cls)
    assert rel_err(m1, q.f1 @ np.linalg.inv(q.g1)) < 1e-10
    v = 0.5 * random_unitary(2, rng)
    m = transform_from_V(j, z, v, n_max=800, series_tol=1e-11,
                         determinacy=cls)
    im = (m - m.conj().T) / 2j
    assert mk.min_eigenvalue(im) > 0


# ---------------------------------------------------------------------------
# extension spectra
# ---------------------------------------------------------------------------

def test_extension_requires_unitary(ind, ind_cls):
    with pytest.raises(InvalidInputError):
        extension_spectrum(ind, 0.5 * np.eye(1), (-5, 5),
                           determinacy=ind_cls)


def test_extension_spectrum_u_minus_one_is_g2_zeros(ind, ind_cls):
    # p=1, U=-1: bracket reduces to 2i G2
    roots = extension_spectrum(ind, -np.eye(1), (-10, 10),
                               determinacy=ind_cls)
    assert len(roots) >= 2
    for r in roots:
        q = quartet(ind, complex(r), determinacy=ind_cls)
        scale = max(1.0, abs(q.g1[0, 0]))
        assert abs(q.g2[0, 0]) < 1e-7 * scale


def test_extension_root_residuals(ind, ind_cls):
    for u in (np.eye(1), -np.eye(1), 1j * np.eye(1)):
        roots = extension_spectrum(ind, u, (-10, 10), determinacy=ind_cls)
        assert roots == sorted(roots)
        for r in roots:
            b = extension_bracket(ind, u, [r])[0]
            s = np.linalg.svd(b, compute_uv=False)
            nearby = extension_bracket(ind, u, [r - 0.01, r + 0.01])
            scale = max(np.linalg.svd(nearby, compute_uv=False).max(),
                        s[0], 1e-300)
            assert s[-1] < 1e-8 * scale


def test_extension_spectrum_contains_zero_for_u_one(ind, ind_cls):
    roots = extension_spectrum(ind, np.eye(1), (-10, 10),
                               determinacy=ind_cls)
    assert min(abs(r) for r in roots) < 1e-9


def test_extension_matches_fine_scan(ind, ind_cls):
    # count roots independently: rotate det to a real function and count
    # sign changes on a 10x finer grid
    interval = (-10.0, 10.0)
    for u in (np.eye(1), -np.eye(1), 1j * np.eye(1)):
        roots = extension_spectrum(ind, u, interval, grid=2000,
                                   determinacy=ind_cls)
        lams = np.linspace(interval[0], interval[1], 20001)
        dets = np.linalg.det(extension_bracket(ind, u, lams))
        phase = dets[np.argmax(np.abs(dets))]
        phase /= abs(phase)
        h = np.real(dets / phase)
        crossings = 0
        sign = np.sign(h)
        nz = np.nonzero(sign)[0]
        for a, b in zip(nz, nz[1:]):
            if sign[a] != sign[b]:
                crossings += 1
        assert crossings == len(roots)


def test_pole_blowup_at_roots(ind, ind_cls):
    u = 1j * np.eye(1)
    roots = extension_spectrum(ind, u, (-10, 10), determinacy=ind_cls)
    for r in roots:
        m = transform_from_V(ind, complex(r, 1e-6), u, determinacy=ind_cls)
        assert mk.spectral_norm(m) > 1e3


def test_extension_spectrum_double_roots_are_found_once(ind, ind_cls):
    # the direct sum of two ind copies: with U = I every root of ind's
    # U = 1 spectrum is a double root, where |det| touches zero without a
    # sign change
    def rule(k):
        return np.zeros((2, 2)), float((k + 1) ** 2) * np.eye(2)

    n = len(ind.diag)
    twice = BlockJacobiMatrix(2, tuple(rule(k)[0] for k in range(n)),
                              tuple(rule(k)[1] for k in range(n - 1)), rule)
    cls = DeterminacyClass(Determinacy.COMPLETELY_INDETERMINATE, 2, 2)
    want = extension_spectrum(ind, np.eye(1), (-10, 10), determinacy=ind_cls)
    got = extension_spectrum(twice, np.eye(2), (-10, 10), determinacy=cls)
    assert len(want) >= 3
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * (1.0 + abs(w))


def test_extension_spectrum_refines_all_minima_in_one_batched_pass(
        monkeypatch, ind, ind_cls):
    # one grid call, the two opening probes and 72 golden-section steps
    # over every minimum at once, and one acceptance call
    calls = []
    bracket_values = nevanlinna._bracket_values

    def counted(j, u, lam, *args):
        calls.append(lam.size)
        return bracket_values(j, u, lam, *args)

    monkeypatch.setattr(nevanlinna, "_bracket_values", counted)
    ci = ci_matrix(np.random.default_rng(5), 2, 420, rule=True)
    cls = DeterminacyClass(Determinacy.COMPLETELY_INDETERMINATE, 2, 2)
    for j, u, c in ((ind, np.eye(1), ind_cls),
                    (ci, random_unitary(2, np.random.default_rng(6)), cls)):
        calls.clear()
        roots = extension_spectrum(j, u, (-10, 10), determinacy=c)
        assert len(calls) == 1 + 2 + 72 + 1
        assert calls[0] == 2001 and set(calls[1:]) == {calls[1]}
        assert calls[1] >= 5                      # minima refined together
        assert len(roots) >= 3


def non_regular_matrix(p, case):
    """CI-type matrix (completely indeterminate when regular) with one
    defect: a zero off-diagonal at block 1, a non-Hermitian diagonal at
    block 1, or a rule yielding a singular off-diagonal at block 6, past
    the four stored blocks."""
    j = ci_matrix(np.random.default_rng(3), p, 4, rule=True)
    diag, off, rule = list(j.diag), list(j.offdiag), j.generator
    if case == "zero-offdiag":
        off[1] = np.zeros((p, p))
    elif case == "not-hermitian":
        diag[1] = diag[1] + np.triu(np.ones((p, p)), 1) + 1j * np.eye(p)
    else:
        def rule(k):
            a, b = j.generator(k)
            return a, (0.0 * b if k == 6 else b)
    return BlockJacobiMatrix(p, tuple(diag), tuple(off), rule)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("case,message", [
    ("zero-offdiag", "block 1 singular-offdiag"),
    ("not-hermitian", "block 1 not-hermitian"),
    ("generated-singular", "block 6 singular-offdiag")])
def test_non_regular_matrix_is_refused_at_every_entry_point(p, case,
                                                            message):
    j = non_regular_matrix(p, case)
    cls = DeterminacyClass(Determinacy.COMPLETELY_INDETERMINATE, p, p)
    eye = np.eye(p)
    calls = (lambda: generate_first_kind(j, 8),
             lambda: moments_from_jacobi(j, 14),
             lambda: list(first_kind_values(j, [1j], 8)),
             lambda: kernel_partial(j, 1j, 8),
             lambda: estimate_H(j, 1j),
             lambda: classify(j),
             lambda: jump_bound(j, 0.0, 8),
             lambda: gauss_quadrature(j, 8),
             lambda: growth_diagnostic(j, [1.0]),
             lambda: quartet(j, 1j),
             lambda: quartet(j, 1j, determinacy=cls),
             lambda: transform_extremal(j, 0.3, -1j, determinacy=cls),
             lambda: transform_from_V(j, 1j, eye, determinacy=cls),
             lambda: extension_bracket(j, eye, [0.5]),
             lambda: extension_bracket(j, eye, [0.5, 1.5]),
             lambda: extension_spectrum(j, eye, (-1.0, 1.0), grid=8,
                                        determinacy=cls))
    for call in calls:
        with pytest.raises(InvalidInputError,
                           match="matrix is not a regular block Jacobi "
                                 f"matrix: {message}"):
            call()


def test_non_finite_points_are_refused_at_every_entry_point(ind, ind_cls):
    nan, inf = float("nan"), float("inf")
    eye = np.eye(1)
    t = StepMeasure(1, np.array([0.0]), np.array([[[1.0]]]))
    calls = (lambda: quartet(ind, complex(nan, 1.0), determinacy=ind_cls),
             lambda: transform_extremal(ind, nan, -1j, determinacy=ind_cls),
             lambda: transform_extremal(ind, 0.3, complex(inf, -1.0),
                                        determinacy=ind_cls),
             lambda: transform_from_V(ind, complex(nan, 1.0), eye,
                                      determinacy=ind_cls),
             lambda: extension_bracket(ind, eye, [nan]),
             lambda: extension_bracket(ind, eye, [0.5, inf]),
             lambda: extension_spectrum(ind, eye, (-inf, 1.0),
                                        determinacy=ind_cls),
             lambda: jump_bound(ind, nan, 8),
             lambda: kernel_partial(ind, complex(inf, 1.0), 8),
             lambda: estimate_H(ind, complex(nan, 1.0)),
             lambda: deficiency_indices(
                 ind, sample_points=[complex(1.0, nan), 1j, 2j, 3j,
                                     -1j, -2j, -3j]),
             lambda: growth_diagnostic(ind, [1.0, inf]),
             lambda: growth_diagnostic(ind, [nan]),
             lambda: stieltjes_invert(lambda z: eye, [0.0, nan], 0.1),
             lambda: stieltjes_invert(lambda z: eye, [0.0], inf),
             lambda: cumulative(t, nan),
             lambda: stieltjes_transform(t, complex(nan, 1.0)))
    for call in calls:
        with pytest.raises(InvalidInputError, match="must be finite"):
            call()


def test_negative_series_length_is_refused(ind, ind_cls):
    eye = np.eye(1)
    calls = (lambda: quartet(ind, 1j, n_max=-1, determinacy=ind_cls),
             lambda: transform_extremal(ind, 0.3, -1j, n_max=-1,
                                        determinacy=ind_cls),
             lambda: transform_from_V(ind, 1j, eye, n_max=-1,
                                      determinacy=ind_cls),
             lambda: extension_bracket(ind, eye, [0.5], n_max=-1),
             lambda: extension_bracket(ind, eye, [0.5, 1.5], n_max=-1),
             lambda: extension_spectrum(ind, eye, (-1.0, 1.0), n_max=-3,
                                        determinacy=ind_cls),
             lambda: growth_diagnostic(ind, [1.0], n_max=-1))
    for call in calls:
        with pytest.raises(InvalidInputError, match="n_max must be >= 0"):
            call()


def test_extension_interval_validation(ind, ind_cls):
    with pytest.raises(InvalidInputError):
        extension_spectrum(ind, np.eye(1), (5, -5), determinacy=ind_cls)


# ---------------------------------------------------------------------------
# smoothed inversion
# ---------------------------------------------------------------------------

def test_stieltjes_invert_poisson_peak():
    t = StepMeasure(1, np.array([0.0]), np.array([[[1.0]]]))
    sampler = lambda z: stieltjes_transform(t, z)
    eta = 0.05
    grid = np.linspace(-1, 1, 41)
    rows = stieltjes_invert(sampler, grid, eta)
    values = [d[0, 0].real for _, d in rows]
    mid = len(rows) // 2
    assert rows[mid][0] == 0.0
    assert values[mid] == pytest.approx(1.0 / (np.pi * eta), rel=1e-12)
    for (lam, d), val in zip(rows, values):
        assert d is not None
        expected = eta / (lam ** 2 + eta ** 2) / np.pi
        assert val == pytest.approx(expected, rel=1e-10)
    # symmetric sampler gives a symmetric table
    assert values == pytest.approx(values[::-1], rel=1e-10)


def test_stieltjes_invert_eta_scaling():
    t = StepMeasure(1, np.array([0.0]), np.array([[[1.0]]]))
    sampler = lambda z: stieltjes_transform(t, z)
    peak1 = stieltjes_invert(sampler, [0.0], 0.02)[0][1][0, 0].real
    peak2 = stieltjes_invert(sampler, [0.0], 0.01)[0][1][0, 0].real
    assert peak2 / peak1 == pytest.approx(2.0, rel=0.05)


def test_stieltjes_invert_missing_points():
    calls = []

    def flaky(z):
        calls.append(z)
        if z.real > 0:
            raise PoleError("sampler hit a pole")
        return np.array([[1j]])

    rows = stieltjes_invert(flaky, [-1.0, 1.0], 0.1)
    assert rows[0][1] is not None
    assert rows[1][1] is None


def test_stieltjes_invert_propagates_foreign_errors():
    def broken(z):
        raise TypeError("not a sampler")

    with pytest.raises(TypeError):
        stieltjes_invert(broken, [0.0], 0.1)


def test_stieltjes_invert_validation():
    with pytest.raises(InvalidInputError):
        stieltjes_invert(lambda z: np.eye(1), [0.0], 0.0)
