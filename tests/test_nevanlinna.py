import inspect
import itertools

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
                                NumericalFailureError, PoleError,
                                RefusedError)
from blockmoment.polys import (_CHUNK, _series, _states, _zero_states,
                               first_kind_values)

from conftest import (ci_matrix, plain_chunk_sums, random_regular_growing,
                      random_unitary, rel_err)


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
    xs = _states(j, np.repeat(zs, 2), [False, True] * len(zs), n)
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


def test_bracket_at_zero_is_exactly_i_times_i_minus_u(ind):
    # G1(0) = 0 and G2(0) = I exactly, for the nearest unitary U, at p = 1
    # and p = 2, alone and beside other points
    for j, p in ((ind, 1), (ci2_with_unitary()[0], 2)):
        for u in (np.eye(p), random_unitary(p, np.random.default_rng(p)),
                  (1 + 1e-12) * random_unitary(p, np.random.default_rng(9))):
            want = 1j * (np.eye(p) - nevanlinna._require_unitary(u, p))
            for lams in ([0.0], [-0.5, 0.0, 2.0]):
                got = extension_bracket(j, u, lams)
                assert np.array_equal(got[lams.index(0.0)], want)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_a_matrix_without_its_rule_gives_the_same_sums(p):
    # 401 stored blocks summed to n_max = 400 read no A_{400,401}, so the
    # rule that would supply it changes nothing
    j = ci_matrix(np.random.default_rng(150 + p), p, 401, rule=True)
    plain = BlockJacobiMatrix(p, j.diag, j.offdiag)
    cls = DeterminacyClass(Determinacy.COMPLETELY_INDETERMINATE, p, p)
    u = random_unitary(p, np.random.default_rng(p))

    def calls(m):
        q = quartet(m, 0.5 + 1j, n_max=400, determinacy=cls)
        return [q.f1, q.f2, q.g1, q.g2, q.n_used, q.tail_norm, q.converged,
                transform_extremal(m, 0.3, 1.0 - 2.0j, n_max=400,
                                   determinacy=cls),
                extension_bracket(m, u, [-0.5, 0.25, 1.0], n_max=400)]

    for got, want in zip(calls(plain), calls(j)):
        assert np.array_equal(got, want)


def test_quartet_refused_for_determinate(ch):
    with pytest.raises(RefusedError):
        quartet(ch, 1j)
    with pytest.raises(InvalidInputError, match="DeterminacyClass"):
        quartet(ch, 1j, determinacy="x")


def test_default_class_is_computed_once_per_matrix(monkeypatch):
    from blockmoment import ch_fixture, spectral
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[1])
        return estimate_H(*args, **kwargs)

    monkeypatch.setattr(spectral, "estimate_H", spy)
    ind, ch = ind_fixture(420), ch_fixture()
    first = quartet(ind, 1j)
    assert len(calls) == 8
    second = quartet(ind, 1j)
    assert len(calls) == 8
    assert np.array_equal(first.f1, second.f1)
    for _ in range(2):
        with pytest.raises(RefusedError):
            quartet(ch, 1j)
    assert len(calls) == 16
    # classify itself is not cached
    classify(ind)
    assert len(calls) == 24


def test_quartet_tolerance_stop_is_stable_under_nmax_doubling(ind, ind_cls):
    # series terms decay like 1/k^2, so the increment rule stops the sum
    # well before n_max; doubling n_max then reproduces the values exactly,
    # at p = 1 and on the p = 2 CI fixture
    for j, cls in ((ind, ind_cls), ci2_with_unitary()[::2]):
        for z in (1j, 2.0 - 1.0j, 4.0):
            a = quartet(j, z, n_max=60000, series_tol=1e-7, determinacy=cls)
            b = quartet(j, z, n_max=120000, series_tol=1e-7,
                        determinacy=cls)
            assert a.converged and b.converged
            assert a.n_used == b.n_used
            for name in ("f1", "f2", "g1", "g2"):
                assert np.abs(getattr(a, name)
                              - getattr(b, name)).max() < 1e-10


def test_a_converged_series_stops_at_the_end_of_a_chunk(ind, ind_cls):
    # the stop rule reads whole chunks, two of them: n_used is the last k
    # of a full chunk past the first, or n_max when the rule fires on the
    # short last chunk; at z = 0 every term vanishes
    seen = set()
    for j, cls in ((ind, ind_cls), ci2_with_unitary()[::2]):
        for z, n_max in itertools.product((0.0, 1.0 + 2.0j), (40, 400)):
            for tol in 10.0 ** -np.arange(1.0, 9.0):
                q = quartet(j, z, n_max=n_max, series_tol=tol,
                            determinacy=cls)
                if q.converged and q.n_used < n_max:
                    assert (q.n_used + 1) % _CHUNK == 0
                    assert q.n_used >= 2 * _CHUNK - 1
                else:
                    assert q.n_used == n_max
                seen.add((q.converged, q.n_used == n_max))
    assert seen == {(True, False), (True, True), (False, True)}


def test_quartet_reports_nonconvergence_at_default_depth(ind, ind_cls):
    q = quartet(ind, 1j, determinacy=ind_cls)
    assert not q.converged
    assert q.n_used == 400
    assert q.tail_norm > 0


@pytest.mark.parametrize("call", [
    lambda ind, cls: quartet(ind, 3e5 + 1j, determinacy=cls),
    lambda ind, cls: transform_extremal(ind, 1e300, -1j, determinacy=cls),
    lambda ind, cls: extension_bracket(*ci2_with_unitary()[:2], [3e5]),
    lambda ind, cls: kernel_partial(ind, 1e200 + 1j, 50),
    lambda ind, cls: estimate_H(ind, 1e300j),
    lambda ind, cls: classify(ind, sample_points=[
        1e300j, 2e300j, 1 + 3e300j, -1j, -2j, 1 - 3j]),
    lambda ind, cls: extension_spectrum(ind, np.eye(1), (-1e5, 1e5),
                                        determinacy=cls),
    lambda ind, cls: extension_spectrum(ind, np.eye(1), (-1e165, 1e165),
                                        determinacy=cls)],
    ids=["quartet-p1", "extremal-p1", "bracket-p2", "kernel-p1",
         "estimate_H-p1", "classify-p1", "spectrum-p1", "spectrum-wide-p1"])
def test_a_series_that_overflows_is_a_numerical_failure(call, ind, ind_cls):
    # terms past the float range would leave NaN sums, a LinAlgError, or
    # a kernel of rank 0 that classifies ind as determinate
    with pytest.raises(NumericalFailureError, match="overflow"):
        call(ind, ind_cls)


def plain_values(j, w, n_terms):
    """D_k(w) and E_k(w), k = 0..n_terms, by one solve per step and family,
    from D_0 = I and E_0 = 0, E_1 = A_01^{-1}."""
    p = j.p
    jp = j.prefix(n_terms + 1)
    eye = np.eye(p, dtype=complex)
    families = []
    for first in (True, False):
        prev, cur = 0 * eye, eye if first else 0 * eye
        xs = [cur]
        for k in range(n_terms):
            rhs = w * cur - jp.diag[k] @ cur
            if k > 0:
                rhs -= jp.offdiag[k - 1].conj().T @ prev
            elif not first:
                rhs = eye
            prev, cur = cur, np.linalg.solve(jp.offdiag[k], rhs)
            xs.append(cur)
        families.append(xs)
    return families


def plain_quartet(j, z, n_terms, series_tol):
    """Quartet sums by one solve per step and per family, under the chunk
    stop rule."""
    dz, ez = plain_values(j, np.conj(z), n_terms)
    d0, e0 = plain_values(j, 0.0, n_terms)
    terms = [[z * (e.conj().T @ d), z * (e.conj().T @ f),
              -z * (a.conj().T @ d), -z * (a.conj().T @ f)]
             for a, e, d, f in zip(dz, ez, d0, e0)]
    (f1, f2, g1, g2), n_used, converged = plain_chunk_sums(terms, series_tol)
    eye = np.eye(j.p)
    return [eye + f1, f2, g1, eye + g2], n_used, converged


@pytest.mark.parametrize("p", [1, 2, 3])
def test_pair_sums_match_plain_recurrence(p):
    # N and Den of the extremal transform against one solve per step:
    # the pass of D_k, E_k at conj z paired with the pass of D_k(xi)
    j = ci_matrix(np.random.default_rng(40 + p), p, 150, rule=False)
    z, xi = 0.7 - 1.3j, 0.4
    dz, ez = plain_values(j, np.conj(z), 149)
    dxi = plain_values(j, xi, 149)[0]
    terms = [[e.conj().T @ d, a.conj().T @ d]
             for a, e, d in zip(dz, ez, dxi)]
    left = _states(j, [np.conj(z)] * 2, [False, True], 149)
    right = _states(j, [xi], [False], 149)
    stops = set()
    for tol in (0.0, 1e-2, 1e-3):
        (num, den), n_used, converged = plain_chunk_sums(terms, tol)
        t, got_n, _, got_conv = _series(left, right, 1.0, tol)
        assert (got_n, got_conv) == (n_used, converged)
        assert rel_err(t[p:], num) < 1e-12
        assert rel_err(t[:p], den) < 1e-12
        stops.add(n_used)
    assert min(stops) < 149                     # an early stop is covered


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
    # and so do the p = 1 series
    ind = ind_fixture(420)
    cls = DeterminacyClass(Determinacy.COMPLETELY_INDETERMINATE, 1, 1)
    quartet(ind, 1j, determinacy=cls)
    counts.update(prefix=0, inv=0)
    quartet(ind, 0.5 + 2j, determinacy=cls)
    extension_bracket(ind, np.eye(1), [0.5])
    assert counts == {"prefix": 0, "inv": 0}


def calls_at_zero(j, n_max):
    """Results of the calls that read the states at 0, at depth n_max."""
    p = j.p
    cls = DeterminacyClass(Determinacy.COMPLETELY_INDETERMINATE, p, p)
    u = random_unitary(p, np.random.default_rng(7))
    q = quartet(j, 0.5 + 1j, n_max=n_max, determinacy=cls)
    return [q.f1, q.f2, q.g1, q.g2, q.n_used, q.tail_norm, q.converged,
            transform_from_V(j, 1.0 + 2.0j, 0.5 * u, n_max=n_max,
                             determinacy=cls),
            extension_bracket(j, u, [-0.5, 0.25, 1.0], n_max=n_max),
            extension_spectrum(j, u, (-1.0, 1.0), n_max=n_max,
                               determinacy=cls)]


@pytest.mark.parametrize("p", [1, 2, 3])
def test_states_at_zero_are_built_once_per_matrix(p):
    # cold, warm, and after a longer or a shorter depth, the results are
    # those of a fresh matrix, and the longest stack built is kept
    rng = np.random.default_rng(130 + p)
    for j in (ci_matrix(rng, p, 401, rule=False),
              ci_matrix(rng, p, 20, rule=True)):
        def fresh():
            return BlockJacobiMatrix(p, j.diag, j.offdiag, j.generator)

        cold = {n: calls_at_zero(fresh(), n) for n in (40, 400)}
        for order in ((40, 400), (400, 40)):
            m = fresh()
            for n in order + order:
                for got, want in zip(calls_at_zero(m, n), cold[n]):
                    assert np.array_equal(got, want)
            stack = m.memo["zero_states"]
            assert stack.shape == (401, p, 2 * p)
            assert np.shares_memory(_zero_states(m, 40), stack)
            for view in (stack, _zero_states(m, 40)):
                with pytest.raises(ValueError):
                    view[0, 0, 0] = 1.0


# the quartet, transform and bracket sums, read off Wronskians at chunk
# ends, against 40-digit partial sums to the same depth, relative to the
# largest entry: over 274 random draws of the property test below the
# largest errors were 8.8e-14 (quartet, p = 3, 400 terms, |z| = 0.024),
# 8.6e-14 (extremal transform, |xi - z| = 0.015) and 7.4e-14 (bracket)
WRONSKIAN_TOL = 1e-13


def mp_solutions(j, zs, n):
    """[D_k | E_k](z), k = 0..n, at each point of ``zs``, as 40-digit
    mpmath matrices: X_{k+1} = (z B_k^{-1} - B_k^{-1} A_kk) X_k
    - B_k^{-1} A_{k,k-1} X_{k-1} from X_{-1} = [0 | I], X_0 = [I | 0],
    with -I in place of A_{0,-1}, so that E_1 = A_01^{-1}."""
    p = j.p
    jp = j.prefix(n + 1)
    out = []
    with mp.workdps(40):
        def m(a):
            return mp.matrix(a.tolist())
        steps = []
        for k in range(n):
            b_inv = mp.inverse(m(jp.offdiag[k]))
            steps.append((b_inv, b_inv * m(jp.diag[k]),
                          b_inv * m(jp.offdiag[k - 1].conj().T) if k
                          else -b_inv))
        for z in zs:
            z = mp.mpc(z)
            prev, cur = mp.zeros(p, 2 * p), mp.zeros(p, 2 * p)
            for i in range(p):
                cur[i, i] = prev[i, p + i] = 1
            xs = [cur]
            for b_inv, r, q in steps:
                prev, cur = cur, (z * b_inv - r) * cur - q * prev
                xs.append(cur)
            out.append(xs)
    return out


def mp_partial_sums(ys, xs, cols=slice(None)):
    """sum_{k <= m} Y_k^H X_k[:, cols], m = 0..n, in 40 digits, as mpmath
    matrices."""
    out = []
    with mp.workdps(40):
        total = None
        for y, x in zip(ys, xs):
            x = x[:, cols]
            total = y.H * x if total is None else total + y.H * x
            out.append(total)
    return out


def mp_quartet(z, sums, p):
    """F1, F2, G1, G2 from 40-digit sums of [D | E](conj z)^H [D | E](0)."""
    with mp.workdps(40):
        t = np.array((mp.mpc(z) * sums).tolist(), dtype=complex)
    eye = np.eye(p)
    return np.stack([eye + t[p:, :p], t[p:, p:], -t[:p, :p],
                     eye - t[:p, p:]])


def max_rel(got, want):
    """Largest entry error over the reference's largest entry."""
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("p", [1, 2, 3])
def test_quartet_is_the_pass_that_carried_zero_as_a_second_point(p):
    # the quartet stops where the summed series over the same states
    # stops, with the same tail up to rounding of the Wronskians it is
    # read from, and its values are the 40-digit partial sums to the same
    # depth
    rng = np.random.default_rng(140 + p)
    cls = DeterminacyClass(Determinacy.COMPLETELY_INDETERMINATE, p, p)
    eps = np.finfo(float).eps
    for j in (ci_matrix(rng, p, 401, rule=False),
              ci_matrix(rng, p, 20, rule=True)):
        zs = (0.0, 1j, 1.0 + 2.0j, -0.3 + 0.5j)
        states = mp_solutions(j, np.conj(zs), 400)
        for z, ys in zip(zs, states):
            sums = mp_partial_sums(ys, states[0])
            for n_max, tol in ((40, 1e-12), (400, 1e-12), (400, 1e-4)):
                q = quartet(j, z, n_max=n_max, series_tol=tol,
                            determinacy=cls)
                zb = np.conj(z)
                x = _states(j, [zb, zb, 0.0, 0.0],
                            [False, True, False, True], n_max)
                _, n_used, tail, conv = _series(x[..., :2 * p],
                                                x[..., 2 * p:], z, tol)
                assert (q.n_used, q.converged) == (n_used, conv)
                got = np.stack([q.f1, q.f2, q.g1, q.g2])
                assert abs(q.tail_norm - tail) <= eps * np.abs(got).max()
                want = mp_quartet(z, sums[n_used], p)
                assert max_rel(got, want) <= WRONSKIAN_TOL


@settings(max_examples=10, deadline=None)
@given(p=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 32 - 1),
       log_r=st.floats(-3.0, np.log10(20.0)), angle=st.floats(0.01, 3.13),
       n=st.sampled_from([40, 400]))
@example(p=2, seed=0, log_r=-3.0, angle=0.785, n=400)
def test_quartet_transforms_and_bracket_are_40_digit_partial_sums(
        p, seed, log_r, angle, n):
    # the Christoffel-Darboux forms against the summed series in 40
    # digits, to the same depth: the quartet at z, the extremal transform
    # at (xi, z) and the bracket at xi, z in the lower half-plane
    rng = np.random.default_rng(seed)
    j = ci_matrix(rng, p, n + 1, rule=False)
    cls = DeterminacyClass(Determinacy.COMPLETELY_INDETERMINATE, p, p)
    z = 10.0 ** log_r * np.exp(-1j * angle)
    xi = float(rng.uniform(-5.0, 5.0))
    u = nevanlinna._require_unitary(random_unitary(p, rng), p)
    ys, at0, at_xi = mp_solutions(j, [np.conj(z), 0.0, xi], n)
    q = quartet(j, z, n_max=n, series_tol=0.0, determinacy=cls)
    got = np.stack([q.f1, q.f2, q.g1, q.g2])
    assert max_rel(got, mp_quartet(z, mp_partial_sums(ys, at0)[n], p)) \
        <= WRONSKIAN_TOL
    m = transform_extremal(j, xi, z, n_max=n, series_tol=0.0,
                           determinacy=cls)
    with mp.workdps(40):
        t = mp_partial_sums(ys, at_xi, slice(0, p))[n]
        num, den = t[p:, :], t[:p, :]
        want = ((mp.eye(p) + mp.mpc(z - xi) * num) * mp.inverse(den)
                / mp.mpc(xi - z))
    assert max_rel(m, np.array(want.tolist(), dtype=complex)) \
        <= WRONSKIAN_TOL
    # the bracket stops at SERIES_TOL: the same rule on the 40-digit sums
    sums = mp_partial_sums([x[:, :p] for x in at_xi], at0)
    with mp.workdps(40):
        terms = [[np.array((-xi * (b - a)).tolist(), dtype=complex)]
                 for a, b in zip([0 * sums[0]] + sums[:-1], sums)]
        n_used = plain_chunk_sums(terms, nevanlinna.SERIES_TOL)[1]
        t = np.array((-xi * sums[n_used]).tolist(), dtype=complex)
    # relative to the largest entry of its two terms: the bracket itself
    # vanishes at the extension's eigenvalues
    eye = np.eye(p)
    terms = np.stack([t[:, :p] @ (eye + u), 1j * ((eye + t[:, p:]) @ (eye - u))])
    got = extension_bracket(j, u, [xi], n_max=n)[0]
    assert np.abs(got - terms.sum(axis=0)).max() \
        <= WRONSKIAN_TOL * np.abs(terms).max()


def test_a_series_stops_on_any_chunk_of_a_whole_pass(ind, ind_cls):
    # at n_max = 400 the engine hands on all 401 states at once; the stop
    # rule still reads every chunk end in turn, so the series stops where
    # one solve per step and family stops, at k = 127, 207 and 351, and
    # the sums are those of the terms up to there
    z = 1.0 + 2.0j
    stops = []
    for tol in (1e-3, 10.0 ** -3.5, 1e-4):
        q = quartet(ind, z, n_max=400, series_tol=tol, determinacy=ind_cls)
        sums, n_used, converged = plain_quartet(ind, z, 400, tol)
        assert (q.n_used, q.converged) == (n_used, converged)
        for got, want in zip((q.f1, q.f2, q.g1, q.g2), sums):
            assert rel_err(got, want) < 1e-12
        stops.append(n_used)
    assert stops[0] < 13 * _CHUNK - 1 == stops[1] < stops[2] < 400


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
    assert not {"n_max", "series_tol"} & params(growth_diagnostic)
    for fn in (generate_first_kind, moments_from_jacobi):
        assert "d0" in params(fn), fn.__name__
    # the engine runs on the fixed seeds D_0 = I and E_1 = B_0^{-1}
    for fn in (_states, _series):
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


def ci2_with_unitary():
    """A p = 2 CI fixture, a random unitary U and the fixture's class."""
    j = ci_matrix(np.random.default_rng(5), 2, 420, rule=True)
    cls = DeterminacyClass(Determinacy.COMPLETELY_INDETERMINATE, 2, 2)
    return j, random_unitary(2, np.random.default_rng(6)), cls


def assert_roots_zero_the_bracket(j, u, roots, n_max=nevanlinna.SERIES_N_MAX):
    """Sorted, distinct, and each a zero of the same-depth bracket."""
    assert roots == sorted(roots) and np.all(np.diff(roots) > 0)
    for r in roots:
        b = extension_bracket(j, u, [r], n_max=n_max)[0]
        s = np.linalg.svd(b, compute_uv=False)
        nearby = extension_bracket(j, u, [r - 0.01, r + 0.01], n_max=n_max)
        scale = max(np.linalg.svd(nearby, compute_uv=False).max(),
                    s[0], 1e-300)
        assert s[-1] < 1e-8 * scale


def test_extension_root_residuals(ind, ind_cls):
    # U = e^{i pi} in floating point leaves X_400 = D_400(0)(1 + U) at
    # 1e-16 of its terms, and e^{i(pi - 1e-6)} makes it small but not
    # negligible
    us = [np.eye(1), -np.eye(1), 1j * np.eye(1),
          np.exp(1j * np.pi) * np.eye(1),
          np.exp(1j * (np.pi - 1e-6)) * np.eye(1)]
    for j, u, cls in [(ind, u, ind_cls) for u in us] + [ci2_with_unitary()]:
        roots = extension_spectrum(j, u, (-10, 10), determinacy=cls)
        assert len(roots) >= 3
        assert_roots_zero_the_bracket(j, u, roots)


def same_depth_case(p, n_max, zero_diagonal, u_kind, seed):
    """A CI matrix (zero diagonal or not) and a U of the given kind.

    With a zero diagonal D_k(0) vanishes at odd k and E_k(0) at even k, so
    X_{n-1} = D(0)(I+U) + i E(0)(I-U) is zero for U = I at odd n_max and
    for U = -I at even n_max, singular but not zero for U = diag(1, -1, 1),
    and nearly singular when an eigenvalue of U is within 1e-13 of 1, or
    when U = (1 - 1e-15) I is unitary only to rounding.
    """
    rng = np.random.default_rng(seed)
    ci = ci_matrix(rng, p, 1, rule=True)

    def rule(k):
        a, b = ci.generator(k)
        return (0.0 * a if zero_diagonal else a), b

    j = BlockJacobiMatrix(p, (rule(0)[0],), (), rule)
    v = random_unitary(p, rng)
    near = np.exp(1j * np.append(1e-13, rng.uniform(0.0, 2 * np.pi, p - 1)))
    u = {"random": random_unitary(p, rng), "I": np.eye(p), "-I": -np.eye(p),
         "alternating": np.diag((-1.0) ** np.arange(p)),
         "near": (v * near) @ v.conj().T,
         "inexact": (1.0 - 1e-15) * np.eye(p)}[u_kind]
    return j, u


def same_depth_cases(test):
    """Hypothesis inputs of the same-depth tests, with the examples that
    pinned their failures."""
    for p, n_max, zero_diagonal, u_kind, seed in (
            (2, 0, True, "-I", 0), (2, 1, True, "I", 0),
            (3, 2, True, "-I", 0), (3, 2, False, "random", 0),
            (2, 0, True, "alternating", 0), (3, 7, True, "alternating", 0),
            (2, 31, True, "near", 5), (3, 27, True, "near", 0),
            (1, 1, True, "inexact", 0)):
        test = example(p=p, n_max=n_max, zero_diagonal=zero_diagonal,
                       u_kind=u_kind, seed=seed)(test)
    test = given(p=st.sampled_from([1, 2, 3]), n_max=st.integers(0, 40),
                 zero_diagonal=st.booleans(),
                 u_kind=st.sampled_from(["random", "I", "-I", "alternating",
                                         "near", "inexact"]),
                 seed=st.integers(0, 2 ** 32 - 1))(test)
    return settings(max_examples=60, deadline=None)(test)


@same_depth_cases
def test_extension_spectrum_roots_zero_the_same_depth_bracket(
        p, n_max, zero_diagonal, u_kind, seed):
    j, u = same_depth_case(p, n_max, zero_diagonal, u_kind, seed)
    cls = DeterminacyClass(Determinacy.COMPLETELY_INDETERMINATE, p, p)
    roots = extension_spectrum(j, u, (-10, 10), n_max=n_max,
                               determinacy=cls)
    assert_roots_zero_the_bracket(j, u, roots, n_max=n_max)


def dense(diag, off):
    """The Hermitian block tridiagonal matrix of the given blocks."""
    n, p, _ = diag.shape
    t = np.zeros((n, p, n, p), dtype=complex)
    k = np.arange(n)
    t[k, :, k, :] = diag
    t[k[:-1], :, k[1:], :] = off
    t[k[1:], :, k[:-1], :] = np.conj(np.swapaxes(off, 1, 2))
    return t.reshape(n * p, n * p)


@same_depth_cases
def test_counts_below_are_sylvester_inertia_of_the_truncation(
        p, n_max, zero_diagonal, u_kind, seed):
    # away from the eigenvalues the count is exact; at 0, where zero-
    # diagonal matrices have singular pivots and often an eigenvalue, it
    # counts the eigenvalues within tol of 0 either way
    j, u = same_depth_case(p, n_max, zero_diagonal, u_kind, seed)
    diag, off, *_, scale = nevanlinna._boundary_truncation(
        j, u, n_max, -10.0, 10.0)
    w = np.linalg.eigvalsh(dense(diag, off)[::-1, ::-1])
    tol = nevanlinna.NODE_MERGE_FACTOR * scale
    xs = np.random.default_rng(seed).uniform(-12.0, 12.0, 200)
    xs = xs[np.abs(xs[:, None] - w).min(axis=1) > tol]
    assert (nevanlinna._counts_below(diag, off, xs)
            == np.searchsorted(w, xs)).all()
    at_zero = nevanlinna._counts_below(diag, off, [0.0])[0]
    assert np.count_nonzero(w < -tol) <= at_zero <= np.count_nonzero(w <= tol)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([1, 2, 3]),
       n_max=st.integers(0, 20).map(lambda k: 2 * k + 1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_counts_below_count_each_point_just_above_itself(p, n_max, seed):
    # with a zero diagonal and U = diag(1, -1, ...) the pair pivots are
    # singular at 0, where the truncation has an eigenvalue within rounding
    # of 0: counted at 0 itself, about half of these cases count too many.
    # Every point is counted 2^-40 max(1, max |T_{k,k+1}|) above itself.
    # With an even number of blocks (odd n_max) the last pivot is a pair;
    # block 0 alone would take a Schur complement that grows like 1/x and
    # lose its eigenvalue near -x to rounding
    j, u = same_depth_case(p, n_max, True, "alternating", seed)
    diag, off, *_ = nevanlinna._boundary_truncation(j, u, n_max, -10.0, 10.0)
    t = dense(diag, off)[::-1, ::-1]
    shift = 2.0 ** -40 * max(1.0, np.abs(off).max(initial=0.0))
    assume(np.finfo(float).eps * np.linalg.norm(t, 2) < shift / 100)
    w = np.linalg.eigvalsh(t)
    assert (nevanlinna._counts_below(diag, off, [0.0]).tolist()
            == [np.count_nonzero(w < shift)])


@example(p=2, n_max=7, zero_diagonal=True, u_kind="I", seed=615889545)
@example(p=3, n_max=7, zero_diagonal=False, u_kind="random", seed=0)
@example(p=2, n_max=27, zero_diagonal=True, u_kind="near", seed=11236)
@example(p=2, n_max=37, zero_diagonal=True, u_kind="near", seed=84661)
@same_depth_cases
def test_extension_spectrum_misses_no_eigenvalue_of_the_truncation(
        p, n_max, zero_diagonal, u_kind, seed):
    # one root per distinct eigenvalue (gaps > tol) inside (-10, 10); in
    # the first example the first brackets each hold two eigenvalues, and
    # the second loses -0.9551 if a node's search narrows the brackets
    # that the next round splits.  The reference is solved in reversed
    # block order, huge replaced block first: in natural order the last two
    # examples' replaced blocks of about 4e15-9e15 move -10.0252 to -9.972
    # and 9.7298 to 10.100, where 50-digit eigenvalues keep them
    j, u = same_depth_case(p, n_max, zero_diagonal, u_kind, seed)
    diag, off, *_, scale = nevanlinna._boundary_truncation(
        j, nevanlinna._require_unitary(u, p), n_max, -10.0, 10.0)
    w = np.linalg.eigvalsh(dense(diag, off)[::-1, ::-1])
    tol = nevanlinna.NODE_MERGE_FACTOR * scale
    assume(np.abs(np.abs(w) - 10.0).min() > tol)
    inside = w[np.abs(w) < 10.0]
    distinct = np.count_nonzero(np.diff(inside, prepend=-np.inf) > tol)
    cls = DeterminacyClass(Determinacy.COMPLETELY_INDETERMINATE, p, p)
    roots = extension_spectrum(j, u, (-10, 10), n_max=n_max,
                               determinacy=cls)
    assert len(roots) == distinct


def test_a_certified_node_stops_when_it_cycles_between_two_doubles(
        monkeypatch):
    # at the rounding floor the node at 2.3298529714747 alternates between
    # two doubles with steps of 3.1e-15, just past the step tolerance, which
    # ran it to the step cap (69 node steps)
    calls = []
    node_step = nevanlinna._node_step

    def counted(*args):
        calls.append(args)
        return node_step(*args)

    monkeypatch.setattr(nevanlinna, "_node_step", counted)
    case = (3, 24, False, "alternating", 946301765)
    j, u = same_depth_case(*case)
    cls = DeterminacyClass(Determinacy.COMPLETELY_INDETERMINATE, 3, 3)
    roots = extension_spectrum(j, u, (-10, 10), n_max=24, determinacy=cls)
    assert len(calls) <= 30
    assert_roots_zero_the_bracket(j, u, roots, n_max=24)


def test_extension_spectrum_contains_zero_for_u_one(ind, ind_cls):
    roots = extension_spectrum(ind, np.eye(1), (-10, 10),
                               determinacy=ind_cls)
    assert min(abs(r) for r in roots) < 1e-9


def test_extension_spectrum_keeps_roots_on_the_interval_ends(ind, ind_cls):
    # with U = I a root of ind sits at 0, and the next one is
    # 2.9891975372503334 to the last bit; counts at an end can put such a
    # root on either side of it
    one = np.eye(1)
    for interval in ((0.0, 1.0), (-1.0, 0.0)):
        roots = extension_spectrum(ind, one, interval, determinacy=ind_cls)
        assert len(roots) == 1 and abs(roots[0]) <= 1e-12
    b = 2.9891975372503334
    roots = extension_spectrum(ind, one, (0.0, b), determinacy=ind_cls)
    assert len(roots) == 2 and abs(roots[0]) <= 1e-12
    assert abs(roots[1] - b) <= 1e-14 * (1.0 + b)


def test_extension_spectrum_solves_nothing_larger_than_two_blocks(
        monkeypatch, ind, ind_cls):
    # no dense eigensolve of the truncation: the largest matrix an
    # eigensolver sees is a pivot of two blocks
    sizes = []
    for name in ("eigvalsh", "eigh", "eig"):
        def spy(a, *args, _solver=getattr(np.linalg, name), **kwargs):
            sizes.append(np.shape(a)[-1])
            return _solver(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    for j, u, cls in ((ind, np.eye(1), ind_cls), ci2_with_unitary()):
        sizes.clear()
        assert extension_spectrum(j, u, (-10, 10), determinacy=cls)
        assert sizes and max(sizes) <= 2 * j.p


def test_extension_spectrum_counts_once_when_every_node_certifies(
        monkeypatch, ind, ind_cls):
    # the spectrum calls of the command-line golden (ind, U = I) and of a
    # one-root interval at p = 2 (its root is -1.7371): one count pass at
    # the edges, after which the counts certify every node
    calls = {"counts": 0, "steps": 0}

    def spy(name, key):
        def counted(*args, _f=getattr(nevanlinna, name)):
            calls[key] += 1
            return _f(*args)
        monkeypatch.setattr(nevanlinna, name, counted)
    spy("_counts_below", "counts")
    spy("_node_step", "steps")
    for (j, u, cls), interval in (((ind, np.eye(1), ind_cls), (-10, 10)),
                                  (ci2_with_unitary(), (-2.7, -1.3))):
        calls.update(counts=0, steps=0)
        assert extension_spectrum(j, u, interval, determinacy=cls)
        assert calls["counts"] == 1 and calls["steps"] <= 5


def mp_bracket_roots(j, u, roots, n_terms):
    """Roots of det[G1(I+U) + i G2(I-U)] summed to k = n_terms, at 40
    digits: D_k(0), E_k(0) and D*_k(z) = D_k(conj z)^H by the recurrence,
    each root by mp.findroot from the given one."""
    p = j.p
    jp = j.prefix(n_terms + 1)
    with mp.workdps(40):
        a = [mp.matrix(x.tolist()) for x in jp.diag]
        b = [mp.matrix(x.tolist()) for x in jp.offdiag]
        b_inv = [x ** -1 for x in b]
        eye, zero = mp.eye(p), mp.zeros(p)
        um = mp.matrix(np.asarray(u, dtype=complex).tolist())
        d, e = [eye], [zero]                    # E_1 = B_0^{-1}
        for k in range(n_terms):
            d.append(b_inv[k] * (-a[k] * d[k] - (b[k - 1].H * d[k - 1]
                                                  if k else zero)))
            e.append(b_inv[k] * (-a[k] * e[k] - (b[k - 1].H * e[k - 1]
                                                  if k else -eye)))

        def det_bracket(z):
            left, prev, g1, g2 = eye, zero, zero, zero
            for k in range(n_terms + 1):
                g1 += left * d[k]
                g2 += left * e[k]
                if k < n_terms:
                    back = prev * b[k - 1] if k else zero
                    left, prev = ((left * (z * eye - a[k]) - back)
                                  * b_inv[k].H, left)
            return mp.det(-z * g1 * (eye + um)
                          + 1j * (eye - z * g2) * (eye - um))

        return [float(mp.re(mp.findroot(det_bracket, mp.mpf(r))))
                for r in roots]


def test_extension_roots_match_a_40_digit_bracket(ind, ind_cls):
    # a third check of the roots beside the fine scan and the poles of
    # transform_from_V, independent of the eigenvalue route
    j2, u2, cls2 = ci2_with_unitary()
    for j, u, n_max, cls in ((ind, np.eye(1), 400, ind_cls),
                             (ind, np.exp(0.7j) * np.eye(1), 400, ind_cls),
                             (j2, u2, 40, cls2)):
        roots = extension_spectrum(j, u, (-10, 10), n_max=n_max,
                                   determinacy=cls)
        assert len(roots) >= 3
        for r, ref in zip(roots, mp_bracket_roots(j, u, roots, n_max)):
            assert abs(r - ref) <= 2e-15 * (1.0 + abs(ref))


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
    # the poles come from the quartet, independently of the eigenvalues
    for j, u, cls in ((ind, 1j * np.eye(1), ind_cls), ci2_with_unitary()):
        roots = extension_spectrum(j, u, (-10, 10), determinacy=cls)
        assert len(roots) >= 3
        for r in roots:
            m = transform_from_V(j, complex(r, 1e-6), u, determinacy=cls)
            assert mk.spectral_norm(m) > 1e3


def test_extension_spectrum_double_roots_are_found_once(ind, ind_cls):
    # on the direct sum of two ind copies, U = diag(u1, u2) gives the union
    # of ind's spectra for u1 and u2.  With U = I every root is double,
    # where |det| touches zero without a sign change, and is returned once;
    # with U = diag(1, -1), X_400 = diag(2 D_400(0), 0) is singular but not
    # zero, and one direction of x_400 is held at zero
    def rule(k):
        return np.zeros((2, 2)), float((k + 1) ** 2) * np.eye(2)

    n = len(ind.diag)
    twice = BlockJacobiMatrix(2, tuple(rule(k)[0] for k in range(n)),
                              tuple(rule(k)[1] for k in range(n - 1)), rule)
    cls = DeterminacyClass(Determinacy.COMPLETELY_INDETERMINATE, 2, 2)
    one = {s: extension_spectrum(ind, s * np.eye(1), (-10, 10),
                                 determinacy=ind_cls) for s in (1.0, -1.0)}
    for signs, want in (((1.0, 1.0), one[1.0]),
                        ((1.0, -1.0), sorted(one[1.0] + one[-1.0]))):
        got = extension_spectrum(twice, np.diag(signs), (-10, 10),
                                 determinacy=cls)
        assert len(want) >= 3
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * (1.0 + abs(w))


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
             lambda: list(first_kind_values(ind, [nan], 3)),
             lambda: list(first_kind_values(ind, [1j, complex(1.0, nan)], 3)),
             lambda: list(first_kind_values(ind, [nan, nan, inf], 3)),
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


_EYE = np.eye(1)
_T = StepMeasure(1, [0.0], [[[1.0]]])
# reader -> (the name it refuses under, whether one number belongs there,
# whether a real number belongs there, a call on (matrix, class, x) with x
# in place of one point)
POINT_READERS = {
    "quartet": ("z", True, False, lambda j, c, x: quartet(
        j, x, determinacy=c)),
    "extremal-z": ("z", True, False, lambda j, c, x: transform_extremal(
        j, 0.3, x, determinacy=c)),
    "extremal-xi": ("xi", True, True, lambda j, c, x: transform_extremal(
        j, x, -1j, determinacy=c)),
    "jump_bound": ("xi", True, True, lambda j, c, x: jump_bound(j, x, 8)),
    "from_V": ("z", True, False, lambda j, c, x: transform_from_V(
        j, x, _EYE, determinacy=c)),
    "bracket": ("lam", False, True, lambda j, c, x: extension_bracket(
        j, _EYE, [0.5, x])),
    "spectrum": ("interval end", False, True,
                 lambda j, c, x: extension_spectrum(
                     j, _EYE, (x, 1.0), determinacy=c)),
    "invert-eta": ("eta", True, True, lambda j, c, x: stieltjes_invert(
        lambda z: _EYE, [0.0], x)),
    "invert-grid": ("grid point", False, True,
                    lambda j, c, x: stieltjes_invert(
                        lambda z: _EYE, [0.0, x], 0.1)),
    "kernel_partial": ("z", True, False, lambda j, c, x: kernel_partial(
        j, x, 3)),
    "estimate_H": ("z", True, False, lambda j, c, x: estimate_H(j, x)),
    "deficiency": ("sample point", False, False,
                   lambda j, c, x: deficiency_indices(
                       j, sample_points=[x, 1j, 2j, 3j, -1j, -2j, -3j])),
    "growth": ("radius", False, True, lambda j, c, x: growth_diagnostic(
        j, [1.0, x])),
    "measure-nodes": ("nodes", False, True, lambda j, c, x: StepMeasure(
        1, [0.0, x], np.ones((2, 1, 1)))),
    "cumulative": ("lam", True, True, lambda j, c, x: cumulative(_T, x)),
    "stieltjes": ("z", True, False, lambda j, c, x: stieltjes_transform(
        _T, x)),
    "first_kind": ("z", False, False, lambda j, c, x: list(
        first_kind_values(j, [1j, x], 3))),
}
# input -> (value, what the refusal says it must be); numpy reads None as
# NaN and casts a numpy complex to its real part, neither of which the
# caller passed
BAD_POINTS = {"string": ("x", "a number"), "none": (None, "a number"),
              "nan": (float("nan"), "finite"),
              "array": ([0.5, 2.0], "one number"),
              "complex": (np.complex128(0.3 + 1j), "a number"),
              "ragged": ([0.5, [1.0]], "a number")}


def _reads(one, real, bad):
    """Whether a reader taking one number or several, real or complex,
    is given the input ``bad``."""
    return {"array": one, "complex": real, "ragged": not one}.get(bad, True)


@pytest.mark.parametrize("reader,bad", [
    (r, b) for r, (_, one, real, _) in POINT_READERS.items()
    for b in BAD_POINTS if _reads(one, real, b)])
def test_every_point_reader_refuses_what_is_not_a_finite_number(
        reader, bad, ind, ind_cls):
    # an array where one number belongs, too; the refusal names the argument
    # (and a ComplexWarning fails the case: the suite's warnings are errors)
    what, _, _, call = POINT_READERS[reader]
    value, must = BAD_POINTS[bad]
    with pytest.raises(InvalidInputError, match=f"^{what} must be {must}"):
        call(ind, ind_cls, value)


TOL_READERS = {
    "quartet": ("series_tol", lambda j, c, t: quartet(
        j, 1j, series_tol=t, determinacy=c)),
    "extremal": ("series_tol", lambda j, c, t: transform_extremal(
        j, 0.3, -1j, series_tol=t, determinacy=c)),
    "from_V": ("series_tol", lambda j, c, t: transform_from_V(
        j, 1j, _EYE, series_tol=t, determinacy=c)),
    "loewner_leq": ("tol", lambda j, c, t: mk.loewner_leq(_EYE, _EYE, t)),
    "numerical_rank": ("rel_tol", lambda j, c, t: mk.numerical_rank(_EYE, t)),
}


@pytest.mark.parametrize("reader", TOL_READERS)
@pytest.mark.parametrize("bad", ["x", None, float("nan"), [1e-3, 1e-2], 1j],
                         ids=["string", "none", "nan", "array", "complex"])
def test_every_tolerance_is_read_through_the_point_door(reader, bad, ind,
                                                        ind_cls):
    # a NaN series_tol would run every series to n_max, unconverged
    what, call = TOL_READERS[reader]
    with pytest.raises(InvalidInputError, match=f"^{what} must be "):
        call(ind, ind_cls, bad)


def test_matrices_that_are_not_numbers_are_refused(ind, ind_cls):
    for call in (lambda: transform_from_V(ind, 1j, "x", determinacy=ind_cls),
                 lambda: extension_bracket(ind, "x", [0.0]),
                 lambda: generate_first_kind(ind, 3, "x")):
        with pytest.raises(InvalidInputError, match="not numbers"):
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
                                        determinacy=ind_cls))
    for call in calls:
        with pytest.raises(InvalidInputError, match="n_max must be >= 0"):
            call()


def test_extension_interval_validation(ind, ind_cls):
    with pytest.raises(InvalidInputError):
        extension_spectrum(ind, np.eye(1), (5, -5), determinacy=ind_cls)
    for interval in ((0, 1, 2), (0,), ("a", 1), 5, (1j, 2), "01"):
        with pytest.raises(InvalidInputError, match="interval"):
            extension_spectrum(ind, np.eye(1), interval, determinacy=ind_cls)


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
