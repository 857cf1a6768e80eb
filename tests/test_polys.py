import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmoment import (BlockJacobiMatrix, MatrixPoly, classify,
                         estimate_H, expand, form, gauss_quadrature,
                         generate_first_kind, jump_bound, kernel_partial,
                         moments_from_jacobi, quartet, second_kind,
                         truncate)
from blockmoment.errors import InvalidInputError, OutOfRangeError
from blockmoment.moments import block_hankel
from blockmoment.polys import _CHUNK, _states, _transfers, first_kind_values

from conftest import (ci_matrix, random_hermitian, random_nonsingular,
                      random_regular, random_regular_growing, rel_err)


def random_poly(p, deg, rng):
    return MatrixPoly(p, rng.standard_normal((deg + 1, p, p))
                      + 1j * rng.standard_normal((deg + 1, p, p)))


def test_star_constant_and_real():
    c = np.array([[1.0, 2.0j], [0.0, -1.0]])
    assert np.allclose(MatrixPoly.constant(c).star().coeffs[0], c.conj().T)
    real = MatrixPoly(1, np.array([[[1.0]], [[-2.0]], [[3.0]]]))
    assert np.allclose(real.star().coeffs, real.coeffs)


def test_star_eval_identity(rng):
    for _ in range(10):
        p = random_poly(3, 4, rng)
        z = complex(rng.standard_normal(), rng.standard_normal())
        lhs = p.star()(np.conj(z))
        rhs = p(z).conj().T
        assert np.abs(lhs - rhs).max() < 1e-12 * (1 + np.abs(rhs).max())


def test_eval_examples(ch):
    ident = MatrixPoly.constant(np.eye(2))
    assert np.allclose(ident(3.7 - 2j), np.eye(2))
    assert np.allclose(MatrixPoly.zero(2)(1.5), np.zeros((2, 2)))
    basis = generate_first_kind(ch, 3)
    assert np.allclose(basis.polys[2](1.0), [[3.0]])


def test_first_kind_ch(ch):
    basis = generate_first_kind(ch, 3)
    assert np.allclose(basis.polys[0].coeffs.ravel(), [1])
    assert np.allclose(basis.polys[1].coeffs.ravel(), [0, 2])
    assert np.allclose(basis.polys[2].coeffs.ravel(), [-1, 0, 4])
    assert np.allclose(basis.polys[3].coeffs.ravel(), [0, -4, 0, 8])


def test_first_kind_ind(ind):
    basis = generate_first_kind(ind, 2)
    assert np.allclose(basis.polys[1].coeffs.ravel(), [0, 1])
    assert np.allclose(basis.polys[2].coeffs.ravel(), [-0.25, 0, 0.25])


def test_first_kind_initial_step_uses_zero_predecessor(rng):
    # k=0 step: D_1 = A01^{-1} (lam - A00) D0, no D_{-1} contribution
    j = random_regular(2, 3, rng)
    d0 = np.eye(2)
    basis = generate_first_kind(j, 1, d0)
    a01_inv = np.linalg.inv(j.offdiag[0])
    assert np.allclose(basis.polys[1].coeffs[1], a01_inv)
    assert np.allclose(basis.polys[1].coeffs[0], -a01_inv @ j.diag[0])


def test_recurrence_residual(ch, ind, ds, rng):
    for j in (ch, ind, ds, random_regular(3, 8, rng)):
        basis = generate_first_kind(j, 6)
        jp = j.prefix(7)
        for k in range(6):
            lhs = basis.polys[k].shift()  # lam * D_k
            rhs = MatrixPoly(j.p, jp.diag[k][None] @ basis.polys[k].coeffs)
            rhs = rhs + MatrixPoly(
                j.p, jp.offdiag[k][None] @ basis.polys[k + 1].coeffs)
            if k > 0:
                rhs = rhs + MatrixPoly(
                    j.p,
                    (jp.offdiag[k - 1].conj().T)[None]
                    @ basis.polys[k - 1].coeffs)
            diff = lhs - rhs
            scale = max(1.0, np.abs(lhs.coeffs).max())
            assert np.abs(diff.coeffs).max() < 1e-10 * scale


def test_exact_degree_and_nonsingular_leads(ind):
    basis = generate_first_kind(ind, 12)
    for k, poly in enumerate(basis.polys):
        assert poly.degree == k
        lead = poly.coeffs[k]
        assert np.linalg.svd(lead, compute_uv=False)[-1] > 0


def test_generate_requires_regular():
    from blockmoment import BlockJacobiMatrix
    bad = BlockJacobiMatrix(1, (np.zeros((1, 1)),) * 2, (np.zeros((1, 1)),))
    with pytest.raises(InvalidInputError):
        generate_first_kind(bad, 1)


def test_degree_zero_on_a_one_block_matrix():
    # the plan for n = 0 is an empty stack of steps
    j = BlockJacobiMatrix(2, (np.diag([1.0, -2.0]),), ())
    d0 = np.array([[2.0, 1.0], [0.0, 1.0]])
    basis = generate_first_kind(j, 0, d0)
    assert basis.n == 0 and np.array_equal(basis.polys[0].coeffs[0], d0)
    assert rel_err(basis.lead_inv[0], np.linalg.inv(d0)) < 1e-15
    assert second_kind(basis, 0).epolys[0].degree == -1
    s = moments_from_jacobi(j, 0, d0)
    assert rel_err(s.S[0], np.linalg.inv(d0) @ np.linalg.inv(d0).conj().T) \
        < 1e-15


def plain_coefficients(j, n, d0, second):
    """X_0..X_n by one solve per step on stacked coefficients, written
    independently of the library's recurrence plan."""
    p = j.p
    jp = j.prefix(n + 1)
    zero = np.zeros((n + 1, p, p), dtype=complex)
    prev, cur = zero, zero.copy()
    if second:
        e1 = np.linalg.solve(jp.offdiag[0], np.linalg.inv(d0).conj().T)
    else:
        cur[0] = d0
    out = [cur]
    for k in range(n):
        rhs = -(jp.diag[k] @ cur)
        rhs[1:] += cur[:-1]                            # lam X_k
        if k > 0:
            rhs -= jp.offdiag[k - 1].conj().T @ prev   # A_{k,k-1} X_{k-1}
        nxt = np.linalg.solve(jp.offdiag[k], rhs)
        if second and k == 0:
            nxt = zero.copy()
            nxt[0] = e1
        prev, cur = cur, nxt
        out.append(cur)
    return out


def rule_matrix(p, seed, n_stored, extended):
    """Random regular matrix; blocks past the stored prefix come from a
    seeded rule when ``extended``."""
    def rule(k):
        rng = np.random.default_rng([seed, k])
        h = random_hermitian(p, rng)
        h = (k + 1) * h / np.linalg.svd(h, compute_uv=False)[0]
        return h, random_nonsingular(p, rng, scale=float((k + 1) ** 1.5))

    return BlockJacobiMatrix(p, tuple(rule(k)[0] for k in range(n_stored)),
                             tuple(rule(k)[1] for k in range(n_stored - 1)),
                             rule if extended else None)


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 32 - 1),
       extended=st.booleans(), with_d0=st.booleans(), n=st.integers(1, 12))
def test_symbolic_polys_match_plain_solve_recurrence(p, seed, extended,
                                                     with_d0, n):
    j = rule_matrix(p, seed, 3 if extended else 13, extended)
    d0 = (random_nonsingular(p, np.random.default_rng(seed)) if with_d0
          else np.eye(p))
    basis = generate_first_kind(j, n, d0 if with_d0 else None)
    epolys = second_kind(basis, n).epolys
    for got, want in ((basis.polys, plain_coefficients(j, n, d0, False)),
                      (epolys, plain_coefficients(j, n, d0, True))):
        for poly, w in zip(got, want):      # relative to each polynomial
            assert np.abs(poly._padded(n + 1) - w).max() \
                <= 1e-12 * np.abs(w).max()


def test_negative_lengths_are_refused(ch):
    basis = generate_first_kind(ch, 3)
    for call in (lambda: generate_first_kind(ch, -1),
                 lambda: second_kind(basis, -1),
                 lambda: list(first_kind_values(ch, [1j], -1))):
        with pytest.raises(InvalidInputError, match="n must be >= 0, got -1"):
            call()


NON_INTEGER_LENGTHS = {
    "estimate_H": lambda ch, ind: estimate_H(ch, 1j, n_max=10.5),
    "classify": lambda ch, ind: classify(ch, n_max=np.float64(50)),
    "kernel_partial": lambda ch, ind: kernel_partial(ch, 1j, 2.0),
    "quartet": lambda ch, ind: quartet(ind, 1j, n_max=10.5),
    "gauss_quadrature": lambda ch, ind: gauss_quadrature(ch, True),
    "first_kind_values": lambda ch, ind: list(first_kind_values(ch, [1j],
                                                                2.0)),
    "generate_first_kind": lambda ch, ind: generate_first_kind(ch, 3.0),
    "moments_from_jacobi": lambda ch, ind: moments_from_jacobi(ch, 2.5),
    "prefix": lambda ch, ind: ch.prefix(2.5),
    "truncate": lambda ch, ind: truncate(ch, 2.5),
    "jump_bound": lambda ch, ind: jump_bound(ind, 0.5, 2.5),
    "block_hankel": lambda ch, ind: block_hankel(moments_from_jacobi(ch, 6),
                                                 1.5),
    "monomial": lambda ch, ind: MatrixPoly.monomial(2.5, np.eye(1)),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_LENGTHS))
def test_lengths_that_are_not_integers_are_refused(name, ch, ind):
    with pytest.raises(InvalidInputError, match="must be an integer, got"):
        NON_INTEGER_LENGTHS[name](ch, ind)


def test_numpy_integer_lengths_are_lengths(ch):
    assert np.array_equal(kernel_partial(ch, 1j, np.int64(6)),
                          kernel_partial(ch, 1j, 6))
    assert np.array_equal(gauss_quadrature(ch, np.int32(3)).nodes,
                          gauss_quadrature(ch, 3).nodes)
    assert estimate_H(ch, 1j, n_max=np.uint8(40)).n_used == 40


def test_first_kind_values_at_no_points(ch, ds):
    for j in (ch, ds):
        got = list(first_kind_values(j, [], 20))
        assert len(got) == 21
        assert all(d.shape == (0, j.p, j.p) for d in got)


def rel_per_step(got, want):
    """Largest entry error of each state over the state's largest entry."""
    scale = np.abs(want).max(axis=(1, 2))
    return (np.abs(got - want).max(axis=(1, 2))
            / np.where(scale > 0, scale, 1.0))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_states_at_one_point_are_those_beside_a_second_point(p):
    # beside 5i the joined pass runs once per point on that point's own
    # columns, so the first point's states are those of the pass at it
    # alone, bit for bit
    rng = np.random.default_rng(70 + p)
    for j in (random_regular(p, 201, rng, scale=1.0),
              random_regular_growing(p, 201, rng),
              ci_matrix(rng, p, 201, rule=False)):
        for z in (1j, 2 + 1j, -3 + 2j, 0.7):
            for second in ([False], [True], [False, True]):
                for n in (0, 1, 15, 16, 17, 200):
                    got = _states(j, [z] * len(second), second, n)
                    want = _states(j, [z] * len(second) + [5j],
                                   second + [False], n)
                    assert got.shape == (n + 1, p, len(second) * p)
                    assert np.array_equal(got, want[..., :got.shape[2]],
                                          equal_nan=True)


def stepwise_states(j, zs, second, n):
    """X_0..X_n as one (n+1, p, W) array by the plain recurrence: every
    column block one step at a time, B_k X_{k+1} = (z - A_kk) X_k -
    A_{k,k-1} X_{k-1} solved for X_{k+1}, from D_0 = I or from E_0 = 0
    with the constant I on the right of the first step (E_1 = B_0^{-1})."""
    p = j.p
    jp = j.prefix(n + 1)
    z = np.asarray(zs, dtype=complex).reshape(-1, 1, 1)
    e = np.asarray(second, dtype=bool).reshape(-1, 1, 1)
    eye = np.eye(p, dtype=complex)
    prev = np.zeros((z.size, p, p), dtype=complex)
    cur = np.where(e, 0 * eye, eye)
    out = [cur]
    for k in range(n):
        rhs = z * cur - jp.diag[k] @ cur
        rhs = rhs - jp.offdiag[k - 1].conj().T @ prev if k else \
            rhs + np.where(e, eye, 0 * eye)
        prev, cur = cur, np.linalg.solve(jp.offdiag[k], rhs)
        out.append(cur)
    return np.array(out).transpose(0, 2, 1, 3).reshape(n + 1, p, z.size * p)


def engine_point_sets(rng):
    """(zs, second) pairs: none, one point, duplicated points, two points
    in the shapes the series use, and 3, 5 and 60 distinct points."""
    five = rng.uniform(-3, 3, 5) + 1j * rng.uniform(-2, 2, 5)
    sixty = rng.uniform(-3, 3, 60) + 1j * rng.uniform(-2, 2, 60)
    return [([], []),
            ([1j], [False]),
            ([2 + 1j], [True]),
            ([0.7, 0.7, 0.7], [True, False, False]),
            ([-3 + 2j, -3 + 2j, 0.7], [False, True, False]),
            ([1 - 1j, 1 - 1j, 0.0, 0.0], [False, True, False, True]),
            ([2j, -1 + 1j, 2j, -1 + 1j], [True, True, False, False]),
            ([0.7, 2j, 0.7, -1 + 1j], [False, True, True, False]),
            (five, rng.random(5) < 0.5),
            (sixty, rng.random(60) < 0.5)]


@pytest.mark.parametrize("p", [1, 2, 3])
def test_engine_states_are_the_stepwise_recurrence(p):
    # one-chunk and chunked passes alike; a pass at any number of points,
    # joined (one or two distinct) or stepwise (none or three or more),
    # is one (n+1, p, W) array
    rng = np.random.default_rng(110 + p)
    for j in (ci_matrix(rng, p, 401, rule=False),
              random_regular_growing(p, 401, rng)):
        for zs, second in engine_point_sets(rng):
            want = stepwise_states(j, zs, second, 400)
            for n in (0, 1, 15, 16, 17, 31, 32, 33, 200, 400):
                got = _states(j, zs, second, n)
                assert isinstance(got, np.ndarray)
                assert got.shape == (n + 1, p, len(zs) * p)
                if len(zs):
                    assert rel_per_step(got, want[:n + 1]).max() <= 1e-13


@pytest.mark.parametrize("p", [1, 2, 3])
def test_transfers_hold_the_pairs_of_states_at_chunk_starts_and_the_end(p):
    # M_q maps the entry pair to [X_{q-1}; X_q], E columns then D, at
    # q = 0, 16, ... below n and at n, whatever the padding of the last
    # chunk, for one point or several
    rng = np.random.default_rng(160 + p)
    j = ci_matrix(rng, p, 401, rule=False)
    zs = [1j, -2.0 + 0.5j, 0.7]
    for n in (0, 1, 2, 15, 16, 17, 31, 32, 33, 200, 400):
        want = stepwise_states(j, np.repeat(zs, 2), [True, False] * 3, n)
        prev = np.concatenate([np.tile(np.eye(p, 2 * p), 3)[None],
                               want[:-1]])     # X_{-1} = [I | 0] per point
        m = _transfers(j, zs, n)
        q = np.append(np.arange(0, n, _CHUNK), n)
        assert m.shape == (len(q), 3, 2 * p, 2 * p)
        for i in range(3):
            cols = slice(2 * p * i, 2 * p * (i + 1))
            for top, states in ((slice(None, p), prev), (slice(p, None), want)):
                assert rel_per_step(m[:, i, top], states[q][..., cols]).max() \
                    <= 1e-13


def test_a_point_past_the_float_range_leaves_the_other_point_alone(ind):
    # a two-point pass joins each point's states with its own transfer
    # solutions, so the overflowed point's infinities stay in its columns,
    # in short passes as in long ones
    for n in (15, 40, 400):
        with np.errstate(over="ignore", invalid="ignore"):
            both = np.array(list(first_kind_values(ind, [1e25 + 1j, 1j],
                                                   n)))
        alone = np.array(list(first_kind_values(ind, [1j], n)))
        assert not np.isfinite(both[:, 0]).all()
        assert rel_per_step(both[:, 1], alone[:, 0]).max() <= 1e-13


def mp_states(j, zs, n):
    """D_k and E_k, k = 0..n, side by side as (n+1, p, 2p) per point of
    ``zs``, by the recurrence in 40-digit arithmetic on the blocks."""
    p = j.p
    jp = j.prefix(n + 1)
    out = []
    with mp.workdps(40):
        def m(a):
            return mp.matrix(a.tolist())
        rows = [(m(jp.diag[k]), m(jp.offdiag[k - 1].conj().T) if k else None,
                 mp.inverse(m(jp.offdiag[k]))) for k in range(n)]
        for z in zs:
            z = mp.mpc(z)
            prev = mp.zeros(p, 2 * p)
            cur = mp.zeros(p, 2 * p)
            seed = mp.zeros(p, 2 * p)
            for i in range(p):
                cur[i, i] = seed[i, p + i] = 1          # D_0 = I, E_0 = 0
            xs = [cur]
            for a, c, b_inv in rows:
                rhs = z * cur - a * cur
                rhs = rhs + seed if c is None else rhs - c * prev
                prev, cur = cur, b_inv * rhs
                xs.append(cur)
            out.append(np.array([[[complex(x[r, col]) for col in range(2 * p)]
                                  for r in range(p)] for x in xs]))
    return out


def test_states_at_one_point_are_as_accurate_as_beside_a_second_point():
    # errors against 40 digits of the engine at one point (joined transfer
    # solutions with folded rows) and of the plain stepwise recurrence; the
    # two round differently and either may come out closer case by case,
    # so the engine is held to the other's worst error within a factor of 2
    worst = np.zeros(2)
    for p in (1, 2, 3):
        rng = np.random.default_rng(90 + p)
        for j in (random_regular(p, 121, rng, scale=1.0),
                  ci_matrix(rng, p, 121, rule=False)):
            zs = (1j, -3 + 2j, 0.7)
            for z, want in zip(zs, mp_states(j, zs, 120)):
                joined = _states(j, [z, z], [False, True], 120)
                plain = stepwise_states(j, [z, z], [False, True], 120)
                for i, got in enumerate((joined, plain)):
                    worst[i] = max(worst[i], *(
                        rel_per_step(got[..., cols], want[..., cols]).max()
                        for cols in (slice(None, p), slice(p, None))))
    assert worst[0] <= 1e-13
    assert worst[0] <= 2 * worst[1]


def test_expand_examples(ch):
    basis = generate_first_kind(ch, 4)
    # basis element
    u = expand(basis.polys[2], basis)
    assert np.allclose(u[2], [[1.0]])
    assert np.abs(u[0]).max() < 1e-14 and np.abs(u[1]).max() < 1e-14
    # lam = (1/2) * D_1
    u = expand(MatrixPoly.monomial(1, np.eye(1)), basis)
    assert np.allclose(u[1], [[0.5]]) and np.abs(u[0]).max() < 1e-14
    # lam^2 = (1/4) D_0 + (1/4) D_2
    u = expand(MatrixPoly.monomial(2, np.eye(1)), basis)
    assert np.allclose(u[0], [[0.25]])
    assert np.abs(u[1]).max() < 1e-14
    assert np.allclose(u[2], [[0.25]])


def test_expand_round_trip(rng):
    j = random_regular(2, 12, rng)
    basis = generate_first_kind(j, 10)
    coeffs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
              for _ in range(8)]
    acc = MatrixPoly.zero(2)
    for k, c in enumerate(coeffs):
        acc = acc + MatrixPoly(2, c[None] @ basis.polys[k].coeffs)
    u = expand(acc, basis)
    for k, c in enumerate(coeffs):
        assert rel_err(u[k], c) < 1e-10


def test_expand_zero_and_too_long(ch):
    basis = generate_first_kind(ch, 2)
    assert expand(MatrixPoly.zero(1), basis) == []
    with pytest.raises(OutOfRangeError):
        expand(MatrixPoly.monomial(5, np.eye(1)), basis)
    with pytest.raises(OutOfRangeError):
        second_kind(basis, basis.n + 1)


def test_form_orthonormality(ch, ind, ds):
    for j in (ch, ind, ds):
        basis = generate_first_kind(j, 5)
        eye = np.eye(j.p)
        for i in range(6):
            for k in range(6):
                val = form(basis.polys[i], basis.polys[k], basis)
                target = eye if i == k else 0 * eye
                assert np.abs(val - target).max() < 1e-10


def test_form_examples(ch):
    basis = generate_first_kind(ch, 3)
    lam = MatrixPoly.monomial(1, np.eye(1))
    assert np.allclose(form(lam, lam, basis), [[0.25]])


def test_form_left_matrix_linearity(rng, ds):
    basis = generate_first_kind(ds, 12)
    for _ in range(5):
        p = random_poly(2, 6, rng)
        q = random_poly(2, 5, rng)
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = form(p.left_mul(2 * np.eye(2)), q, basis)
        assert rel_err(lhs, 2 * form(p, q, basis)) < 1e-10
        assert rel_err(form(p.left_mul(c), q, basis),
                       c @ form(p, q, basis)) < 1e-10
        assert rel_err(form(p, q.left_mul(c), basis),
                       form(p, q, basis) @ c.conj().T) < 1e-10


def test_form_shift_symmetry(rng, ds):
    basis = generate_first_kind(ds, 14)
    for _ in range(10):
        p = random_poly(2, 6, rng)
        q = random_poly(2, 6, rng)
        lhs = form(p.shift(), q, basis)
        rhs = form(p, q.shift(), basis)
        assert np.abs(lhs - rhs).max() < 1e-10 * (1 + np.abs(lhs).max())


def test_poly_validation(ch):
    with pytest.raises(InvalidInputError):
        MatrixPoly(2, np.zeros((3, 2, 3)))
    with pytest.raises(InvalidInputError):
        MatrixPoly(1, np.array([[[np.nan]]]))
    one, two = MatrixPoly.zero(1), MatrixPoly.zero(2)
    for call in (lambda: one + two, lambda: one - two,
                 lambda: expand(two, generate_first_kind(ch, 2))):
        with pytest.raises(InvalidInputError, match="dimension mismatch"):
            call()
