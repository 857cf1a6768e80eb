import mpmath
import numpy as np
import pytest

from blockmoment import (MatrixPoly, MomentSequence, StepMeasure, form,
                         generate_first_kind, hankel_positive,
                         jacobi_from_moments, moments_from_jacobi,
                         moments_of_measure, moments_oracle)
from blockmoment import matkernel as mk
from blockmoment.errors import (IllConditionedError, InvalidInputError,
                                OutOfRangeError)
from blockmoment.jacobi import truncate
from blockmoment.moments import block_hankel

from conftest import (random_hermitian, random_regular, random_regular_growing,
                      rel_err)


def scalar_seq(*values):
    return MomentSequence(1, tuple(np.array([[v]], dtype=complex)
                                   for v in values))


def test_s0_is_identity_with_default_d0(ch, ind, ds, rng):
    for j in (ch, ind, ds, random_regular(2, 4, rng)):
        s = moments_from_jacobi(j, 0)
        assert np.allclose(s.S[0], np.eye(j.p), atol=1e-12)


def test_ch_moments(ch):
    s = moments_from_jacobi(ch, 4)
    assert abs(s.S[1][0, 0]) < 1e-14
    assert s.S[2][0, 0] == pytest.approx(0.25)
    assert s.S[4][0, 0] == pytest.approx(0.125)


def test_ind_second_moment(ind):
    s = moments_from_jacobi(ind, 2)
    assert s.S[2][0, 0] == pytest.approx(1.0)


def test_oracle_examples(ch):
    assert np.allclose(moments_oracle(ch, 0), np.eye(1))
    assert moments_oracle(ch, 2)[0, 0] == pytest.approx(0.25)


def small_n_matrices(ch, ind, ds, rng):
    return [ch, ind, ds, random_regular(2, 14, rng),
            random_regular(3, 14, rng), random_regular(2, 14, rng),
            random_regular(3, 14, rng), random_regular_growing(2, 14, rng),
            random_regular_growing(3, 14, rng)]


def test_oracle_equivalence(ch, ind, ds, rng):
    for j in small_n_matrices(ch, ind, ds, rng):
        s = moments_from_jacobi(j, 12)
        for n in range(13):
            assert rel_err(s.S[n], moments_oracle(j, n)) < 1e-10


def test_moments_match_the_form_definition(ch, ind, ds, rng):
    # S_n = {lam^n I, I} through degree peeling, with and without D_0
    d0 = np.array([[2.0, 1.0j], [0.5, 1.0]])
    cases = [(j, None) for j in small_n_matrices(ch, ind, ds, rng)]
    cases.append((random_regular(2, 14, rng), d0))
    for j, d in cases:
        basis = generate_first_kind(j, 12, d)
        ident = MatrixPoly.constant(np.eye(j.p))
        s = moments_from_jacobi(j, 12, d)
        for n in range(13):
            want = form(MatrixPoly.monomial(n, np.eye(j.p)), ident, basis)
            assert rel_err(s.S[n], want) < 1e-10


def mpmath_moments(j, n_max, dps=60):
    """(J^n)_{00}, n = 0..n_max, as J^n E_0 on a truncation in mpmath.

    Row r of J^n E_0 is sum_c J[r, c] (J^{n-1} E_0)[c]; the truncation to
    n_max // 2 + 1 blocks holds every walk that returns to block 0.
    """
    t = truncate(j, n_max // 2 + 1)
    p = j.p
    with mpmath.workdps(dps):
        rows = [[(c, mpmath.mpc(complex(v))) for c, v in enumerate(row)
                 if v != 0] for row in t]
        col = [[mpmath.mpc(int(r == c)) for c in range(p)]
               for r in range(len(t))]
        out = []
        for _ in range(n_max + 1):
            out.append(np.array([[complex(v) for v in r] for r in col[:p]]))
            col = [[mpmath.fsum(v * col[c][k] for c, v in row)
                    for k in range(p)] for row in rows]
    return out


def test_moments_match_a_60_digit_reference(ind, ds, rng):
    # no degree-peeling pin: bounded blocks of norm 1 and 2, and growing ones
    js = [ind, ds]
    for p in (1, 2, 3):
        js += [random_regular(p, 31, rng, scale=1.0),
               random_regular(p, 31, rng, scale=2.0),
               random_regular_growing(p, 31, rng)]
    for j in js:
        s = moments_from_jacobi(j, 30)
        # a vanishing reference (odd moments of ind, ds) is matched exactly
        for got, want in zip(s.S, mpmath_moments(j, 30), strict=True):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_oracle_out_of_range():
    from blockmoment import BlockJacobiMatrix
    finite = BlockJacobiMatrix(1, (np.zeros((1, 1)),) * 2,
                               (np.array([[1.0]]),))
    with pytest.raises(OutOfRangeError):
        moments_oracle(finite, 5)


def test_hankel_positive_ch(ch):
    s = moments_from_jacobi(ch, 4)
    rep = hankel_positive(s)
    assert rep.positive and bool(rep)
    assert rep.first_bad_section is None
    assert not rep.odd_tail_ignored


def test_hankel_degenerate_examples():
    rep = hankel_positive(MomentSequence(
        2, (np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))))
    assert not rep.positive
    assert rep.first_bad_section == 1

    rep = hankel_positive(scalar_seq(1.0, 2.0, 4.0))
    assert not rep.positive
    assert rep.first_bad_section == 1
    assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_hankel_odd_tail_flagged(ch):
    s = moments_from_jacobi(ch, 3)
    rep = hankel_positive(s)
    assert rep.positive and rep.odd_tail_ignored


def scanned_report(s, psd_tol=mk.PSD_TOL):
    """PositivityReport by one eigvalsh per leading section, smallest first."""
    worst = np.inf
    for n in range(s.order // 2 + 1):
        h = np.block([[s.S[j + k] for k in range(n + 1)]
                      for j in range(n + 1)])
        w = np.linalg.eigvalsh(0.5 * (h + h.conj().T))
        if w[0] <= psd_tol * np.abs(w).max():
            return (False, n, w[0], s.order % 2 == 1)
        worst = min(worst, w[0])
    return (True, None, worst, s.order % 2 == 1)


def test_hankel_positive_matches_a_section_by_section_scan(ch, ind, ds, rng):
    seqs = [moments_from_jacobi(ch, 30), moments_from_jacobi(ind, 9),
            moments_from_jacobi(ds, 12), scalar_seq(1.0, 2.0, 4.0),
            MomentSequence(2, (np.eye(2), np.zeros((2, 2)),
                               np.zeros((2, 2))))]
    for p in (1, 2, 3):
        for depth in (4, 7, 12, 16):
            seqs.append(moments_from_jacobi(
                random_regular(p, depth + 1, rng, scale=1.0), depth))
    # a point mass: positive S_0, singular from section 1 on
    seqs.append(moments_of_measure(
        StepMeasure(1, np.array([2.0]), np.array([[[1.0]]])), 6))
    seen = set()
    for s in seqs:
        rep = hankel_positive(s)
        want = scanned_report(s)
        assert (rep.positive, rep.first_bad_section, rep.min_eigenvalue,
                rep.odd_tail_ignored) == want
        seen.add(rep.positive)
    assert seen == {True, False}


def test_block_hankel_equals_a_block_assembly(rng):
    for p in (1, 2, 3):
        s = moments_from_jacobi(random_regular(p, 14, rng, scale=1.0), 13)
        for n in range(7):
            want = np.block([[s.S[j + k] for k in range(n + 1)]
                             for j in range(n + 1)])
            assert np.array_equal(block_hankel(s, n), want)


def test_hankel_quadratic_form_identity(ch, rng):
    # sum_j x_j S_{j+k} x_k^H equals the Hankel quadratic form
    s = moments_from_jacobi(ch, 8)
    h = block_hankel(s, 4)
    for _ in range(5):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        direct = sum(x[j] * s.S[j + k][0, 0] * np.conj(x[k])
                     for j in range(5) for k in range(5))
        quad = x.conj() @ h @ x
        assert abs(direct - quad) < 1e-12 * (1 + abs(quad))


def test_invert_single_step_example():
    j, d0 = jacobi_from_moments(scalar_seq(1.0, 0.0, 1.0))
    assert np.allclose(d0, np.eye(1))
    assert np.allclose(j.diag[0], np.zeros((1, 1)))
    assert np.allclose(j.offdiag[0], np.eye(1))


def test_invert_ch_round_trip(ch):
    s = moments_from_jacobi(ch, 6)
    j, d0 = jacobi_from_moments(s)
    for k in range(3):
        assert np.abs(j.diag[k]).max() < 1e-10
        assert rel_err(j.offdiag[k], np.array([[0.5]])) < 1e-10
    s2 = moments_from_jacobi(j, 6, d0)
    for a, b in zip(s.S, s2.S):
        assert rel_err(a, b) < 1e-8


def test_invert_ds_round_trip(ds):
    s = moments_from_jacobi(ds, 8)
    j, d0 = jacobi_from_moments(s)
    s2 = moments_from_jacobi(j, 8, d0)
    for a, b in zip(s.S, s2.S):
        assert rel_err(a, b) < 1e-8
    # fixture off-diagonals are already Hermitian PD, so the canonical
    # normalization reproduces them directly
    for k in range(4):
        assert rel_err(j.diag[k], ds.diag[k]) < 1e-8
        assert rel_err(j.offdiag[k], ds.offdiag[k]) < 1e-8


def test_invert_rejects_nonpositive():
    with pytest.raises(InvalidInputError):
        jacobi_from_moments(scalar_seq(1.0, 2.0, 4.0))


def test_invert_positive_but_uncertifiable_is_ill_conditioned(ch):
    # section 14 of the ch moments S_0..S_30 has a positive min eigenvalue
    # below the certification floor: a numerical failure, not bad input
    s = moments_from_jacobi(ch, 30)
    rep = hankel_positive(s)
    assert rep.first_bad_section == 14 and rep.min_eigenvalue > 0
    with pytest.raises(IllConditionedError, match="section 14") as e:
        jacobi_from_moments(s)
    assert e.value.step == 14


def test_invert_refuses_ill_conditioned():
    # moments of a 1-point measure: second step has no mass to normalize
    t = StepMeasure(1, np.array([2.0]), np.array([[[1.0]]]))
    s = moments_of_measure(t, 4)
    rep = hankel_positive(s)
    assert not rep.positive  # Hankel section 1 is singular for 1 point
    with pytest.raises((IllConditionedError, InvalidInputError)):
        jacobi_from_moments(s)


def test_invert_nontrivial_s0(rng):
    # S_0 != I exercises the D_0 = S_0^{-1/2} normalization
    nodes = np.array([-1.0, 0.5, 2.0])
    weights = []
    for _ in nodes:
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        weights.append(g @ g.conj().T + 0.3 * np.eye(2))
    t = StepMeasure(2, nodes, np.array(weights))
    s = moments_of_measure(t, 4)
    assert hankel_positive(s).positive
    j, d0 = jacobi_from_moments(s)
    s2 = moments_from_jacobi(j, 4, d0)
    for a, b in zip(s.S, s2.S):
        assert rel_err(a, b) < 1e-8


def test_moments_of_measure_examples():
    t = StepMeasure(2, np.array([2.0]), np.eye(2)[None])
    s = moments_of_measure(t, 3)
    for n in range(4):
        assert np.allclose(s.S[n], (2.0 ** n) * np.eye(2))

    t = StepMeasure(1, np.array([-0.5, 0.5]),
                    np.array([[[0.5]], [[0.5]]]))
    s = moments_of_measure(t, 2)
    assert s.S[2][0, 0] == pytest.approx(0.25)

    empty = StepMeasure(1, np.array([]), np.zeros((0, 1, 1)))
    s = moments_of_measure(empty, 2)
    assert all(np.abs(b).max() == 0 for b in s.S)


def test_moment_sequence_validation():
    with pytest.raises(InvalidInputError):
        MomentSequence(1, (np.array([[1.0, 2.0]]),))
    with pytest.raises(InvalidInputError):
        MomentSequence(2, (np.array([[0, 1], [0, 0]]),))


def test_random_hermitian_moments_need_not_be_positive(rng):
    # sanity: hankel_positive actually discriminates
    s = MomentSequence(2, (np.eye(2), random_hermitian(2, rng),
                           -2 * np.eye(2)))
    assert not hankel_positive(s).positive
