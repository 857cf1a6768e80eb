import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmoment import (BlockJacobiMatrix, Determinacy, StepMeasure, classify,
                         deficiency_indices, estimate_H, gauss_quadrature,
                         growth_diagnostic, kernel_partial,
                         moments_from_jacobi, moments_of_measure)
from blockmoment import matkernel as mk
from blockmoment import spectral
from blockmoment.errors import (ClassificationUnavailableError,
                                HalfPlaneError, InvalidInputError,
                                RefusedError)
from blockmoment.polys import _CHUNK, first_kind_values, generate_first_kind

from conftest import (ci_matrix, plain_chunk_sums, random_hermitian,
                      random_nonsingular, random_regular,
                      random_regular_growing, rel_err)


def test_kernel_partial_examples(ch):
    assert np.allclose(kernel_partial(ch, 0.37 + 2j, 0), np.eye(1))
    # D_1(0) = 0, so K_1(0) = 1
    assert kernel_partial(ch, 0.0, 1)[0, 0] == pytest.approx(1.0)
    # K_1(i) = 1 + |2i|^2 = 5
    assert kernel_partial(ch, 1j, 1)[0, 0] == pytest.approx(5.0)


def test_kernel_matches_symbolic_star_eval(ds):
    basis = generate_first_kind(ds, 6)
    z = 0.4 - 0.9j
    acc = np.zeros((2, 2), dtype=complex)
    for k in range(7):
        dk = basis.polys[k]
        acc += dk.star()(np.conj(z)) @ dk(z)
    assert rel_err(acc, kernel_partial(ds, z, 6)) < 1e-12


def test_kernel_monotone_psd(ch, ind, ds):
    for j in (ch, ind, ds):
        for z in (1j, 0.5 - 0.25j, 2.0):
            prev = kernel_partial(j, z, 0)
            for n in range(1, 8):
                cur = kernel_partial(j, z, n)
                assert mk.loewner_leq(prev, cur, 1e-12)
                prev = cur


def test_kernel_dominates_d0_gram(ind):
    for z in (1j, 3.0 + 0.5j):
        k = kernel_partial(ind, z, 12)
        assert mk.loewner_leq(np.eye(1), k, 1e-12)


def test_estimate_H_fixtures(ch, ind, ds):
    est = estimate_H(ch, 1j)
    assert est.decisive and est.rank == 0
    assert np.abs(est.h_matrix).max() == 0

    est = estimate_H(ind, 1j)
    assert est.decisive and est.rank == 1
    assert est.h_matrix[0, 0].real > 0

    est = estimate_H(ds, 1j)
    assert est.decisive and est.rank == 1
    assert est.converged_dirs == 1 and est.diverged_dirs == 1


def test_estimate_H_requires_offaxis(ch):
    with pytest.raises(HalfPlaneError):
        estimate_H(ch, 0.5)


def test_estimate_H_ind_value_matches_series(ind):
    # converged kernel sum at i is ~3.1832; H = inverse
    est = estimate_H(ind, 1j, n_max=400)
    k = kernel_partial(ind, 1j, 400)
    assert rel_err(est.h_matrix, np.linalg.inv(k)) < 1e-3


def plain_kernel_terms(j, z, n):
    """D_k(z)^H D_k(z), k = 0..n, by one solve per step,
    B_k D_{k+1} = (z - A_kk) D_k - A_{k,k-1} D_{k-1}, from D_0 = I."""
    p = j.p
    jp = j.prefix(n + 1)
    prev, cur = np.zeros((p, p), dtype=complex), np.eye(p, dtype=complex)
    terms = [cur.conj().T @ cur]
    for k in range(n):
        rhs = z * cur - jp.diag[k] @ cur
        if k:
            rhs -= jp.offdiag[k - 1].conj().T @ prev
        prev, cur = cur, np.linalg.solve(jp.offdiag[k], rhs)
        terms.append(cur.conj().T @ cur)
    return np.array(terms)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_kernel_partial_is_the_plain_sum(p):
    # sums within one chunk, at and past chunk ends and over 25 chunks
    rng = np.random.default_rng(150 + p)
    for j in (ci_matrix(rng, p, 401, rule=False),
              random_regular_growing(p, 401, rng)):
        for z in (1j, -3 + 2j, 0.7):
            want = np.cumsum(plain_kernel_terms(j, z, 400), axis=0)
            for n in (15, 16, 17, 33, 400):
                assert rel_err(kernel_partial(j, z, n), want[n]) < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_growth_diagnostic_is_the_plain_sum_under_the_stop_rule(p):
    # each direction's kernel stops where one solve per step, summed under
    # the chunk stop rule, stops, at GROWTH_SERIES_TOL as in the table and
    # at looser tolerances, where a stop a chunk off would show; off-
    # diagonal blocks growing like k^6 let the terms fall below 1e-12
    # within 400
    ci = ci_matrix(np.random.default_rng(160 + p), p, 401, rule=False)
    j = BlockJacobiMatrix(p, ci.diag, ci.offdiag
                          * (np.arange(400) + 1.0)[:, None, None] ** 4)
    n_max, radii = spectral.GROWTH_N_MAX, (0.5, 2.0, 8.0)
    stops = set()
    for r, got in zip(radii, growth_diagnostic(j, radii)):
        best = -np.inf
        for d in spectral.DEFAULT_GROWTH_DIRECTIONS:
            terms = [[t] for t in plain_kernel_terms(j, r * d, n_max)]
            for tol in (1e-3, 1e-6, spectral.GROWTH_SERIES_TOL):
                (k,), n_used, _ = plain_chunk_sums(terms, tol)
                assert rel_err(spectral._kernel_sum(j, r * d, n_max, tol),
                               k) < 1e-12
                stops.add(n_used)
            best = max(best, np.log(np.linalg.norm(k, 2)) / r)
        assert got[0] == r
        assert abs(got[1] - best) <= 1e-12 * max(1.0, abs(best))
    assert min(stops) < n_max                   # an early stop is covered


def per_step_history(j, z, n_max):
    """K_0..K_m with OVERFLOW_GUARD checked after every step."""
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        for dk in first_kind_values(j, [complex(z)], n_max):
            values.append(dk[0])
            if np.abs(dk).max() > spectral.OVERFLOW_GUARD:
                break
        d = np.array(values)
        return np.cumsum(np.conj(np.swapaxes(d, 1, 2)) @ d, axis=0)


def guard_crossing(j, m):
    """A point on the imaginary axis where D_m is the first D_k past
    OVERFLOW_GUARD, by bisection on log10 |z|."""
    lo, hi = 0.0, 130.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if len(per_step_history(j, 10.0 ** mid * 1j, 200)) - 1 > m:
            lo = mid
        else:
            hi = mid
    z = 10.0 ** hi * 1j
    assert len(per_step_history(j, z, 200)) - 1 == m
    return z


@pytest.mark.parametrize("p", [1, 2, 3])
def test_kernel_history_checked_per_chunk_is_the_per_step_history(p):
    # the guard is crossed at step 1, mid-chunk and on the last step of
    # the first and second chunks, and the histories end at depths below,
    # at and just past one chunk
    rng = np.random.default_rng(50 + p)
    for j in (random_regular(p, 201, rng, scale=1.0),
              random_regular_growing(p, 201, rng)):
        points = [1j, -3 + 2j, 3 - 2j] + [
            guard_crossing(j, m) for m in (1, 8, _CHUNK - 1, 2 * _CHUNK - 1)]
        for n_max in (4, _CHUNK - 1, _CHUNK, _CHUNK + 1, 200):
            for z in points:
                want = per_step_history(j, z, n_max)
                got = spectral._kernel_history(j, z, n_max)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_kernel_history_stops_within_a_chunk_of_its_end(ch, monkeypatch):
    resumed = []

    def spy(*args):
        for dk in first_kind_values(*args):
            resumed.append(dk)
            yield dk

    monkeypatch.setattr(spectral, "first_kind_values", spy)
    est = estimate_H(ch, -3 + 2j, n_max=2000)
    assert est.n_used < 2000 - _CHUNK
    assert est.n_used + 1 <= len(resumed) < est.n_used + 1 + _CHUNK


def test_trajectories_and_counts(ds):
    est = estimate_H(ds, 2j)
    assert est.converged_dirs + est.diverged_dirs + est.indecisive_dirs == 2
    assert len(est.eigen_trajectories) == 2
    for traj in est.eigen_trajectories:
        ns = [n for n, _ in traj]
        assert ns == sorted(ns)
        assert all(v > 0 for _, v in traj)


def test_deficiency_fixtures(ch, ind, ds):
    assert (deficiency_indices(ch).nu_plus,
            deficiency_indices(ch).nu_minus) == (0, 0)
    rep = deficiency_indices(ind)
    assert (rep.nu_plus, rep.nu_minus) == (1, 1) and rep.decisive
    rep = deficiency_indices(ds)
    assert (rep.nu_plus, rep.nu_minus) == (1, 1)


def test_deficiency_needs_three_per_half_plane(ch):
    with pytest.raises(InvalidInputError):
        deficiency_indices(ch, sample_points=[1j, 2j, 3j, -1j, -2j])
    with pytest.raises(InvalidInputError):
        deficiency_indices(ch, sample_points=[1j, 2j, 1.0, -1j, -2j, -3j])


def test_rank_constancy_across_samples(ch, ind, ds):
    pts = [1j, 2j, 0.5 + 1j, -2 + 1j, 3 + 2j,
           -1j, -2j, 0.5 - 1j, -2 - 1j, 3 - 2j]
    for j, expected in ((ch, 0), (ind, 1), (ds, 1)):
        rep = deficiency_indices(j, sample_points=pts)
        assert rep.decisive
        assert all(r == expected for _, r, _ in rep.samples_upper)
        assert all(r == expected for _, r, _ in rep.samples_lower)


def test_conjugate_symmetry_real_fixtures(ch, ind, ds):
    # real block entries force nu_+ = nu_-: rank at z equals rank at conj z
    for j in (ch, ind, ds):
        for z in (1j, 1 + 1j):
            up = estimate_H(j, z)
            lo = estimate_H(j, np.conj(z))
            assert up.rank == lo.rank


def test_classify_fixtures(ch, ind, ds):
    assert classify(ch).kind is Determinacy.DETERMINATE
    c = classify(ind)
    assert c.kind is Determinacy.COMPLETELY_INDETERMINATE
    assert str(c) == "CompletelyIndeterminate"
    c = classify(ds)
    assert c.kind is Determinacy.INDETERMINATE
    assert str(c) == "Indeterminate(1,1)"


def borderline_fixture(n_blocks=240):
    """Off-diagonals (k+1)^1.2: kernel sums grow too slowly to call.

    The half-to-full ratio at depth 200 lands around 1.29, inside the
    classifier's dead zone (1.125, 1.5).
    """
    from blockmoment import BlockJacobiMatrix

    def rule(k):
        return np.zeros((1, 1)), np.array([[float((k + 1) ** 1.2)]])

    diag = tuple(rule(k)[0] for k in range(n_blocks))
    off = tuple(rule(k)[1] for k in range(n_blocks - 1))
    return BlockJacobiMatrix(1, diag, off, rule)


def test_estimate_H_dead_zone_is_indecisive():
    est = estimate_H(borderline_fixture(), 1j)
    assert not est.decisive
    assert est.indecisive_dirs == 1
    assert est.converged_dirs + est.diverged_dirs < 1 + est.indecisive_dirs


def test_classify_indecisive_raises():
    j = borderline_fixture()
    rep = deficiency_indices(j)
    assert not rep.decisive
    assert rep.nu_plus is None
    with pytest.raises(ClassificationUnavailableError, match="indecisive"):
        rep.determinacy(j.p)
    with pytest.raises(ClassificationUnavailableError):
        classify(j)


def test_growth_diagnostic_refused_for_ch(ch):
    with pytest.raises(RefusedError):
        growth_diagnostic(ch, [2.0, 4.0])


def test_growth_diagnostic_empty_radii(ind):
    assert growth_diagnostic(ind, []) == []
    with pytest.raises(InvalidInputError, match="radii must be positive"):
        growth_diagnostic(ind, [0.0])


def test_growth_diagnostic_decreasing(ind):
    table = growth_diagnostic(ind, [2.0, 4.0, 8.0, 16.0])
    values = [v for _, v in table]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_quadrature_examples(ch):
    q = gauss_quadrature(ch, 1)
    assert np.allclose(q.nodes, [0.0]) and q.weights[0][0, 0] == 1.0

    q = gauss_quadrature(ch, 2)
    assert np.allclose(q.nodes, [-0.5, 0.5], atol=1e-12)
    assert np.allclose([w[0, 0].real for w in q.weights], [0.5, 0.5],
                       atol=1e-12)
    # Christoffel identity at the positive node: K_1(1/2) = 2
    k = kernel_partial(ch, 0.5, 1)
    assert q.weights[1][0, 0].real == pytest.approx(1.0 / k[0, 0].real,
                                                    abs=1e-12)


def quadrature_envelope(q, n):
    """Natural error scale for the n-th quadrature moment.

    Odd moments of symmetric fixtures vanish by cancellation of huge
    terms, so errors are measured against sum_j |lam_j|^n |W_j|.
    """
    norms = np.array([np.linalg.svd(w, compute_uv=False)[0]
                      for w in q.weights])
    return max(1.0, float((np.abs(q.nodes) ** n * norms).sum()))


def test_quadrature_moment_exactness(ch, ind, ds):
    for j in (ch, ind, ds):
        for n in (1, 3, 6):
            q = gauss_quadrature(j, n)
            sq = moments_of_measure(q, 2 * n - 1)
            sj = moments_from_jacobi(j, 2 * n - 1)
            for i, (a, b) in enumerate(zip(sq.S, sj.S)):
                scale = quadrature_envelope(q, i)
                assert np.abs(a - b).max() < 1e-9 * scale


def test_quadrature_total_mass_is_identity(ds):
    q = gauss_quadrature(ds, 5)
    assert rel_err(sum(q.weights), np.eye(2)) < 1e-12


def test_quadrature_with_exactly_n_stored_blocks(ch, ds):
    # the contract needs only N stored blocks: the rule reads nothing
    # beyond the truncation
    from blockmoment import BlockJacobiMatrix
    for src in (ch, ds):
        finite = BlockJacobiMatrix(src.p, src.prefix(6).diag,
                                   src.prefix(6).offdiag)
        q = gauss_quadrature(finite, 6)
        sq = moments_of_measure(q, 11)
        for i, a in enumerate(sq.S):
            b = moments_from_jacobi(src, 11).S[i]
            assert np.abs(a - b).max() < 1e-9 * quadrature_envelope(q, i)


def seeded_blocks(p, seed, n_blocks):
    """Diagonal and off-diagonal blocks of a random regular matrix."""
    rng = np.random.default_rng(seed)
    diag = [random_hermitian(p, rng) for _ in range(n_blocks)]
    off = [random_nonsingular(p, rng) for _ in range(n_blocks - 1)]
    return diag, off


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([1, 2, 3]), n=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_quadrature_is_exact_and_reads_only_the_truncation(p, n, seed):
    diag, off = seeded_blocks(p, seed, n + 2)
    exact = BlockJacobiMatrix(p, tuple(diag[:n]), tuple(off[:n - 1]))
    ruled = BlockJacobiMatrix(p, (diag[0],), (),
                              lambda k: (diag[k], off[k]))
    q = gauss_quadrature(exact, n)
    s = moments_from_jacobi(ruled, 2 * n - 1)
    sq = moments_of_measure(q, 2 * n - 1)
    for a, b in zip(sq.S, s.S):
        assert rel_err(a, b) <= 1e-9
    q2 = gauss_quadrature(ruled, n)
    assert np.array_equal(q.nodes, q2.nodes)
    assert np.abs(q.weights - q2.weights).max() <= 1e-10


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([1, 2, 3]), n=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_quadrature_for_another_d0_is_the_congruent_rule(p, n, seed):
    # the rule of (J, D_0) keeps the nodes of the D_0 = I rule and takes
    # the weights D_0^{-1} W D_0^{-H}
    diag, off = seeded_blocks(p, seed, n + 1)
    j = BlockJacobiMatrix(p, tuple(diag), tuple(off))
    d0 = random_nonsingular(p, np.random.default_rng([seed, 1]))
    d0_inv = np.linalg.inv(d0)
    q = gauss_quadrature(j, n)
    congruent = StepMeasure(p, q.nodes,
                            d0_inv @ q.weights @ d0_inv.conj().T)
    s = moments_from_jacobi(j, 2 * n - 1, d0)
    sq = moments_of_measure(congruent, 2 * n - 1)
    for a, b in zip(sq.S, s.S):
        assert rel_err(a, b) <= 1e-9


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_refusal_follows_the_blocks_each_result_reads(p, k):
    # the only defect is a singular A_{k,k+1}: Gauss rules of up to k + 1
    # nodes and moments up to S_{2k+1} never read it
    diag, off = seeded_blocks(p, 7 * k + p, 8)
    regular = BlockJacobiMatrix(p, tuple(diag[:k + 1]), tuple(off[:k]))
    off[k] = np.zeros((p, p))
    j = BlockJacobiMatrix(p, tuple(diag), tuple(off))
    for n in range(1, k + 2):
        q, want = gauss_quadrature(j, n), gauss_quadrature(regular, n)
        assert np.array_equal(q.nodes, want.nodes)
        assert np.array_equal(q.weights, want.weights)
    for n_max in range(2 * k + 2):
        got = moments_from_jacobi(j, n_max).S
        want = moments_from_jacobi(regular, n_max).S
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    for call in (lambda: gauss_quadrature(j, k + 2),
                 lambda: moments_from_jacobi(j, 2 * k + 2)):
        with pytest.raises(InvalidInputError,
                           match=f"block {k} singular-offdiag"):
            call()
