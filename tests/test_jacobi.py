import numpy as np
import pytest

from blockmoment import (BlockJacobiMatrix, from_scalar_band, truncate,
                         validate_regular)
from blockmoment.errors import InvalidInputError, OutOfRangeError
from blockmoment.serialize import dumps, jacobi_from_doc, jacobi_to_doc, loads

from conftest import random_regular, random_unitary


def test_fixtures_are_regular(ch, ind, ds):
    for j in (ch, ind, ds):
        assert validate_regular(j).ok


def test_zero_offdiag_flagged():
    j = BlockJacobiMatrix(1, (np.zeros((1, 1)),) * 3,
                          (np.array([[0.5]]), np.array([[0.0]])))
    report = validate_regular(j)
    assert not report.ok
    idx, kind, mag = report.first_violation
    assert (idx, kind) == (1, "singular-offdiag")
    assert mag == pytest.approx(0.0)


def test_nonhermitian_diag_flagged():
    j = BlockJacobiMatrix(2, (np.array([[0, 1], [0, 0]]),), ())
    report = validate_regular(j)
    assert not report.ok
    assert report.first_violation[1] == "not-hermitian"


def test_first_violation_in_scan_order():
    # singular off-diagonal at block 2, non-Hermitian diagonal at block 3
    diag = [np.eye(2)] * 5
    off = [np.eye(2)] * 4
    off[2] = np.array([[1.0, 2.0], [0.5, 1.0]])
    diag[3] = np.array([[0.0, 1.0], [0.0, 0.0]])
    report = validate_regular(BlockJacobiMatrix(2, tuple(diag), tuple(off)))
    assert report.first_violation[:2] == (2, "singular-offdiag")
    # within one block the diagonal comes first
    diag[2] = diag[3]
    report = validate_regular(BlockJacobiMatrix(2, tuple(diag), tuple(off)))
    assert report.first_violation == (2, "not-hermitian", 1.0)


def test_truncate_examples(ch):
    assert np.allclose(truncate(ch, 2), [[0, 0.5], [0.5, 0]])
    assert np.allclose(truncate(ch, 1), [[0.0]])


def test_truncate_hermitian(ch, ind, ds, rng):
    for j in (ch, ind, ds, random_regular(3, 6, rng)):
        t = truncate(j, 5)
        assert np.abs(t - t.conj().T).max() < 1e-14


def test_ds_truncation_is_permuted_direct_sum(ch, ind, ds):
    n = 3
    t = truncate(ds, n)
    target = np.zeros((2 * n, 2 * n), dtype=complex)
    target[:n, :n] = truncate(ch, n)
    target[n:, n:] = truncate(ind, n)
    perm = np.zeros((2 * n, 2 * n))
    for comp in range(2):
        for k in range(n):
            perm[comp * n + k, 2 * k + comp] = 1.0
    assert np.allclose(perm @ t @ perm.T, target)


def test_from_scalar_band_p1_tridiagonal(ch):
    t = truncate(ch, 4)
    j = from_scalar_band(t, 1)
    assert np.allclose(truncate(j, 4), t)


def test_from_scalar_band_p2_pentadiagonal():
    n = 6
    a = np.zeros((n, n))
    for i in range(n - 2):
        a[i, i + 2] = a[i + 2, i] = 1.0
    j = from_scalar_band(a, 2)
    for blk in j.offdiag:
        assert np.allclose(blk, np.eye(2))
        assert abs(np.linalg.det(blk)) == pytest.approx(1.0)
    assert np.allclose(truncate(j, 3), a)  # re-flattens to the input
    assert validate_regular(j).ok


def test_from_scalar_band_zero_extreme_entry():
    n = 6
    a = np.zeros((n, n))
    for i in range(n - 2):
        a[i, i + 2] = a[i + 2, i] = 1.0
    a[1, 3] = a[3, 1] = 0.0
    with pytest.raises(InvalidInputError, match=r"\(1,3\)"):
        from_scalar_band(a, 2)


def test_from_scalar_band_band_violation():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    a[0, 3] = a[3, 0] = 0.25
    with pytest.raises(InvalidInputError, match="bandwidth"):
        from_scalar_band(a, 1)


def test_from_scalar_band_names_the_first_offender():
    a = np.diag(np.arange(1.0, 7.0))
    for i in range(4):
        a[i, i + 2] = a[i + 2, i] = 1.0
    wide = a.copy()
    wide[0, 3] = wide[3, 0] = wide[1, 5] = wide[5, 1] = 0.5
    with pytest.raises(InvalidInputError,
                       match=r"entry \(0,3\) outside bandwidth 2"):
        from_scalar_band(wide, 2)
    gaps = a.copy()
    gaps[1, 3] = gaps[3, 1] = gaps[2, 4] = gaps[4, 2] = 0.0
    with pytest.raises(InvalidInputError,
                       match=r"extreme-diagonal entry \(1,3\) is zero"):
        from_scalar_band(gaps, 2)


def test_regularity_invariant_under_block_unitaries(rng):
    p, n = 3, 5
    j = random_regular(p, n, rng)
    ws = [random_unitary(p, rng) for _ in range(n)]
    diag = tuple(ws[k] @ j.diag[k] @ ws[k].conj().T for k in range(n))
    off = tuple(ws[k] @ j.offdiag[k] @ ws[k + 1].conj().T
                for k in range(n - 1))
    jc = BlockJacobiMatrix(p, diag, off)
    assert validate_regular(jc).ok == validate_regular(j).ok


def test_prefix_extension_and_out_of_range(ch):
    tall = ch.prefix(50)
    assert tall.n_blocks == 50
    assert len(tall.offdiag) == 49
    finite = BlockJacobiMatrix(1, ch.diag[:3], ch.offdiag[:2])
    with pytest.raises(OutOfRangeError):
        finite.prefix(10)
    with pytest.raises(OutOfRangeError):
        truncate(finite, 10)


def test_json_round_trip_bit_exact(rng):
    j = random_regular(2, 4, rng)
    doc = jacobi_to_doc(j)
    text = dumps(doc)
    j2 = jacobi_from_doc(loads(text))
    for a, b in zip(j.diag + j.offdiag, j2.diag + j2.offdiag):
        assert np.array_equal(a, b)  # bit-exact doubles
    assert dumps(jacobi_to_doc(j2)) == text


def test_jacobi_doc_validation():
    with pytest.raises(InvalidInputError):
        jacobi_from_doc({"p": 1, "n_blocks": 2, "diag": [], "offdiag": []})
    with pytest.raises(InvalidInputError):
        jacobi_from_doc([1, 2, 3])
