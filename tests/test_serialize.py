import numpy as np
import pytest

from blockmoment import MatrixPoly, MomentSequence, generate_first_kind
from blockmoment.errors import InvalidInputError
from blockmoment.serialize import (block_from_doc, block_to_doc, dumps,
                                   jacobi_from_doc, loads, moments_from_doc,
                                   moments_to_doc, poly_from_doc, poly_to_doc)

from conftest import random_regular


def test_block_round_trip_bit_exact(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    doc = block_to_doc(m)
    again = block_from_doc(loads(dumps(doc)))
    assert np.array_equal(m, again)


def test_poly_doc_round_trip(ch):
    basis = generate_first_kind(ch, 4)
    for p in basis.polys:
        text = dumps(poly_to_doc(p))
        q = poly_from_doc(loads(text))
        assert np.array_equal(p.coeffs, q.coeffs)
        assert dumps(poly_to_doc(q)) == text


def test_moments_doc_round_trip(rng):
    from blockmoment import moments_from_jacobi
    s = moments_from_jacobi(random_regular(2, 8, rng), 6)
    text = dumps(moments_to_doc(s))
    s2 = moments_from_doc(loads(text))
    for a, b in zip(s.S, s2.S):
        assert np.array_equal(a, b)
    assert dumps(moments_to_doc(s2)) == text


def test_doc_validation_errors():
    with pytest.raises(InvalidInputError):
        block_from_doc([[1.0, 2.0]])
    with pytest.raises(InvalidInputError):
        poly_from_doc({"p": 1})
    with pytest.raises(InvalidInputError):
        moments_from_doc({"p": 0, "S": []})
    with pytest.raises(InvalidInputError):
        loads("{not json")
    for n_blocks in (True, 1.0, "1", 0):
        with pytest.raises(InvalidInputError, match="n_blocks"):
            jacobi_from_doc({"p": 1, "n_blocks": n_blocks,
                             "diag": [[[[0.0, 0.0]]]], "offdiag": []})


def test_zero_poly_doc():
    doc = poly_to_doc(MatrixPoly.zero(2))
    q = poly_from_doc(doc)
    assert q.degree == -1


def test_moments_doc_needs_s0():
    with pytest.raises(InvalidInputError):
        moments_from_doc({"p": 1, "S": []})


def test_hermitian_enforced_on_load():
    with pytest.raises(InvalidInputError):
        MomentSequence(1, (np.array([[1.0 + 1.0j]]),))
