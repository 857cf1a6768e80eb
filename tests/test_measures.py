import numpy as np
import pytest

from blockmoment import (StepMeasure, cumulative, gauss_quadrature, normalize,
                         stieltjes_transform)
from blockmoment.errors import (InvalidInputError, InvalidMeasureError,
                                PoleError)
from blockmoment.serialize import dumps, measure_from_doc, measure_to_doc, loads


def test_normalize_sorts():
    t = StepMeasure(1, np.array([1.0, -1.0]),
                    np.array([[[2.0]], [[1.0]]]))
    out = normalize(t)
    assert np.allclose(out.nodes, [-1.0, 1.0])
    assert out.weights[0][0, 0] == pytest.approx(1.0)


def test_normalize_merges_duplicates():
    t = StepMeasure(2, np.array([0.5, 0.5]),
                    np.array([np.eye(2), np.eye(2)]))
    out = normalize(t)
    assert out.n_nodes == 1
    assert np.allclose(out.weights[0], 2 * np.eye(2))


def test_normalize_drops_zero_weights_and_is_idempotent():
    t = StepMeasure(1, np.array([0.0, 1.0]),
                    np.array([[[0.0]], [[1.0]]]))
    out = normalize(t)
    assert out.n_nodes == 1 and out.nodes[0] == 1.0
    again = normalize(out)
    assert np.allclose(again.nodes, out.nodes)
    assert np.allclose(again.weights, out.weights)


def test_normalize_rejects_negative_weight():
    t = StepMeasure(1, np.array([0.0]), np.array([[[-1.0]]]))
    with pytest.raises(InvalidMeasureError):
        normalize(t)


def test_cumulative_left_continuity(ch):
    q = gauss_quadrature(ch, 2)  # nodes -1/2, 1/2, weights 1/2
    assert np.abs(cumulative(q, -2.0)).max() == 0
    # left continuity: the node at 1/2 itself is excluded
    assert cumulative(q, 0.5)[0, 0] == pytest.approx(0.5)
    assert cumulative(q, 10.0)[0, 0] == pytest.approx(1.0)
    assert np.allclose(cumulative(q, 10.0), q.weights.sum(axis=0))


def test_stieltjes_examples():
    t = StepMeasure(2, np.array([0.0]), np.eye(2)[None])
    z = 0.3 + 1.7j
    assert np.allclose(stieltjes_transform(t, z), -np.eye(2) / z)

    t = StepMeasure(1, np.array([-1.0, 1.0]), np.array([[[0.5]], [[0.5]]]))
    assert stieltjes_transform(t, 1j)[0, 0] == pytest.approx(0.5j)


def test_stieltjes_pole_error():
    t = StepMeasure(1, np.array([1.0]), np.array([[[1.0]]]))
    with pytest.raises(PoleError):
        stieltjes_transform(t, 1.0)


def test_stieltjes_conjugate_symmetry(rng):
    nodes = np.sort(rng.standard_normal(4))
    weights = []
    for _ in nodes:
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        weights.append(g @ g.conj().T)
    t = StepMeasure(2, nodes, np.array(weights))
    for _ in range(5):
        z = complex(rng.standard_normal(), 1 + rng.random())
        lhs = stieltjes_transform(t, np.conj(z))
        rhs = stieltjes_transform(t, z).conj().T
        assert np.abs(lhs - rhs).max() < 1e-12 * (1 + np.abs(rhs).max())


def test_herglotz_sign_of_step_transform(rng):
    nodes = np.sort(rng.standard_normal(3))
    weights = np.array([[[0.2]], [[0.5]], [[0.1]]])
    t = StepMeasure(1, nodes, weights)
    for _ in range(10):
        z = complex(rng.standard_normal(), rng.standard_normal())
        if z.imag == 0:
            continue
        m = stieltjes_transform(t, z)[0, 0]
        assert np.sign(m.imag) == np.sign(z.imag)


def test_measure_doc_round_trip(rng):
    nodes = np.sort(rng.standard_normal(3))
    weights = np.array([np.eye(2) * (i + 1) for i in range(3)], dtype=complex)
    t = StepMeasure(2, nodes, weights)
    text = dumps(measure_to_doc(t))
    t2 = measure_from_doc(loads(text))
    assert np.array_equal(t.nodes, t2.nodes)
    assert np.array_equal(t.weights, t2.weights)
    assert dumps(measure_to_doc(t2)) == text


def test_measure_validation():
    with pytest.raises(InvalidInputError):
        StepMeasure(1, np.array([0.0]), np.zeros((2, 1, 1)))
    with pytest.raises(InvalidInputError):
        StepMeasure(1, np.array([np.inf]), np.ones((1, 1, 1)))
