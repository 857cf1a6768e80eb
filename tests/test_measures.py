import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmoment import (MatrixPoly, StepMeasure, cumulative, gauss_quadrature,
                         normalize, stieltjes_transform)
from blockmoment import matkernel as mk
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
    # the weight is refused where the measure is made, before normalize
    with pytest.raises(InvalidMeasureError):
        normalize(StepMeasure(1, np.array([0.0]), np.array([[[-1.0]]])))


def test_construction_checks_every_weight():
    good = np.eye(2)
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    neg = np.diag([1.0, -1e-3])
    with pytest.raises(InvalidInputError, match="weight 1 is not Hermitian"):
        StepMeasure(2, [0.0, 1.0, 2.0], [good, skew, neg])
    with pytest.raises(InvalidMeasureError,
                       match="weight 2 has negative eigenvalue"):
        StepMeasure(2, [0.0, 1.0, 2.0], [good, good, neg])
    # negative only within PSD_TOL * (1 + ||W||): accepted as it is
    tiny = np.diag([1.0, -mk.PSD_TOL])
    t = StepMeasure(2, [0.0, 1.0], [good, tiny])
    assert np.array_equal(t.weights[1], tiny)


def _normalize_reference(nodes, weights):
    """The documented rule, one node at a time: sort stably, merge a node
    into the previous run when it is within tol of the previous node, keep
    the run's first node, drop exactly zero sums."""
    tol = 1e-12 * max(1.0, max(abs(x) for x in nodes))
    runs = []
    for x, w in sorted(zip(nodes, weights), key=lambda xw: xw[0]):
        if runs and x - runs[-1][2] <= tol:
            runs[-1][1] = runs[-1][1] + w
            runs[-1][2] = x
        else:
            runs.append([x, w, x])
    return [(x, w) for x, w, _ in runs if np.any(w != 0)]


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([1, 2]), data=st.data())
def test_normalize_matches_the_run_merge_rule(p, data):
    # nodes are a few bases plus multiples of 4e-13: exact duplicates, runs
    # within tol and chains whose ends are farther apart than tol
    size = data.draw(st.integers(1, 10))
    nodes = [b + 4e-13 * k for b, k in data.draw(st.lists(
        st.tuples(st.sampled_from([-1.5, 0.0, 0.25, 2.0]),
                  st.integers(0, 8)), min_size=size, max_size=size))]
    # integer entries keep every sum exact, whatever its order
    ints = st.integers(-2, 2)
    weights = []
    for _ in nodes:
        g = np.array(data.draw(st.lists(ints, min_size=2 * p * p,
                                        max_size=2 * p * p)), dtype=float)
        g = (g[:p * p] + 1j * g[p * p:]).reshape(p, p)
        weights.append(g @ g.conj().T)
    out = normalize(StepMeasure(p, nodes, weights))
    ref = _normalize_reference(nodes, weights)
    assert out.nodes.tolist() == [x for x, _ in ref]
    assert np.array_equal(out.weights.reshape(-1, p, p),
                          np.array([w for _, w in ref]).reshape(-1, p, p))
    tol = 1e-12 * max(1.0, np.abs(nodes).max())
    assert (np.diff(out.nodes) > tol).all()


def test_eq_is_identity_and_hash_works():
    for make in (lambda: MatrixPoly(1, np.ones((2, 1, 1))),
                 lambda: StepMeasure(1, [0.0], [[[1.0]]])):
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2


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
    # nodes are one-dimensional: nested or scalar nodes are not flattened
    for nodes, m in (([[0.5], [-0.5]], 2), (3.0, 1)):
        with pytest.raises(InvalidInputError, match="finite 1-d"):
            StepMeasure(1, nodes, np.ones((m, 1, 1)))
