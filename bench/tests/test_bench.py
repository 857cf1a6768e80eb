"""Tests of the benchmark's own code.

    python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import blockmoment as bm                                  # noqa: E402
import fixtures as fx                                     # noqa: E402
import reference as ref                                   # noqa: E402
import spans                                              # noqa: E402
import workloads as wl                                    # noqa: E402


# -- self-time arithmetic ----------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # bench [0, 10] > nevanlinna.quartet [1, 7] > numpy.linalg.inv [2, 3]
    #                                           > jacobi.prefix [4, 6]
    #                                             > matkernel.x [4.5, 5]
    #              > spectral.classify [8, 9.5]
    names = ["bench", "nevanlinna.quartet", "numpy.linalg.inv",
             "jacobi.prefix", "matkernel.x", "spectral.classify"]
    start = [0.0, 1.0, 2.0, 4.0, 4.5, 8.0]
    end = [10.0, 7.0, 3.0, 6.0, 5.0, 9.5]
    parent = [-1, 0, 1, 1, 3, 0]
    own = spans.self_times(start, end, range(6), parent, names)
    assert own == pytest.approx({
        "bench": 10 - 6 - 1.5, "nevanlinna.quartet": 6 - 1 - 2,
        "numpy.linalg.inv": 1.0, "jacobi.prefix": 2 - 0.5,
        "matkernel.x": 0.5, "spectral.classify": 1.5})
    layers = spans.layer_self_times(own)
    assert sum(layers.values()) == pytest.approx(10.0)
    assert layers["numpy"] == pytest.approx(1.0)
    assert layers["bench"] == pytest.approx(2.5)


def test_self_time_sums_repeated_names():
    names = ["bench", "polys.first_kind_values"]
    own = spans.self_times([0, 1, 3], [5, 2, 4.5], [0, 1, 1], [-1, 0, 0],
                           names)
    assert own == pytest.approx({"bench": 2.5,
                                 "polys.first_kind_values": 2.5})


def test_tracer_wraps_copies_and_restores():
    import blockmoment.nevanlinna as nev
    import blockmoment.spectral as spec
    original = spec.classify
    tracer = spans.Tracer()
    tracer.install(bm)
    try:
        assert bm.classify is nev.classify is spec.classify
        assert bm.classify is not original
        bm.classify(bm.ch_fixture())
    finally:
        tracer.uninstall()
    assert bm.classify is nev.classify is spec.classify is original
    assert tracer.calls["spectral.classify"] == 1
    assert tracer.calls["spectral.estimate_H"] == 8
    # one span per resumption of the first_kind_values generator, each a
    # child of estimate_H (the private _kernel_history in between is not
    # wrapped, so its time lands in estimate_H)
    start, end, name, parent, _ = tracer.arrays()
    fkv = tracer.names.index("polys.first_kind_values")
    est = tracer.names.index("spectral.estimate_H")
    resumed = name == fkv
    assert np.count_nonzero(resumed) > 8 * 100
    assert (name[parent[resumed]] == est).all()
    assert (end >= start).all()
    own = tracer.self_times()
    assert all(v >= 0 for v in own.values())


# -- references against the library ----------------------------------------

@pytest.fixture(scope="module")
def fixtures_():
    a2, x2 = fx.ci_fixture_blocks(7)
    return {"ind": (fx.ind_blocks(), bm.ind_fixture(420)),
            "p2": ((a2, x2), wl.ci_matrix(a2, x2))}


@pytest.mark.parametrize("key", ["ind", "p2"])
def test_reference_recurrence_matches_library_at_short_depth(fixtures_, key):
    (a, x), j = fixtures_[key]
    cls = bm.classify(j)
    assert cls.kind is bm.Determinacy.COMPLETELY_INDETERMINATE
    zs = np.array([1j, 3 + 0.5j, -2 + 4j])
    ours = ref.quartet_partial(a, x, zs, 60)
    for z, q in zip(zs, ours):
        lib = bm.quartet(j, z, n_max=60, series_tol=0.0, determinacy=cls)
        assert lib.n_used == 60
        got = np.stack([lib.f1, lib.f2, lib.g1, lib.g2])
        assert wl.rel_err(got, q) < 1e-12


def test_reference_error_estimate_covers_a_deeper_reference(fixtures_):
    (a, x), _ = fixtures_["p2"]
    zs = np.array([1j, 5 + 1j, 12j])
    shallow, first_order = ref.quartets(a, x, zs, n_base=125)
    err = ref.rel_gap(shallow, first_order)
    deep, _ = ref.quartets(a, x, zs, n_base=1000)
    assert (ref.rel_gap(shallow, deep) <= err).all()
    assert err.max() < 1e-3


def test_reference_roots_of_ind():
    roots, errs = ref.extension_roots(np.zeros((1, 1)), np.eye(1),
                                      [np.eye(1)], -5.0, 5.0, step=0.01,
                                      n_base=250)
    # U = I: G1(0) = 0, so 0 is a root; the others are symmetric
    r = roots[0]
    assert r.size == 3
    assert abs(r[1]) < 1e-9
    assert r[0] == pytest.approx(-r[2], abs=1e-6)
    assert abs(r[2] - 2.9824) < 1e-3
    assert errs[0].max() < 1e-3


def test_moment_oracle_matches_library():
    diag, off = fx.bounded_blocks(fx.rng(3, fx.S_FINITE), 2, 12)
    j = bm.BlockJacobiMatrix(2, tuple(diag), tuple(off))
    ours = wl.moment_oracle(diag, off, 10)
    for m in range(11):
        assert wl.rel_err(ours[m], bm.moments_oracle(j, m)) < 1e-13


# -- seeds -------------------------------------------------------------------

def test_seed_changes_inputs_and_repeats_them():
    a1, x1 = fx.ci_fixture_blocks(1)
    a1b, x1b = fx.ci_fixture_blocks(1)
    a2, x2 = fx.ci_fixture_blocks(2)
    assert np.array_equal(a1, a1b) and np.array_equal(x1, x1b)
    assert not np.allclose(a1, a2)
    runs = {}
    for seed in (1, 1, 2):
        w = wl.Finite(seed, ROOT)
        w.setup()
        runs.setdefault(seed, []).append(
            np.concatenate([np.ravel(c.diag[:3]) for c in w.cases]))
    assert np.array_equal(*runs[1])
    assert not np.allclose(runs[1][0], runs[2][0])


def test_one_root_interval_holds_exactly_one_root():
    r = np.random.default_rng(0)
    roots = np.array([-8.0, -3.0, -2.5, 1.0, 6.0])
    for _ in range(50):
        lo, hi = wl.one_root_interval(r, roots)
        inside = roots[(roots > lo) & (roots < hi)]
        assert inside.size == 1
        assert min(abs(roots - lo).min(), abs(roots - hi).min()) > 0.1
    assert wl.one_root_interval(r, np.array([0.0])) is not None
    assert wl.one_root_interval(r, np.linspace(-10, 10, 60)) is None
    assert [c[0] for c in wl.isolated_roots(roots)] == [-8.0, 1.0, 6.0]
