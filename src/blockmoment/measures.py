"""Step measures: the package's concrete class of moment-problem solutions.

Only finite step measures are represented: real nodes with Hermitian
positive semidefinite p x p weights, checked once, as a stack, when the
measure is made.  Quadrature rules, extension spectra with residues, and
smoothed inversions all land in this class; a general solution with
infinitely many points of increase is approximated by its finite sections,
never represented exactly.

The normalized form has sorted nodes, each run of nodes within
1e-12 * max(1, largest |node|) of the next merged into the run's first, and
follows the convention T(-inf) = 0, T(lam - 0) = T(lam): the cumulative
evaluator sums weights at nodes strictly below lam.
"""

from dataclasses import dataclass

import numpy as np

from . import matkernel as mk
from .errors import InvalidInputError, InvalidMeasureError, PoleError
from .jacobi import _freeze, block_stack


@dataclass(frozen=True, eq=False)
class StepMeasure:
    """Finite step measure: real nodes with Hermitian PSD weights.

    Refuses, naming its index, a weight that is not Hermitian
    (InvalidInputError) or has an eigenvalue below -mk.PSD_TOL (1 + ||W||)
    (InvalidMeasureError).  ``==`` is identity.
    """

    p: int
    nodes: np.ndarray       # (m,), finite float
    weights: np.ndarray     # (m, p, p), complex, see jacobi.block_stack

    def __post_init__(self):
        nodes = mk._read_points(self.nodes, "nodes", float, one=False).copy()
        weights = block_stack(self.weights, self.p, "weights")
        if nodes.ndim != 1:
            raise InvalidInputError("nodes must be a finite 1-d array, got "
                                    f"shape {nodes.shape}")
        if len(weights) != nodes.size:
            raise InvalidInputError(
                f"{nodes.size} nodes but {len(weights)} weights")
        defect, bad = mk.hermitian_defects(weights)
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidInputError(
                f"weight {i} is not Hermitian (defect {defect[i]:.3e})")
        w = np.linalg.eigvalsh(mk.hermitian_part(weights))
        bad = w[:, 0] < -mk.PSD_TOL * (1.0 + np.abs(w).max(axis=1))
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidMeasureError(
                f"weight {i} has negative eigenvalue {w[i, 0]:.3e}")
        object.__setattr__(self, "nodes", _freeze(nodes))
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)


def normalize(t: StepMeasure) -> StepMeasure:
    """Sort nodes, merge runs of close nodes, drop exactly zero weights.

    After a stable sort a run starts wherever the gap to the previous node
    exceeds 1e-12 * max(1, largest |node|); a run is one node, its first,
    with the sum of its weights.
    """
    if t.n_nodes == 0:
        return t
    order = np.argsort(t.nodes, kind="stable")
    nodes = t.nodes[order]
    tol = 1e-12 * max(1.0, float(np.abs(nodes).max()))
    starts = np.flatnonzero(np.diff(nodes, prepend=-np.inf) > tol)
    weights = np.add.reduceat(t.weights[order], starts)
    keep = weights.any(axis=(1, 2))
    return StepMeasure(t.p, nodes[starts][keep], weights[keep])


def cumulative(t: StepMeasure, lam: float) -> np.ndarray:
    """T(lam): sum of weights at nodes strictly below lam (left continuous)."""
    lam = mk._read_points(lam, "lam", float)
    return t.weights[t.nodes < lam].sum(axis=0)


def stieltjes_transform(t: StepMeasure, z: complex) -> np.ndarray:
    """m(z) = sum_j W_j / (lam_j - z); pole error within 1e-14 of a node."""
    z = mk._read_points(z, "z")
    d = t.nodes - z
    if t.n_nodes and np.abs(d).min() < 1e-14:
        j = int(np.abs(d).argmin())
        raise PoleError(f"evaluation point {z} coincides with node "
                        f"{t.nodes[j]}")
    return (t.weights / d[:, None, None]).sum(axis=0)
