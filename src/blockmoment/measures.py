"""Step measures: the package's concrete class of moment-problem solutions.

Only finite step measures are represented: a sorted list of real nodes with
Hermitian positive semidefinite p x p weights.  Quadrature rules, extension
spectra with residues, and smoothed inversions all land in this class; a
general solution with infinitely many points of increase is approximated by
its finite sections, never represented exactly.

The normalized form follows the convention T(-inf) = 0, T(lam - 0) = T(lam):
the cumulative evaluator sums weights at nodes strictly below lam.
"""

from dataclasses import dataclass

import numpy as np

from . import matkernel as mk
from .errors import InvalidInputError, InvalidMeasureError, PoleError
from .jacobi import _freeze, block_stack


@dataclass(frozen=True)
class StepMeasure:
    """Finite step measure: real nodes with Hermitian PSD weights."""

    p: int
    nodes: np.ndarray       # (m,), float
    weights: np.ndarray     # (m, p, p), complex, see jacobi.block_stack

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float).reshape(-1)
        weights = block_stack(self.weights, self.p, "weights")
        if len(weights) != nodes.size:
            raise InvalidInputError(
                f"{nodes.size} nodes but {len(weights)} weights")
        if not np.isfinite(nodes).all():
            raise InvalidInputError("nodes must be finite")
        object.__setattr__(self, "nodes", _freeze(nodes))
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)


def normalize(t: StepMeasure) -> StepMeasure:
    """Sort nodes, merge duplicates, drop zero weights, validate PSD.

    Nodes within 1e-12 * max(1, largest |node|) of each other are merged
    by weight addition, and exactly zero weights are dropped.  A weight
    with an eigenvalue below -mk.PSD_TOL * (1 + |W|) is rejected.
    """
    if t.n_nodes == 0:
        return t
    for i in range(t.n_nodes):
        w = t.weights[i]
        mk.require_hermitian(w, what=f"weight {i}")
        lo = mk.min_eigenvalue(w)
        if lo < -mk.PSD_TOL * (1.0 + mk.spectral_norm(w)):
            raise InvalidMeasureError(
                f"weight {i} has negative eigenvalue {lo:.3e}")
    order = np.argsort(t.nodes, kind="stable")
    nodes = t.nodes[order]
    weights = t.weights[order]
    tol = 1e-12 * max(1.0, float(np.abs(nodes).max()))
    out_nodes: list[float] = []
    out_weights: list[np.ndarray] = []
    for lam, w in zip(nodes, weights):
        if out_nodes and lam - out_nodes[-1] <= tol:
            out_weights[-1] = out_weights[-1] + w
        else:
            out_nodes.append(float(lam))
            out_weights.append(np.array(w))
    keep = [i for i, w in enumerate(out_weights)
            if mk.spectral_norm(w) > 0.0]
    return StepMeasure(t.p, [out_nodes[i] for i in keep],
                       [out_weights[i] for i in keep])


def cumulative(t: StepMeasure, lam: float) -> np.ndarray:
    """T(lam): sum of weights at nodes strictly below lam (left continuous)."""
    mk._require_finite(lam, "lam")
    out = np.zeros((t.p, t.p), dtype=complex)
    if t.n_nodes == 0:
        return out
    mask = t.nodes < lam
    if mask.any():
        out += t.weights[mask].sum(axis=0)
    return out


def stieltjes_transform(t: StepMeasure, z: complex) -> np.ndarray:
    """m(z) = sum_j W_j / (lam_j - z); pole error within 1e-14 of a node."""
    z = mk._require_finite(complex(z), "z")
    if t.n_nodes == 0:
        return np.zeros((t.p, t.p), dtype=complex)
    d = t.nodes - z
    if np.abs(d).min() < 1e-14:
        j = int(np.abs(d).argmin())
        raise PoleError(f"evaluation point {z} coincides with node "
                        f"{t.nodes[j]}")
    return (t.weights / d[:, None, None]).sum(axis=0)
