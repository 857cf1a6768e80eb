"""Kernel sums, deficiency indices, determinacy, and block quadrature.

The kernel partial sum K_n(z) = sum_{k<=n} D_k(z)^H D_k(z) either converges
(in some eigen-directions) or grows without bound as n increases.  The limit
of K_n(z)^{-1} restricted to convergent directions is the matrix H(z); its
rank is constant on each open half-plane and the two ranks are the
deficiency indices (nu_+, nu_-) of the underlying operator.  nu = 0 on
either side means the associated moment problem is determinate;
nu_+ = nu_- = p is the completely indeterminate case.

Any finite procedure for a true limit needs declared heuristics; the
divergence classifier below states its thresholds in the report rather than
hiding them, and cross-checks rank constancy over several sample points per
half-plane instead of assuming it.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import matkernel as mk
from .errors import (ClassificationUnavailableError, HalfPlaneError,
                     InvalidInputError, RefusedError)
from .jacobi import BlockJacobiMatrix, truncate
from .measures import StepMeasure, normalize
from .polys import _available_terms, _series, first_kind_values

KERNEL_N_MAX = 200
GROWTH_FACTOR = 1.5
VALUE_CAP = 1e12
NODE_MERGE_FACTOR = 1e-9
OVERFLOW_GUARD = 1e120

# spread across each open half-plane so rank constancy is exercised, not
# assumed
DEFAULT_SAMPLE_POINTS = (1j, 2j, 1 + 1j, -3 + 2j,
                         -1j, -2j, -1 - 1j, 3 - 2j)


@dataclass(frozen=True)
class KernelSummary:
    """Per-direction divergence classification of K_n(z).

    Directions are the eigenvectors of the last partial sum, ordered by
    ascending eigenvalue.  ``eigen_trajectories[i]`` samples the quadratic
    form of direction i at a few checkpoint depths.  When ``decisive`` is
    False some directions fell in the classifier's dead zone and
    ``converged_dirs + diverged_dirs < p``.
    """

    z: complex
    n_used: int
    kernel: np.ndarray
    eigen_trajectories: tuple
    converged_dirs: int
    diverged_dirs: int
    indecisive_dirs: int
    decisive: bool
    h_matrix: np.ndarray
    rank: int


@dataclass(frozen=True)
class DeficiencyReport:
    """Sampled ranks per half-plane; indices only when all samples agree."""

    nu_plus: int | None
    nu_minus: int | None
    samples_upper: tuple   # (z, rank, decisive) triples
    samples_lower: tuple
    decisive: bool

    def determinacy(self, p: int) -> "DeterminacyClass":
        """Class of the report for block dimension ``p``.

        An indecisive report has no class: ClassificationUnavailableError.
        """
        if not self.decisive:
            raise ClassificationUnavailableError(
                "deficiency sampling was indecisive: "
                f"upper={[(str(z), r, d) for z, r, d in self.samples_upper]} "
                f"lower={[(str(z), r, d) for z, r, d in self.samples_lower]}")
        nu_p, nu_m = self.nu_plus, self.nu_minus
        if nu_p == 0 or nu_m == 0:
            kind = Determinacy.DETERMINATE
        elif nu_p == p and nu_m == p:
            kind = Determinacy.COMPLETELY_INDETERMINATE
        else:
            kind = Determinacy.INDETERMINATE
        return DeterminacyClass(kind=kind, nu_plus=nu_p, nu_minus=nu_m)


class Determinacy(str, Enum):
    DETERMINATE = "Determinate"
    INDETERMINATE = "Indeterminate"
    COMPLETELY_INDETERMINATE = "CompletelyIndeterminate"


@dataclass(frozen=True)
class DeterminacyClass:
    kind: Determinacy
    nu_plus: int
    nu_minus: int

    def __str__(self) -> str:
        if self.kind is Determinacy.INDETERMINATE:
            return f"Indeterminate({self.nu_plus},{self.nu_minus})"
        return self.kind.value


def kernel_partial(j: BlockJacobiMatrix, z: complex, n: int) -> np.ndarray:
    """K_n(z) = sum_{k=0}^{n} eval(star(D_k), conj z) @ eval(D_k, z).

    Hermitian PSD and >= I (the k = 0 term, D_0 = I) in the Loewner order;
    real z is allowed (needed for jump bounds).
    """
    mk._require_finite(z, "z")
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    return _kernel_sum(j, z, n, 0.0)


def _kernel_sum(j, z, n_max, series_tol):
    """K_n(z) summed until the shared series stop rule fires or n = n_max.

    Both sides of each term are D_k(z); a ``series_tol`` of 0 never fires,
    since increments are nonnegative.
    """
    k, _, _, _ = _series(j, [z, z], [False, False], 1, 1.0, n_max,
                         series_tol)
    return mk.hermitian_part(k)


def _kernel_history(j, z, n_max):
    """Partial sums K_0..K_m at a point, stopping early near overflow."""
    values = []
    for dk in first_kind_values(j, [complex(z)], n_max):
        values.append(dk[0])
        if np.abs(dk).max() > OVERFLOW_GUARD:
            break
    d = np.array(values)
    return np.cumsum(np.conj(np.swapaxes(d, 1, 2)) @ d, axis=0)


def estimate_H(j: BlockJacobiMatrix, z: complex,
               n_max: int = KERNEL_N_MAX) -> KernelSummary:
    """Classify eigen-directions of K_n(z) and estimate H(z).

    A direction with final quadratic-form value v and half-depth value h is

    * diverged   when v >= VALUE_CAP or v/h >= GROWTH_FACTOR,
    * converged  when v < VALUE_CAP and v/h <= 1 + (GROWTH_FACTOR - 1)/4,
    * indecisive otherwise (dead zone; reported, never silently resolved).

    H(z) is the inverse of the final partial sum restricted to convergent
    directions and zero on the others; the rank r(z) is the number of
    convergent directions.
    """
    z = mk._require_finite(complex(z), "z")
    if z.imag == 0:
        raise HalfPlaneError("estimate_H needs Im z != 0")
    if n_max < 4:
        raise InvalidInputError("n_max must be >= 4")
    history = _kernel_history(j, z, n_max)
    n_eff = len(history) - 1
    k_last = mk.hermitian_part(history[-1])
    k_half = mk.hermitian_part(history[n_eff // 2])
    w, v = np.linalg.eigh(k_last)
    low_band = 1.0 + (GROWTH_FACTOR - 1.0) / 4.0
    checkpoints = sorted({max(0, n_eff // 8), max(0, n_eff // 4),
                          n_eff // 2, n_eff})
    conv, div, dead = [], [], []
    trajectories = []
    for i in range(j.p):
        vec = v[:, i]
        value = float(w[i])
        half = float(np.real(vec.conj() @ k_half @ vec))
        ratio = value / half if half > 0 else np.inf
        trajectories.append(tuple(
            (m, float(np.real(vec.conj() @ history[m] @ vec)))
            for m in checkpoints))
        if value >= VALUE_CAP or ratio >= GROWTH_FACTOR:
            div.append(i)
        elif ratio <= low_band:
            conv.append(i)
        else:
            dead.append(i)
    h = np.zeros((j.p, j.p), dtype=complex)
    for i in conv:
        vec = v[:, i:i + 1]
        h += (vec / w[i]) @ vec.conj().T
    return KernelSummary(z=z, n_used=n_eff, kernel=k_last,
                         eigen_trajectories=tuple(trajectories),
                         converged_dirs=len(conv), diverged_dirs=len(div),
                         indecisive_dirs=len(dead), decisive=(not dead),
                         h_matrix=mk.hermitian_part(h), rank=len(conv))


def deficiency_indices(j: BlockJacobiMatrix, n_max: int = KERNEL_N_MAX,
                       sample_points=None) -> DeficiencyReport:
    """Estimate (nu_+, nu_-) from kernel ranks over half-plane samples.

    Decisive only when every sample is decisive and the ranks within each
    half-plane agree, honoring rank constancy as a cross-check rather than
    an assumption.  Needs at least 3 points in each open half-plane.
    """
    points = tuple(DEFAULT_SAMPLE_POINTS if sample_points is None
                   else (complex(z) for z in sample_points))
    mk._require_finite(points, "sample point")
    upper = [z for z in points if z.imag > 0]
    lower = [z for z in points if z.imag < 0]
    if any(z.imag == 0 for z in points):
        raise InvalidInputError("sample points must avoid the real axis")
    if len(upper) < 3 or len(lower) < 3:
        raise InvalidInputError(
            "need at least 3 sample points in each open half-plane")

    def scan(zs):
        samples = []
        for z in zs:
            est = estimate_H(j, z, n_max=n_max)
            samples.append((z, est.rank, est.decisive))
        ranks = {r for _, r, _ in samples}
        ok = all(d for _, _, d in samples) and len(ranks) == 1
        return tuple(samples), (ranks.pop() if ok else None)

    samples_up, nu_plus = scan(upper)
    samples_lo, nu_minus = scan(lower)
    decisive = nu_plus is not None and nu_minus is not None
    return DeficiencyReport(nu_plus=nu_plus, nu_minus=nu_minus,
                            samples_upper=samples_up,
                            samples_lower=samples_lo, decisive=decisive)


def classify(j: BlockJacobiMatrix, n_max: int = KERNEL_N_MAX,
             sample_points=None) -> DeterminacyClass:
    """Map decisive deficiency indices to a determinacy class."""
    return deficiency_indices(j, n_max=n_max,
                              sample_points=sample_points).determinacy(j.p)


def _ensure_completely_indeterminate(j, determinacy=None):
    """The class of ``j`` (``determinacy`` when given), refused unless it is
    completely indeterminate."""
    cls = classify(j) if determinacy is None else determinacy
    if not isinstance(cls, DeterminacyClass):
        raise InvalidInputError("determinacy must be a DeterminacyClass")
    if cls.kind is not Determinacy.COMPLETELY_INDETERMINATE:
        raise RefusedError(
            f"operation needs a completely indeterminate problem, got {cls}")
    return cls


DEFAULT_GROWTH_DIRECTIONS = (1.0 + 0j,
                             np.exp(1j * np.pi / 4),
                             1j,
                             np.exp(3j * np.pi / 4))


def growth_diagnostic(j: BlockJacobiMatrix, radii, n_max: int = 400,
                      series_tol: float = 1e-12) -> list:
    """Table of (r, max over directions d of log |K(r d)| / r).

    The directions d are DEFAULT_GROWTH_DIRECTIONS.  Only meaningful when
    the kernel series converges everywhere, i.e. in the completely
    indeterminate case; refused otherwise.  The ratio table is reported as
    a diagnostic; no limit is asserted.
    """
    n_terms = _available_terms(j, n_max)
    _ensure_completely_indeterminate(j)
    table = []
    for r in radii:
        r = mk._require_finite(float(r), "radius")
        if r <= 0:
            raise InvalidInputError("radii must be positive")
        best = -np.inf
        for d in DEFAULT_GROWTH_DIRECTIONS:
            k = _kernel_sum(j, r * d, n_terms, series_tol)
            best = max(best, float(np.log(mk.spectral_norm(k))) / r)
        table.append((r, best))
    return table


def gauss_quadrature(j: BlockJacobiMatrix, n: int) -> StepMeasure:
    """Block Gauss rule exact on moments S_0 .. S_{2n-1}, D_0 = I.

    Reads only truncate(J, n).  Nodes are its distinct eigenvalues,
    clustered within NODE_MERGE_FACTOR * |truncation|.  With x stacking
    D_0..D_{n-1} at a node, x c is an eigenvector exactly when c is a null
    direction of the residual of the truncation's last block row,

        node D_{n-1} - A_{n-1,n-2} D_{n-2} - A_{n-1,n-1} D_{n-1}
            = A_{n-1,n} D_n(node),

    and with Y a basis of those directions the block Christoffel formula
    gives the weight

        W = Y (Y^H K_{n-1}(node) Y)^{-1} Y^H,   K_{n-1} = x^H x,

    with Y^H K_{n-1} Y formed as the Gram matrix of the eigenvectors x Y,
    so that the large directions of K_{n-1} cannot swamp it.

    Weights read off eigenvector first-block rows are mathematically the
    same but carry only absolute eigensolver accuracy: at far-out nodes
    the first-block mass is exponentially small and high moment powers
    amplify the noise past any useful tolerance, while the recurrence
    route stays relatively accurate at every scale.

    The rule for another D_0 has the same nodes and the weights
    D_0^{-1} W D_0^{-H}.
    """
    if n < 1:
        raise InvalidInputError("quadrature needs at least one block")
    p = j.p
    t = truncate(j, n)
    w = np.linalg.eigvalsh(mk.hermitian_part(t))
    tol = NODE_MERGE_FACTOR * mk.spectral_norm(t)
    nodes: list[float] = []
    sizes: list[int] = []
    start = 0
    for stop in range(1, len(w) + 1):
        if stop == len(w) or w[stop] - w[stop - 1] > tol:
            nodes.append(float(np.mean(w[start:stop])))
            sizes.append(stop - start)
            start = stop
    # x[i] stacks D_0..D_{n-1} at node i
    x = np.concatenate(list(first_kind_values(j, nodes, n - 1)), axis=1)
    resid = np.array(nodes)[:, None, None] * x[:, -p:] - t[-p:] @ x
    weights = []
    for i, size in enumerate(sizes):
        if p == 1:
            y = np.ones((1, 1), dtype=complex)
        else:
            _, _, vh = np.linalg.svd(resid[i])
            y = vh[p - min(size, p):, :].conj().T   # null directions
        v = x[i] @ y                                # eigenvectors x Y
        gram = mk.hermitian_part(v.conj().T @ v)
        weights.append(mk.hermitian_part(y @ np.linalg.inv(gram)
                                         @ y.conj().T))
    measure = StepMeasure(p, np.array(nodes),
                          np.array(weights).reshape(len(nodes), p, p))
    return normalize(measure)
