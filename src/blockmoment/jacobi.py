"""Regular block Jacobi matrices.

An infinite Hermitian matrix of p x p blocks A_{i,k} with A_{i,k} = 0 for
|i - k| > 1 is *regular* when every super-diagonal block A_{k,k+1} is
nonsingular.  Sub-diagonal blocks are implicit: A_{k+1,k} = A_{k,k+1}^H.

Infinite matrices are represented by a finite stored prefix of blocks plus
an optional generator rule producing block ``k`` on demand; every algorithm
downstream works on an explicit finite working length obtained through
:meth:`BlockJacobiMatrix.prefix`.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import matkernel as mk
from .errors import InvalidInputError, OutOfRangeError

REG_TOL = 1e-10

# generator rule: k -> (A_{k,k}, A_{k,k+1})
BlockRule = Callable[[int], tuple[np.ndarray, np.ndarray]]


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BlockJacobiMatrix:
    """Stored prefix of a regular block Jacobi matrix.

    Parameters
    ----------
    p : int
        Block dimension.
    diag : tuple of (p, p) arrays
        Diagonal blocks A_{k,k}, k = 0 .. N-1.
    offdiag : tuple of (p, p) arrays
        Super-diagonal blocks A_{k,k+1}, k = 0 .. N-2.
    generator : callable, optional
        Rule ``k -> (A_{k,k}, A_{k,k+1})`` extending the prefix on demand.
        Must be pure and reentrant.
    memo : dict
        Data derived from the blocks by other modules (the recurrence plan
        of the pointwise evaluations); it lives as long as this instance and
        is not compared.
    """

    p: int
    diag: tuple
    offdiag: tuple
    generator: BlockRule | None = field(default=None, compare=False)
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def __post_init__(self):
        if self.p < 1:
            raise InvalidInputError("block dimension must be >= 1")
        diag = tuple(_freeze(mk.as_complex_matrix(b, self.p)) for b in self.diag)
        offdiag = tuple(_freeze(mk.as_complex_matrix(b, self.p))
                        for b in self.offdiag)
        if len(diag) < 1:
            raise InvalidInputError("need at least one diagonal block")
        if len(offdiag) != len(diag) - 1:
            raise InvalidInputError(
                f"expected {len(diag) - 1} off-diagonal blocks, "
                f"got {len(offdiag)}")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)

    @property
    def n_blocks(self) -> int:
        return len(self.diag)

    def prefix(self, n: int) -> "BlockJacobiMatrix":
        """Materialize exactly ``n`` diagonal blocks (extending if needed)."""
        if n < 1:
            raise InvalidInputError("prefix length must be >= 1")
        if n <= self.n_blocks:
            return BlockJacobiMatrix(self.p, self.diag[:n],
                                     self.offdiag[:n - 1], self.generator)
        if self.generator is None:
            raise OutOfRangeError(
                f"requested {n} blocks but only {self.n_blocks} are stored "
                "and no generator rule is attached")
        diag = list(self.diag)
        offdiag = list(self.offdiag)
        for k in range(self.n_blocks - 1, n):
            dblk, oblk = self.generator(k)
            if k >= len(diag):
                diag.append(mk.as_complex_matrix(dblk, self.p))
            if k <= n - 2 and k >= len(offdiag):
                offdiag.append(mk.as_complex_matrix(oblk, self.p))
        return BlockJacobiMatrix(self.p, tuple(diag), tuple(offdiag),
                                 self.generator)


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of :func:`validate_regular`.

    ``first_violation`` is ``None`` when ``ok``, otherwise a tuple
    ``(block_index, kind, magnitude)`` with ``kind`` one of
    ``"not-hermitian"`` / ``"singular-offdiag"``; the magnitude is the
    Hermitian defect resp. the offending smallest singular value.
    """

    ok: bool
    first_violation: tuple[int, str, float] | None = None


def validate_regular(j: BlockJacobiMatrix) -> RegularityReport:
    """Check Hermitian diagonal blocks and nonsingular super-diagonals.

    Violations are reported, not raised; the first one in scan order
    (block 0 diagonal, block 0 off-diagonal, block 1 diagonal, ...) wins.
    """
    diag = np.array(j.diag).reshape(-1, j.p, j.p)
    off = np.array(j.offdiag, dtype=complex).reshape(-1, j.p, j.p)
    defect = np.abs(diag - np.conj(np.swapaxes(diag, 1, 2))).max(axis=(1, 2))
    scale = 1.0 + np.abs(diag).max(axis=(1, 2))
    s = np.linalg.svd(off, compute_uv=False)
    # entry 2k is diagonal block k, entry 2k + 1 off-diagonal block k
    bad = np.zeros(2 * j.n_blocks, dtype=bool)
    bad[0::2] = defect > mk.HERMITIAN_TOL * scale
    bad[1:2 * len(off):2] = s[:, -1] <= REG_TOL * np.maximum(1.0, s[:, 0])
    if not bad.any():
        return RegularityReport(True, None)
    k, is_off = divmod(int(np.argmax(bad)), 2)
    if is_off:
        return RegularityReport(False, (k, "singular-offdiag", float(s[k, -1])))
    return RegularityReport(False, (k, "not-hermitian", float(defect[k])))


def truncate(j: BlockJacobiMatrix, n: int) -> np.ndarray:
    """Dense Hermitian n*p x n*p section with blocks A_{i,k}, i,k < n."""
    jp = j if 1 <= n <= j.n_blocks else j.prefix(n)
    p = jp.p
    out = np.zeros((n * p, n * p), dtype=complex)
    for k in range(n):
        out[k * p:(k + 1) * p, k * p:(k + 1) * p] = jp.diag[k]
    for k in range(n - 1):
        blk = jp.offdiag[k]
        out[k * p:(k + 1) * p, (k + 1) * p:(k + 2) * p] = blk
        out[(k + 1) * p:(k + 2) * p, k * p:(k + 1) * p] = blk.conj().T
    return out


def from_scalar_band(entries, p: int) -> BlockJacobiMatrix:
    """Reblock a Hermitian banded scalar matrix of bandwidth ``p``.

    Indices are partitioned into consecutive groups of size ``p``; the
    extreme-diagonal entries a_{i,i+p} become the diagonals of the (lower
    triangular, hence nonsingular) off-diagonal blocks.

    Requires a_{i,k} = 0 for |i - k| > p, a_{i,i+p} != 0 for every stored i,
    and a scalar size that is a multiple of ``p``.
    """
    a = mk.as_complex_matrix(entries)
    n = a.shape[0]
    if p < 1:
        raise InvalidInputError("bandwidth p must be >= 1")
    if n % p != 0:
        raise InvalidInputError(
            f"scalar size {n} is not a multiple of block dimension {p}")
    mk.require_hermitian(a, what="scalar band matrix")
    for i in range(n):
        for k in range(n):
            if abs(i - k) > p and a[i, k] != 0:
                raise InvalidInputError(
                    f"entry ({i},{k}) outside bandwidth {p} is nonzero")
    for i in range(n - p):
        if a[i, i + p] == 0:
            raise InvalidInputError(
                f"extreme-diagonal entry ({i},{i + p}) is zero; "
                "matrix is not a regular reblocking candidate")
    nb = n // p
    diag = tuple(a[k * p:(k + 1) * p, k * p:(k + 1) * p] for k in range(nb))
    offdiag = tuple(a[k * p:(k + 1) * p, (k + 1) * p:(k + 2) * p]
                    for k in range(nb - 1))
    j = BlockJacobiMatrix(p, diag, offdiag)
    report = validate_regular(j)
    if not report.ok:
        k, kind, mag = report.first_violation
        raise InvalidInputError(
            f"reblocked matrix fails regularity at block {k}: {kind} "
            f"(magnitude {mag:.3e})")
    return j


# ---------------------------------------------------------------------------
# named fixtures
# ---------------------------------------------------------------------------
# CH : p=1, diag 0, offdiag 1/2.  Semicircle recurrence; Carleman's condition
#      sum 1/a_k = inf holds, so the moment problem is determinate.
# IND: p=1, diag 0, offdiag a_k = (k+1)^2.  Log-concave off-diagonals with
#      summable reciprocals; the moment problem is indeterminate.
# DS : p=2 block-diagonal interleave of CH and IND, mixing the two ranks.


def _materialize(p: int, rule: BlockRule, n_blocks: int) -> BlockJacobiMatrix:
    diag = tuple(rule(k)[0] for k in range(n_blocks))
    offdiag = tuple(rule(k)[1] for k in range(n_blocks - 1))
    return BlockJacobiMatrix(p, diag, offdiag, rule)


def ch_fixture(n_blocks: int = 36) -> BlockJacobiMatrix:
    """Determinate scalar fixture: diag 0, offdiag 1/2."""
    def rule(k):
        return np.zeros((1, 1)), np.array([[0.5]])
    return _materialize(1, rule, n_blocks)


def ind_fixture(n_blocks: int = 36) -> BlockJacobiMatrix:
    """Indeterminate scalar fixture: diag 0, offdiag (k+1)^2."""
    def rule(k):
        return np.zeros((1, 1)), np.array([[float((k + 1) ** 2)]])
    return _materialize(1, rule, n_blocks)


def ds_fixture(n_blocks: int = 36) -> BlockJacobiMatrix:
    """p=2 interleave of the CH and IND fixtures (block-diagonal blocks)."""
    def rule(k):
        return (np.zeros((2, 2)),
                np.diag([0.5, float((k + 1) ** 2)]).astype(complex))
    return _materialize(2, rule, n_blocks)


FIXTURES = {"ch": ch_fixture, "ind": ind_fixture, "ds": ds_fixture}
