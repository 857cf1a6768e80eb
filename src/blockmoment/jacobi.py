"""Regular block Jacobi matrices.

An infinite Hermitian matrix of p x p blocks A_{i,k} with A_{i,k} = 0 for
|i - k| > 1 is *regular* when every super-diagonal block A_{k,k+1} is
nonsingular.  Sub-diagonal blocks are implicit: A_{k+1,k} = A_{k,k+1}^H.

Infinite matrices are represented by a finite stored prefix of blocks plus
an optional generator rule producing block ``k`` on demand; every algorithm
downstream works on an explicit finite working length obtained through
:meth:`BlockJacobiMatrix.prefix`, the one caller of a generator rule.

A block sequence -- here, in moment sequences, polynomial coefficients and
measure weights -- is one read-only complex (m, p, p) array built by
:func:`block_stack`.
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
    a.setflags(write=False)
    return a


def _require_count(n, what: str, least: int = 0) -> int:
    """``n`` as an int if it is an integer >= ``least``.

    bool is refused and numpy integers are accepted; anything else raises
    InvalidInputError naming ``what``.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise InvalidInputError(f"{what} must be an integer, got {n!r}")
    if n < least:
        raise InvalidInputError(f"{what} must be >= {least}, got {n}")
    return int(n)


def block_stack(blocks, p: int, what: str = "blocks") -> np.ndarray:
    """Read-only complex (m, p, p) copy of a sequence of p x p blocks.

    An empty sequence gives shape (0, p, p).  A block dimension ``p`` that
    is not an integer >= 1, and anything that is not of shape (m, p, p) --
    ragged blocks, p = 1 scalars -- or has a non-finite entry, raises
    InvalidInputError naming ``what``.
    """
    _require_count(p, f"{what}: block dimension p", 1)
    try:
        a = np.array(blocks, dtype=complex)
    except (ValueError, TypeError) as e:
        raise InvalidInputError(f"{what}: not a stack of {p} x {p} complex "
                                f"blocks ({e})") from None
    if a.shape == (0,):
        a = a.reshape(0, p, p)
    if a.ndim != 3 or a.shape[1:] != (p, p):
        raise InvalidInputError(
            f"{what}: expected shape (m, {p}, {p}), got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{what}: non-finite entries")
    return _freeze(a)


@dataclass(frozen=True, eq=False)
class BlockJacobiMatrix:
    """Stored prefix of a regular block Jacobi matrix.

    Block sequences are read-only complex stacks (see :func:`block_stack`);
    tuples of blocks are accepted as input.  ``==`` is identity.

    Parameters
    ----------
    p : int
        Block dimension.
    diag : (N, p, p) array
        Diagonal blocks A_{k,k}, k = 0 .. N-1.
    offdiag : (N-1, p, p) array
        Super-diagonal blocks A_{k,k+1}, k = 0 .. N-2.
    generator : callable, optional
        Rule ``k -> (A_{k,k}, A_{k,k+1})`` extending the prefix on demand.
        Must be pure and reentrant.
    memo : dict
        Data derived from the blocks by other modules (the recurrence plan
        of the pointwise evaluations, the states D_k(0) and E_k(0), the
        default determinacy class); it lives as long as this instance.
    """

    p: int
    diag: np.ndarray
    offdiag: np.ndarray
    generator: BlockRule | None = None
    memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        diag = block_stack(self.diag, self.p, "diagonal blocks")
        offdiag = block_stack(self.offdiag, self.p, "off-diagonal blocks")
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
        """Materialize exactly ``n`` diagonal blocks (extending if needed).

        Extending N stored blocks calls the generator rule once for each
        index it reads, k = N-1 .. n-1: A_{k,k} for k >= N and A_{k,k+1}
        for k <= n-2.
        """
        n = _require_count(n, "prefix length", 1)
        if n <= self.n_blocks:
            return BlockJacobiMatrix(self.p, self.diag[:n],
                                     self.offdiag[:n - 1], self.generator)
        if self.generator is None:
            raise OutOfRangeError(
                f"requested {n} blocks but only {self.n_blocks} are stored "
                "and no generator rule is attached")
        rows = map(self.generator, range(self.n_blocks - 1, n))
        d, o = (block_stack(x, self.p, "generator blocks") for x in zip(*rows))
        return BlockJacobiMatrix(self.p, np.concatenate((self.diag, d[1:])),
                                 np.concatenate((self.offdiag, o[:-1])),
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
    defect, not_hermitian = mk.hermitian_defects(j.diag)
    s = np.linalg.svd(j.offdiag, compute_uv=False)
    # entry 2k is diagonal block k, entry 2k + 1 off-diagonal block k
    bad = np.zeros(2 * j.n_blocks, dtype=bool)
    bad[0::2] = not_hermitian
    bad[1:2 * len(s):2] = s[:, -1] <= REG_TOL * np.maximum(1.0, s[:, 0])
    if not bad.any():
        return RegularityReport(True, None)
    k, is_off = divmod(int(np.argmax(bad)), 2)
    if is_off:
        return RegularityReport(False, (k, "singular-offdiag", float(s[k, -1])))
    return RegularityReport(False, (k, "not-hermitian", float(defect[k])))


def truncate(j: BlockJacobiMatrix, n: int) -> np.ndarray:
    """Dense Hermitian n*p x n*p section with blocks A_{i,k}, i,k < n."""
    n = _require_count(n, "n", 1)
    jp = j if n <= j.n_blocks else j.prefix(n)
    p = jp.p
    off = jp.offdiag[:n - 1]
    k = np.arange(n)
    out = np.zeros((n, p, n, p), dtype=complex)  # out[i, :, k, :] = A_{i,k}
    out[k, :, k, :] = jp.diag[:n]
    out[k[:-1], :, k[1:], :] = off
    out[k[1:], :, k[:-1], :] = np.conj(np.swapaxes(off, 1, 2))
    return out.reshape(n * p, n * p)


def from_scalar_band(entries, p: int) -> BlockJacobiMatrix:
    """Reblock a Hermitian banded scalar matrix of bandwidth ``p``.

    Indices are partitioned into consecutive groups of size ``p``; the
    extreme-diagonal entries a_{i,i+p} become the diagonals of the (lower
    triangular, hence nonsingular) off-diagonal blocks.

    Requires a_{i,k} = 0 for |i - k| > p, a_{i,i+p} != 0 for every stored i,
    and a scalar size that is a multiple of ``p``.
    """
    p = _require_count(p, "bandwidth p", 1)
    a = mk.as_complex_matrix(entries)
    n = a.shape[0]
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
    blocks = a.reshape(n // p, p, n // p, p)
    k = np.arange(n // p)
    diag, offdiag = blocks[k, :, k, :], blocks[k[:-1], :, k[1:], :]
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
    # every fixture has A_00 = 0; the rest comes from prefix() and the rule
    return BlockJacobiMatrix(p, np.zeros((1, p, p)), (), rule).prefix(n_blocks)


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
