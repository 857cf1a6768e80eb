"""Moment sequences: the forward map, positivity, and the inverse map.

The forward map sends a regular block Jacobi matrix to its moment sequence
S_n = {lam^n I, I}.  Multiplication by lam acts on expansion coefficients in
the first-kind basis as J, and I = D_0^{-1} D_0, so S_n is
D_0^{-1} (J^n)_{00} D_0^{-H}, taken as a product of two banded half powers.
``moments_oracle`` provides the independent dense route: S_n equals the
(0,0) block of the n-th power of the truncation to blocks 0..n//2, because
closed length-n walks from block 0 never go deeper.  Both routes read only
those blocks.

Block Hankel positivity of [S_{j+k}] sections is the solvability criterion;
``jacobi_from_moments`` inverts positive data by block Lanczos in the moment
inner product {P, Q} = P H Q^H (coefficient rows against the block Hankel
matrix H), normalizing each super-diagonal block to be Hermitian
positive definite (the canonical representative of the unitary-equivalence
class of recoveries).
"""

from dataclasses import dataclass

import numpy as np

from . import matkernel as mk
from .errors import IllConditionedError, InvalidInputError, OutOfRangeError
from .jacobi import BlockJacobiMatrix, _require_count, block_stack, truncate
from .measures import StepMeasure
from .polys import _finite, _recurrence, _require_nonsingular


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """S_0 .. S_m, Hermitian p x p moment matrices.

    ``S`` is one read-only complex (m+1, p, p) stack (see
    :func:`~blockmoment.jacobi.block_stack`); a tuple of blocks is accepted
    as input.  ``==`` is identity.
    """

    p: int
    S: np.ndarray

    def __post_init__(self):
        s = block_stack(self.S, self.p, "moments")
        if not len(s):
            raise InvalidInputError("need at least S_0")
        defect, bad = mk.hermitian_defects(s)
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidInputError(
                f"moment S_{i} is not Hermitian (defect {defect[i]:.3e})")
        object.__setattr__(self, "S", s)

    @property
    def order(self) -> int:
        """Largest available moment index m."""
        return len(self.S) - 1


@dataclass(frozen=True)
class PositivityReport:
    """Result of the block Hankel positivity test.

    When not positive, ``first_bad_section`` is the smallest n whose section
    [S_{j+k}]_{j,k<=n} fails and ``min_eigenvalue`` its offending smallest
    eigenvalue; when positive, ``min_eigenvalue`` is the smallest eigenvalue
    of the largest section, by interlacing the smallest across all sections.
    """

    positive: bool
    first_bad_section: int | None
    min_eigenvalue: float
    odd_tail_ignored: bool

    def __bool__(self) -> bool:
        return self.positive


def block_hankel(s: MomentSequence, n: int) -> np.ndarray:
    """Assemble [S_{j+k}]_{j,k=0..n} as a dense (n+1)p x (n+1)p matrix."""
    n = _require_count(n, "Hankel section n")
    if 2 * n > s.order:
        raise OutOfRangeError(
            f"Hankel section {n} needs S_{2 * n} but only S_{s.order} "
            "is available")
    m = (n + 1) * s.p
    index = np.add.outer(range(n + 1), range(n + 1))
    return s.S[index].transpose(0, 2, 1, 3).reshape(m, m)


def hankel_positive(s: MomentSequence) -> PositivityReport:
    """Check positive definiteness of every available Hankel section.

    A section passes when its smallest eigenvalue exceeds
    mk.PSD_TOL * |largest eigenvalue|.  When the largest section passes,
    every leading section does by Cauchy interlacing; only otherwise are
    they scanned, as leading blocks of the largest.  An odd trailing moment
    cannot complete a section and is ignored, flagged in the report.
    """
    odd = (s.order % 2 == 1)
    n_max = s.order // 2
    h = mk.hermitian_part(block_hankel(s, n_max))

    def bounds(n):
        m = (n + 1) * s.p
        w = np.linalg.eigvalsh(h[:m, :m])
        return float(w[0]), float(np.abs(w).max())

    lo, scale = bounds(n_max)
    if lo > mk.PSD_TOL * scale:
        return PositivityReport(True, None, lo, odd)
    for n in range(n_max):
        sub_lo, sub_scale = bounds(n)
        if sub_lo <= mk.PSD_TOL * sub_scale:
            return PositivityReport(False, n, sub_lo, odd)
    return PositivityReport(False, n_max, lo, odd)


@np.errstate(over="ignore", invalid="ignore")
def moments_from_jacobi(j: BlockJacobiMatrix, n_max: int,
                        d0=None) -> MomentSequence:
    """Forward map: S_n = {lam^n I, I} for n = 0..n_max.

    With W_0 = E_0 D_0^{-H} and W_m = J W_{m-1}, one block-tridiagonal
    product on the A_kk and A_{k,k+1} kept with the recurrence plan,
    S_n = W_a^H W_b for a = n // 2 and b = n - a, so every even moment is a
    Gram matrix, positive semidefinite by construction.  A closed walk of
    length n_max from block 0 goes no deeper than h = n_max // 2, so only
    blocks 0..h of J are read and of the W_i formed (W_{h+1} enters only
    as W_h^H W_{h+1}); the plan build refuses a non-regular prefix of
    those h + 1 blocks (InvalidInputError).  D_0 is ``d0``, the identity
    by default; a numerically singular one raises InvalidInputError.
    Moments past the float range raise NumericalFailureError.
    """
    n_max = _require_count(n_max, "n_max")
    p = j.p
    h = n_max // 2
    _, diag, off = _recurrence(j, h)
    # w[i, k] is block k of W_i, which vanishes for k > i
    w = np.zeros((n_max - h + 1, h + 1, p, p), dtype=complex)
    w[0, 0] = np.eye(p) if d0 is None else \
        np.linalg.inv(_require_nonsingular(d0, p, "D_0")).conj().T
    for i in range(n_max - h):
        src, dst, top = w[i, :i + 1], w[i + 1], min(i + 1, h)
        dst[:i + 1] = diag[:i + 1] @ src
        dst[1:top + 1] += np.conj(np.swapaxes(off[:top], 1, 2)) @ src[:top]
        dst[:i] += off[:i] @ src[1:]
    cols = w.reshape(n_max - h + 1, (h + 1) * p, p)
    n = np.arange(n_max + 1)
    return MomentSequence(p, _finite(mk.hermitian_part(
        np.conj(np.swapaxes(cols[n // 2], 1, 2)) @ cols[n - n // 2])))


@np.errstate(over="ignore", invalid="ignore")
def moments_oracle(j: BlockJacobiMatrix, n: int) -> np.ndarray:
    """Independent moment route: (0,0) block of truncate(J, n//2 + 1) ** n.

    Exact for the infinite matrix because a closed length-n walk from
    block 0 stays within the first n//2 + 1 blocks.  A moment past the
    float range raises NumericalFailureError.
    """
    n = _require_count(n, "moment index n")
    t = truncate(j, n // 2 + 1)
    power = np.linalg.matrix_power(t, n)
    return _finite(mk.hermitian_part(power[:j.p, :j.p]))


def jacobi_from_moments(s: MomentSequence
                        ) -> tuple[BlockJacobiMatrix, np.ndarray]:
    """Inverse map: block Lanczos in the moment inner product.

    From S_0..S_2n builds D_0 = S_0^{-1/2} and the recursion

        A_{k,k}   = {lam D_k, D_k}
        R_{k+1}   = lam D_k - A_{k,k} D_k - A_{k-1,k}^H D_{k-1}
        A_{k,k+1} = {R_{k+1}, R_{k+1}}^{1/2}      (Hermitian PD)
        D_{k+1}   = A_{k,k+1}^{-1} R_{k+1},

    for k = 0..n-1.  Returns the recovered matrix with n+1 stored diagonal
    blocks and no generator rule -- the data determines
    A_{0,0}..A_{n-1,n-1} and A_{0,1}..A_{n-1,n}; the final diagonal block
    is a zero pad, which leaves S_0..S_2n unchanged.  Both moment routes
    reproduce S_0..S_2n from these blocks alone; S_{2n+1} reads the pad,
    and anything deeper raises OutOfRangeError.

    Refuses (rather than regularizes) when a Gram normalization falls below
    the positive-definiteness floor: silent regularization would corrupt
    determinacy diagnostics downstream.  Data failing the Hankel test raises
    InvalidInputError, or IllConditionedError (``step`` the section) when
    the failing section's smallest eigenvalue is positive but uncertifiable.
    """
    report = hankel_positive(s)
    if not report.positive:
        bad, lo = report.first_bad_section, report.min_eigenvalue
        if lo > 0:
            raise IllConditionedError(
                f"moment sequence cannot be certified positive: Hankel "
                f"section {bad} has min eigenvalue {lo:.3e} > 0, at most "
                f"{mk.PSD_TOL:.0e} times its largest", step=bad)
        raise InvalidInputError(
            f"moment sequence is not positive: Hankel section {bad} has "
            f"min eigenvalue {lo:.3e}")
    p = s.p
    n = s.order // 2
    h = block_hankel(s, n)
    d0 = mk.hermitian_inv_sqrt(s.S[0])
    cur = np.zeros((p, (n + 1) * p), dtype=complex)  # D_k as [C_0 ... C_n]
    cur[:, :p] = d0
    prev = np.zeros_like(cur)
    b = np.zeros((p, p), dtype=complex)  # A_{-1,0}, against D_{-1} = 0
    diag: list[np.ndarray] = []
    offdiag: list[np.ndarray] = []
    for k in range(n):
        lam_cur = np.zeros_like(cur)
        lam_cur[:, p:] = cur[:, :-p]
        a_kk = mk.hermitian_part(lam_cur @ h @ cur.conj().T)
        resid = lam_cur - a_kk @ cur - b.conj().T @ prev
        gram = mk.hermitian_part(resid @ h @ resid.conj().T)
        w, v = np.linalg.eigh(gram)
        if w[0] <= mk.PD_TOL * max(1.0, float(w[-1])):
            raise IllConditionedError(
                f"Gram matrix at step {k + 1} is numerically singular "
                f"(min eigenvalue {w[0]:.3e}); refusing to continue", step=k + 1)
        b = mk.hermitian_part((v * np.sqrt(w)) @ v.conj().T)
        b_inv = mk.hermitian_part((v / np.sqrt(w)) @ v.conj().T)
        diag.append(a_kk)
        offdiag.append(b)
        prev, cur = cur, b_inv @ resid
    diag.append(np.zeros((p, p), dtype=complex))
    return BlockJacobiMatrix(p, tuple(diag), tuple(offdiag)), d0


@np.errstate(over="ignore", invalid="ignore")
def moments_of_measure(t: StepMeasure, n_max: int) -> MomentSequence:
    """S_n = sum_j lam_j^n W_j for n = 0..n_max.

    Moments past the float range raise NumericalFailureError.
    """
    n_max = _require_count(n_max, "n_max")
    powers = t.nodes.astype(complex) ** np.arange(n_max + 1)[:, None]
    return MomentSequence(t.p, _finite(mk.hermitian_part(
        (powers[:, :, None, None] * t.weights).sum(axis=1))))
