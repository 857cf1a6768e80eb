"""Moment sequences: the forward map, positivity, and the inverse map.

The forward map sends a regular block Jacobi matrix to its moment sequence
S_n = {lam^n I, I}.  Multiplication by lam acts on expansion coefficients in
the first-kind basis as J, and I = D_0^{-1} D_0, so S_n is
D_0^{-1} (J^n)_{00} D_0^{-H}, taken as a product of two banded half powers.
``moments_oracle`` provides the independent dense route: S_n equals the
(0,0) block of the n-th power of a sufficiently long finite truncation,
because length-n walks starting at block 0 never leave it.

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
from .jacobi import BlockJacobiMatrix, truncate
from .measures import StepMeasure
from .polys import _d0_seeds, _recurrence


@dataclass(frozen=True)
class MomentSequence:
    """S_0 .. S_m, Hermitian p x p moment matrices."""

    p: int
    S: tuple

    def __post_init__(self):
        blocks = []
        for i, s in enumerate(self.S):
            m = mk.require_hermitian(mk.as_complex_matrix(s, self.p),
                                     what=f"moment S_{i}")
            m = np.array(m)
            m.setflags(write=False)
            blocks.append(m)
        if not blocks:
            raise InvalidInputError("need at least S_0")
        object.__setattr__(self, "S", tuple(blocks))

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
    seen across all sections.
    """

    positive: bool
    first_bad_section: int | None
    min_eigenvalue: float
    odd_tail_ignored: bool

    def __bool__(self) -> bool:
        return self.positive


def block_hankel(s: MomentSequence, n: int) -> np.ndarray:
    """Assemble [S_{j+k}]_{j,k=0..n} as a dense (n+1)p x (n+1)p matrix."""
    if 2 * n > s.order:
        raise OutOfRangeError(
            f"Hankel section {n} needs S_{2 * n} but only S_{s.order} "
            "is available")
    return np.block([[s.S[j + k] for k in range(n + 1)]
                     for j in range(n + 1)])


def hankel_positive(s: MomentSequence,
                    psd_tol: float = mk.PSD_TOL) -> PositivityReport:
    """Check positive definiteness of every available Hankel section.

    A section passes when its smallest eigenvalue exceeds
    psd_tol * |largest eigenvalue|.  An odd trailing moment cannot complete
    a section and is ignored, flagged in the report.
    """
    m = s.order
    odd = (m % 2 == 1)
    n_max = m // 2
    worst = np.inf
    for n in range(n_max + 1):
        w = np.linalg.eigvalsh(mk.hermitian_part(block_hankel(s, n)))
        scale = float(np.abs(w).max())
        lo = float(w[0])
        if lo <= psd_tol * scale:
            return PositivityReport(False, n, lo, odd)
        worst = min(worst, lo)
    return PositivityReport(True, None, worst, odd)


def moments_from_jacobi(j: BlockJacobiMatrix, n_max: int,
                        d0=None) -> MomentSequence:
    """Forward map: S_n = {lam^n I, I} for n = 0..n_max.

    With W_0 = E_0 D_0^{-H} and W_m = J W_{m-1}, one block-tridiagonal
    product on the A_kk and A_{k,k+1} kept with the recurrence plan,
    S_n = W_a^H W_b for a = n // 2 and b = n - a, so every even moment is a
    Gram matrix, positive semidefinite by construction.  The plan build
    refuses a non-regular prefix of n_max + 1 blocks (InvalidInputError).
    """
    if n_max < 0:
        raise InvalidInputError("n_max must be >= 0")
    p = j.p
    diag, off = _recurrence(j, n_max)[1:3]
    m = n_max - n_max // 2
    # w[i, k] is block k of W_i, which vanishes for k > i
    w = np.zeros((m + 1, m + 1, p, p), dtype=complex)
    w[0, 0] = _d0_seeds(d0, p)[1]
    for i in range(m):
        src, dst = w[i, :i + 1], w[i + 1]
        dst[:i + 1] = diag[:i + 1] @ src
        dst[1:i + 2] += np.conj(np.swapaxes(off[:i + 1], 1, 2)) @ src
        dst[:i] += off[:i] @ src[1:]
    cols = w.reshape(m + 1, (m + 1) * p, p)
    return MomentSequence(p, tuple(
        mk.hermitian_part(cols[n // 2].conj().T @ cols[n - n // 2])
        for n in range(n_max + 1)))


def moments_oracle(j: BlockJacobiMatrix, n: int) -> np.ndarray:
    """Independent moment route: (0,0) block of truncate(J, n+1) ** n.

    Exact for the infinite matrix because a length-n walk from block 0
    stays within the first n+1 blocks.
    """
    if n < 0:
        raise InvalidInputError("moment index must be >= 0")
    t = truncate(j, n + 1)
    power = np.linalg.matrix_power(t, n)
    return mk.hermitian_part(power[:j.p, :j.p])


def jacobi_from_moments(s: MomentSequence,
                        psd_tol: float = mk.PSD_TOL,
                        pd_tol: float = mk.PD_TOL
                        ) -> tuple[BlockJacobiMatrix, np.ndarray]:
    """Inverse map: block Lanczos in the moment inner product.

    From S_0..S_2n builds D_0 = S_0^{-1/2} and the recursion

        A_{k,k}   = {lam D_k, D_k}
        R_{k+1}   = lam D_k - A_{k,k} D_k - A_{k-1,k}^H D_{k-1}
        A_{k,k+1} = {R_{k+1}, R_{k+1}}^{1/2}      (Hermitian PD)
        D_{k+1}   = A_{k,k+1}^{-1} R_{k+1},

    for k = 0..n-1.  Returns the recovered matrix with n+1 stored diagonal
    blocks -- the data determines A_{0,0}..A_{n-1,n-1} and
    A_{0,1}..A_{n-1,n}; the final diagonal block is a zero pad, which leaves
    S_0..S_2n unchanged -- plus a neutral generator rule (zero diagonal,
    identity off-diagonal) so the round trip ``moments_from_jacobi(J, D0, 2n)``
    is executable.  Serialized documents keep only the stored prefix.

    Refuses (rather than regularizes) when a Gram normalization falls below
    the positive-definiteness floor: silent regularization would corrupt
    determinacy diagnostics downstream.  Data failing the Hankel test raises
    InvalidInputError, or IllConditionedError (``step`` the section) when
    the failing section's smallest eigenvalue is positive but uncertifiable.
    """
    report = hankel_positive(s, psd_tol)
    if not report.positive:
        bad, lo = report.first_bad_section, report.min_eigenvalue
        if lo > 0:
            raise IllConditionedError(
                f"moment sequence cannot be certified positive: Hankel "
                f"section {bad} has min eigenvalue {lo:.3e} > 0, at most "
                f"{psd_tol:.0e} times its largest", step=bad)
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
        if w[0] <= pd_tol * max(1.0, float(w[-1])):
            raise IllConditionedError(
                f"Gram matrix at step {k + 1} is numerically singular "
                f"(min eigenvalue {w[0]:.3e}); refusing to continue", step=k + 1)
        b = mk.hermitian_part((v * np.sqrt(w)) @ v.conj().T)
        b_inv = mk.hermitian_part((v / np.sqrt(w)) @ v.conj().T)
        diag.append(a_kk)
        offdiag.append(b)
        prev, cur = cur, b_inv @ resid

    def neutral_rule(k: int):
        return np.zeros((p, p)), np.eye(p, dtype=complex)

    diag.append(np.zeros((p, p), dtype=complex))
    return (BlockJacobiMatrix(p, tuple(diag), tuple(offdiag), neutral_rule),
            d0)


def moments_of_measure(t: StepMeasure, n_max: int) -> MomentSequence:
    """S_n = sum_j lam_j^n W_j for n = 0..n_max."""
    if n_max < 0:
        raise InvalidInputError("n_max must be >= 0")
    out = []
    for n in range(n_max + 1):
        powers = t.nodes.astype(complex) ** n
        out.append(mk.hermitian_part(
            (powers[:, None, None] * t.weights).sum(axis=0)))
    return MomentSequence(t.p, tuple(out))
