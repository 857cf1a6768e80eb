"""Matrix polynomials and the first-kind orthonormal family.

A matrix polynomial is P(lam) = C_0 + C_1 lam + ... + C_n lam^n with p x p
complex coefficients, stored stacked as one (n+1, p, p) array.  Matrix
coefficients act from the left throughout: (C P)(lam) = C * P(lam).

``generate_first_kind`` runs the block three-term recurrence

    A_{k,k-1} D_{k-1} + (A_{k,k} - lam I) D_k + A_{k,k+1} D_{k+1} = 0,

with D_{-1} = 0 and D_0 a caller-supplied constant nonsingular matrix
(identity by default), yielding polynomials of exact degree k with
nondegenerate leading coefficients.  ``expand`` writes any polynomial as
sum_k U_k D_k by degree peeling, and ``form`` is the sesquilinear pairing
{P, Q} = sum_k U_k V_k^H defined by orthonormality of the D_k.

The symbolic polynomials (``generate_first_kind`` here, the second kind in
:mod:`nevanlinna`) and every pointwise evaluation (first-kind values,
kernel sums, quadrature weights, the quartet, transform and bracket series)
run on one recurrence plan: the stacked B_k^{-1}, B_k^{-1} A_kk,
B_k^{-1} A_{k,k-1}, B_k = A_{k,k+1}, built from one ``prefix()`` per build
and kept on the matrix, so a call served by it needs no ``prefix()`` and no
inverse per step.
Regularity is checked where the plan is built, over the blocks it reads,
once per build.  Pointwise, the states D_k, E_k of all points advance
together as the columns of one (p, W) matrix.  The number of distinct
points picks the schedule.  At none or three or more, every state is
stepped in turn, one small GEMM and a column scaling by the points per
step.  At one, the pass is solved in chunks of steps, as a linear
recurrence can be (Kogge & Stone, IEEE Trans. Computers 22, 1973): every
chunk steps its transfer solutions from a unit entry pair, with z folded
into the plan rows and all chunks of the pass in one batched matmul per
step, and each chunk's states are then one GEMM with its entry pair, the
seeds or the last two states before it.  At two, that one-point pass runs
at each point on the point's own columns.  Either way a pass computes all
its states, none stops early, and hands them on as one stack.  A kernel
sum pairs two such stacks, one GEMM per chunk of terms (``_series``).  The
quartet, transform and bracket sums are differences of Christoffel-Darboux
Wronskians (``_cd_series``) of the pairs of states at chunk ends, formed
by one tree product (``_transfers``).  Both read one stop rule (``_stop``).
The states at 0 are built once per matrix and cached (``_zero_states``).
Symbolically, the stepwise step runs on coefficients laid side by side.
Every stepper starts from the same entry pair [X_{-1}; X_0]: [0; I] for
the first kind, so D_0 = I, and [I; 0] for the second, which row 0 of the
plan, holding B_0^{-1} where A_{0,-1} would be, takes to E_1 = B_0^{-1}.
The symbolic polynomials scale these seeds by D_0 and D_0^{-H}.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import matkernel as mk
from .errors import (InvalidInputError, NumericalFailureError, OutOfRangeError)
from .jacobi import (REG_TOL, BlockJacobiMatrix, _freeze, _require_count,
                     block_stack, validate_regular)


@dataclass(frozen=True, eq=False)
class MatrixPoly:
    """Matrix polynomial with stacked coefficients.

    ``coeffs[i]`` multiplies lam^i.  Trailing zero coefficients are allowed;
    the degree is the index of the last nonzero coefficient (-1 for the zero
    polynomial).  ``==`` is identity.
    """

    p: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = block_stack(self.coeffs, self.p, "polynomial coefficients")
        if not len(c):
            c = _freeze(np.zeros((1, self.p, self.p), dtype=complex))
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, p: int) -> "MatrixPoly":
        return cls(p, np.zeros((1, p, p)))

    @classmethod
    def constant(cls, c) -> "MatrixPoly":
        m = mk.as_complex_matrix(c)
        return cls(m.shape[0], m[None])

    @classmethod
    def monomial(cls, n: int, c) -> "MatrixPoly":
        """c * lam^n."""
        n = _require_count(n, "n")
        m = mk.as_complex_matrix(c)
        coeffs = np.zeros((n + 1, m.shape[0], m.shape[0]), dtype=complex)
        coeffs[n] = m
        return cls(m.shape[0], coeffs)

    @property
    def degree(self) -> int:
        nz = np.nonzero(np.abs(self.coeffs).reshape(self.coeffs.shape[0], -1)
                        .max(axis=1))[0]
        return int(nz[-1]) if nz.size else -1

    def __call__(self, z: complex) -> np.ndarray:
        acc = np.array(self.coeffs[-1])
        for k in range(self.coeffs.shape[0] - 2, -1, -1):
            acc = acc * z + self.coeffs[k]
        return acc

    def star(self) -> "MatrixPoly":
        """Conjugate-transpose every coefficient; P*(conj z) = (P(z))^H."""
        return MatrixPoly(self.p, np.conj(np.swapaxes(self.coeffs, 1, 2)))

    def shift(self) -> "MatrixPoly":
        """Multiply by the scalar variable lam (coefficient shift)."""
        out = np.zeros((self.coeffs.shape[0] + 1, self.p, self.p),
                       dtype=complex)
        out[1:] = self.coeffs
        return MatrixPoly(self.p, out)

    def left_mul(self, c) -> "MatrixPoly":
        m = mk.as_complex_matrix(c, self.p)
        return MatrixPoly(self.p, m[None] @ self.coeffs)

    def _padded(self, m: int) -> np.ndarray:
        out = np.zeros((m, self.p, self.p), dtype=complex)
        out[:self.coeffs.shape[0]] = self.coeffs
        return out

    def __add__(self, other: "MatrixPoly") -> "MatrixPoly":
        if self.p != other.p:
            raise InvalidInputError("block dimension mismatch")
        m = max(self.coeffs.shape[0], other.coeffs.shape[0])
        return MatrixPoly(self.p, self._padded(m) + other._padded(m))

    def __sub__(self, other: "MatrixPoly") -> "MatrixPoly":
        if self.p != other.p:
            raise InvalidInputError("block dimension mismatch")
        m = max(self.coeffs.shape[0], other.coeffs.shape[0])
        return MatrixPoly(self.p, self._padded(m) - other._padded(m))


@dataclass(frozen=True)
class OrthoBasis:
    """First-kind polynomials D_0..D_n for a regular block Jacobi matrix."""

    jacobi: BlockJacobiMatrix
    d0: np.ndarray
    polys: tuple
    lead_inv: np.ndarray  # (n+1, p, p) inverses of the leading coeffs

    @property
    def p(self) -> int:
        return self.jacobi.p

    @property
    def n(self) -> int:
        return len(self.polys) - 1


def _require_nonsingular(c, p: int, what: str) -> np.ndarray:
    m = mk.as_complex_matrix(c, p)
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] <= REG_TOL * max(1.0, s[0]):
        raise InvalidInputError(f"{what} is numerically singular")
    return m


def generate_first_kind(j: BlockJacobiMatrix, n: int,
                        d0=None) -> OrthoBasis:
    """Generate D_0 .. D_n from the three-term recurrence.

    D_{k+1} = A_{k,k+1}^{-1} [ (lam I - A_{k,k}) D_k - A_{k,k-1} D_{k-1} ],
    starting from D_{-1} = 0 and the constant nonsingular D_0 (identity by
    default).  Runs on the matrix's cached recurrence plan, whose build
    refuses a non-regular prefix with InvalidInputError.
    """
    p = j.p
    d0 = np.eye(p, dtype=complex) if d0 is None else \
        _require_nonsingular(d0, p, "D_0")
    x = _coefficients(j, n, d0, second=False)
    # leading coefficients are products of block inverses: their scale
    # shrinks or grows geometrically and may mix scales across components,
    # so only exact singularity is refused here
    try:
        lead_inv = np.linalg.inv(x[np.arange(n + 1), np.arange(n + 1)])
    except np.linalg.LinAlgError:
        raise NumericalFailureError("a leading coefficient degenerated "
                                    "numerically") from None
    return OrthoBasis(j, _freeze(np.array(d0)),
                      tuple(MatrixPoly(p, x[k, :k + 1]) for k in range(n + 1)),
                      _freeze(lead_inv))


def expand(poly: MatrixPoly, basis: OrthoBasis) -> list[np.ndarray]:
    """Coefficients U_0..U_d with P = sum U_k D_k (degree peeling).

    Peels from the highest degree down against the nondegenerate leading
    coefficients; the zero polynomial expands to an empty list.
    """
    if poly.p != basis.p:
        raise InvalidInputError("block dimension mismatch with basis")
    d = poly.degree
    if d > basis.n:
        raise OutOfRangeError(
            f"polynomial degree {d} exceeds basis length {basis.n}")
    if d < 0:
        return []
    work = np.array(poly.coeffs[:d + 1])
    out: list[np.ndarray] = [None] * (d + 1)
    for k in range(d, -1, -1):
        u = work[k] @ basis.lead_inv[k]
        out[k] = u
        work[:k + 1] -= u[None] @ basis.polys[k].coeffs
    return out


def form(pp: MatrixPoly, qq: MatrixPoly, basis: OrthoBasis) -> np.ndarray:
    """The pairing {P, Q} = sum_{k <= min(n,m)} U_k V_k^H."""
    u = expand(pp, basis)
    v = expand(qq, basis)
    out = np.zeros((basis.p, basis.p), dtype=complex)
    for uk, vk in zip(u, v):
        out += uk @ vk.conj().T
    return out


# ---------------------------------------------------------------------------
# the pointwise recurrence engine
# ---------------------------------------------------------------------------

# A pass computes all its states, in chunks of _CHUNK steps, and hands them
# on in one (n+1, p, W) stack; none stops early.  A kernel sum pairs two
# stacks and sums a chunk's terms in one GEMM.  A pass at one point steps the
# transfer solutions of all its chunks together and joins each with its
# entry pair, a pass at two points does so once per point, and any other
# pass steps every state (``_states``).
_CHUNK = 16
_GROUP = 1 << 20    # entries a broadcast level of ``_transfers`` may hold


def _recurrence(j: BlockJacobiMatrix, n: int):
    """Step data of the first n recurrence steps, cached on ``j``.

    Returns (plan, diag, off, rows, b_inv).  Row k of the plan is
    [-B_k^{-1} A_{k,k-1} | B_k^{-1} | -B_k^{-1} A_{k,k}] with B_k = A_{k,k+1},
    but row 0, having no A_{0,-1}, holds B_0^{-1} in its first slot, so
    X_{k+1} = row_k @ [X_{k-1}; z X_k; X_k] takes the entry pair
    [X_{-1}; X_0] = [0; I] to D_1 and [I; 0] to E_1 = B_0^{-1}.  ``rows``
    and ``b_inv`` hold its outer and middle slots, for folding in z.

    ``diag`` and ``off`` stack A_kk, k <= n, and A_{k,k+1}, k < n.  The
    longest data built so far is kept in ``j.memo`` and serves every
    shorter request; it comes from one ``prefix`` and one batched inverse,
    and dies with the matrix.  Each build checks the blocks of that prefix
    with ``validate_regular`` and raises InvalidInputError naming the first
    violation, so every user of the engine refuses a non-regular matrix.
    """
    rec = j.memo.get("recurrence")
    if rec is not None and len(rec[0]) >= n:
        return rec
    jp = j.prefix(n + 1)
    report = validate_regular(jp)
    if not report.ok:
        k, kind, mag = report.first_violation
        raise InvalidInputError(
            f"matrix is not a regular block Jacobi matrix: block {k} "
            f"{kind} (magnitude {mag:.3e})")
    diag, off = jp.diag, jp.offdiag
    b_inv = np.linalg.inv(off)
    plan = np.concatenate([b_inv, b_inv, -(b_inv @ diag[:n])], axis=2)
    plan[1:, :, :j.p] = -(b_inv[1:] @ np.conj(np.swapaxes(off[:-1], 1, 2)))
    rows = np.concatenate([plan[..., :j.p], plan[..., 2 * j.p:]], axis=2)
    rec = (_freeze(plan), diag, off, _freeze(rows), _freeze(b_inv))
    j.memo["recurrence"] = rec
    return rec


def _available_terms(j: BlockJacobiMatrix, n_max: int) -> int:
    n_max = _require_count(n_max, "n_max")
    if j.generator is not None:
        return n_max
    return min(n_max, j.n_blocks - 1)


@np.errstate(over="ignore", invalid="ignore")
def _coefficients(j: BlockJacobiMatrix, n: int, seed, second: bool):
    """Coefficients of X_0..X_n as an (n+1, n+1, p, p) array.

    Entry [k, i] multiplies lam^i in X_k.  The coefficient-layout twin of
    the stepwise schedule of ``_states``: X_k holds its coefficients
    side by side as a (p, (n+1)p) matrix, "z X_k" is X_k shifted one block
    to the right, and each step is one GEMM with the same plan row.  The
    entry pair [X_{-1}; X_0] is that of the engine times ``seed``:
    [0; D_0] for the first kind, and [D_0^{-H}; 0] for the second, so that
    E_1 = B_0^{-1} D_0^{-H}.  Coefficients past the float range raise
    NumericalFailureError.
    """
    n = _require_count(n, "n")
    p = seed.shape[0]
    plan = _recurrence(j, n)[0]
    # h[i] = (z X, X) of state i - 1; step k reads [X, zX, X] of states
    # k - 1, k and writes state k + 1
    h = np.zeros((n + 2, 2, p, (n + 1) * p), dtype=complex)
    h[0 if second else 1, 1, :, :p] = seed
    h[1, 0, :, p:] = h[1, 1, :, :-p]
    flat = h.reshape(2 * p * (n + 2), (n + 1) * p)
    for k, row in enumerate(plan[:n]):
        np.matmul(row, flat[(2 * k + 1) * p:(2 * k + 4) * p], out=h[k + 2, 1])
        h[k + 2, 0, :, p:] = h[k + 2, 1, :, :-p]
    return _finite(h[1:, 1].reshape(n + 1, p, n + 1, p)
                   .transpose(0, 2, 1, 3))


@np.errstate(over="ignore", invalid="ignore")
def _states(j: BlockJacobiMatrix, zs, second, n: int) -> np.ndarray:
    """X_k, k = 0..n, as one (n+1, p, W) array.

    X_k is a (p, W) matrix of p-wide column blocks, one per entry of
    ``zs``: D_k at that point, or E_k where ``second`` is set.  Both kinds
    share the recurrence and differ only in their entry pair
    [X_{-1}; X_0]: [0; I] for D and [I; 0] for E, so that E_1 = B_0^{-1}
    (see ``_recurrence``).  Every pass computes all n + 1 states; none
    stops early.  States past the float range come out inf or nan,
    without a warning, for the reader of the pass to refuse.

    The number of distinct points in ``zs`` picks one of two schedules.
    At none or at three or more, every state is stepped in turn: the state
    keeps z X_k beside X_k, and each step is one GEMM with the plan row
    and a column scaling.  At one, in one loop of _CHUNK steps, every
    chunk of the pass steps its transfer solutions T_i from the unit entry
    pair [X_{k-1}; X_k] = [I 0; 0 I], all chunks in one batched matmul per
    step, with z folded into the rows once per call:
    [-B_k^{-1} A_{k,k-1} | z B_k^{-1} - B_k^{-1} A_kk].  A chunk's states
    are then X_{k+i} = T_i [X_{k-1}; X_k], one GEMM with its entry pair,
    the last two states before it.  At two, that joined pass runs once
    per point, on the point's own columns.
    """
    p = j.p
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    second = np.asarray(second, dtype=bool).reshape(-1)
    pts = list(dict.fromkeys(zs.tolist()))
    w = zs.size * p
    if len(pts) == 2:
        xs = np.empty((n + 1, p, w), dtype=complex)
        for z in pts:
            at = zs == z
            xs[..., np.repeat(at, p)] = _states(j, zs[at], second[at], n)
        return xs
    plan, _, _, rows, b_inv = _recurrence(j, n)
    plan = plan[:n]
    is_e = np.repeat(second, p)
    eye = np.arange(w) % p == np.arange(p)[:, None]     # I in every block
    x_prev, x0 = np.where(is_e, eye, 0.0), np.where(is_e, 0.0, eye)
    if len(pts) != 1:
        zrow = np.repeat(zs, p)
        # h[i] = (z X, X) of state i - 1; step k reads srcs[k] =
        # [X_{k-1}; z X_k; X_k], rows (2k + 1) p to (2k + 4) p of flat, and
        # writes state k + 1
        h = np.zeros((n + 2, 2, p, w), dtype=complex)
        h[0, 1], h[1, 1], h[1, 0] = x_prev, x0, x0 * zrow
        flat = h.reshape(2 * p * (n + 2), w)
        srcs = as_strided(flat[p:], (n, 3 * p, w),
                          (2 * p * flat.strides[0],) + flat.strides)
        for row, src, x, zx in zip(plan, srcs, h[2:, 1], h[2:, 0]):
            np.matmul(row, src, out=x)
            np.multiply(x, zrow, out=zx)
        return h[1:, 1]
    c = _CHUNK
    chunks = -(-n // c)
    # folded rows by step and chunk; zero past the pass
    tr = np.zeros((chunks * c, p, 2 * p), dtype=complex)
    tr[:n] = rows[:n]
    tr[:n, :, p:] += pts[0] * b_inv[:n]
    tr = tr.reshape(chunks, c, p, 2 * p).swapaxes(0, 1)
    # t[b, (i + 1) p:(i + 2) p] = T_i of chunk b, p x 2p; step i reads
    # [T_{i-1}; T_i] and writes T_{i+1}.  Rows are stored outermost, so
    # what a step reads and what it writes are disjoint slabs, which spares
    # the matmul a copy against overlap
    t = np.zeros(((c + 2) * p, chunks, 2 * p), dtype=complex)
    t[:2 * p] = np.eye(2 * p)[:, None]
    t = t.swapaxes(0, 1)
    for i, trow in enumerate(tr[:n]):
        np.matmul(trow, t[:, i * p:(i + 2) * p],
                  out=t[:, (i + 2) * p:(i + 3) * p])
    # states b c - 1 and b c, rows b c p:(b c + 2) p of ys, are chunk b's
    # entry pair; it writes the c states after them
    ys = np.empty(((chunks * c + 2) * p, w), dtype=complex)
    ys[:p], ys[p:2 * p] = x_prev, x0
    for b, tb in enumerate(t[:, 2 * p:]):
        np.matmul(tb, ys[b * c * p:(b * c + 2) * p],
                  out=ys[(b * c + 2) * p:((b + 1) * c + 2) * p])
    return ys.reshape(chunks * c + 2, p, w)[1:n + 2]


def first_kind_values(j: BlockJacobiMatrix, zs, n: int):
    """Yield D_k(z) for k = 0..n, D_0 = I, batched over the points ``zs``.

    Pointwise form of the recurrence, read off the engine's states; yields
    arrays of shape (B, p, p), values past the float range as inf or nan.
    A non-regular matrix raises InvalidInputError, as do a point that is
    not a finite number and an n that is not an integer >= 0.
    """
    n = _require_count(n, "n")
    p = j.p
    z = mk._read_points(zs, "z", one=False).reshape(-1)
    xs = _states(j, z, np.zeros(z.size, dtype=bool), n)
    yield from xs.reshape(n + 1, p, z.size, p).transpose(0, 2, 1, 3)


def _zero_states(j: BlockJacobiMatrix, n: int) -> np.ndarray:
    """D_k(0) and E_k(0), k <= n, side by side as a frozen (n+1, p, 2p) stack.

    They belong to the matrix, not to a point: the longest stack built so
    far is kept in ``j.memo`` beside the recurrence plan and serves every
    shorter request.  It is built by one engine pass at 0.
    """
    at0 = j.memo.get("zero_states")
    if at0 is None or len(at0) <= n:
        at0 = _freeze(_states(j, [0.0, 0.0], [False, True], n))
        j.memo["zero_states"] = at0
    return at0[:n + 1]


def _b_side(j: BlockJacobiMatrix, n: int, x):
    """(v, X_n) of pairs x = [X_{q-1}; X_q] at the chunk starts q below n
    and at n: v = [B_{q-1} X_q; -B_{q-1}^H X_{q-1}], B_{-1} = -I."""
    p = j.p
    q = np.minimum(np.arange(_CHUNK, n + _CHUNK, _CHUNK), n)
    b = np.concatenate([-np.eye(p)[None], _recurrence(j, n)[2][q - 1]])[:, None]
    return (np.concatenate([b @ x[:, :, p:],
                            -(np.conj(np.swapaxes(b, 2, 3)) @ x[:, :, :p])],
                           axis=2), x[-1, :, p:])


def _zero_pairs(j: BlockJacobiMatrix, n: int):
    """Pairs of E | D at 0, as ``_transfers`` orders them, and ``_b_side``
    of those of D | E, read off ``_zero_states``, cached per n."""
    pairs = j.memo.get(("zero_pairs", n))
    if pairs is None:
        p = j.p
        at0 = _zero_states(j, n)
        q = np.append(np.arange(0, n, _CHUNK), n)
        x = np.concatenate([at0[q - 1], at0[q]], axis=1)[:, None]
        x[0, 0, :p] = np.eye(p, 2 * p, p)          # X_{-1} = [0 | I]
        pairs = j.memo[("zero_pairs", n)] = (np.roll(x, p, axis=3),
                                             _b_side(j, n, x))
    return pairs


def _product(a, b):
    """a @ b for stacks of matrices held in the first two axes."""
    return (a[:, :, None] * b[None]).sum(axis=1)


@np.errstate(over="ignore", invalid="ignore")
def _transfers(j: BlockJacobiMatrix, zs, n: int) -> np.ndarray:
    """M_q = S_{q-1} ... S_0 at q = 0, 16, ... below n and at n, per point.

    S_k = [0, I; -B_k^{-1} A_{k,k-1}, z B_k^{-1} - B_k^{-1} A_kk], so M_q
    holds the pairs [X_{q-1}; X_q] of E, then D (see ``_states``), as a
    (positions, points, 2p, 2p) array, overflow as inf or nan.  A pairwise
    tree in each chunk (its first level in the lower rows only), then a
    doubling scan over chunks; points and steps are the last axes, so a
    level is one broadcast multiply and sum, over groups of points that
    bound its size.  Swap steps [0, I; I, 0] pad the last chunk.
    """
    p = j.p
    z = np.asarray(zs, dtype=complex).reshape(-1)
    c = -(-n // _CHUNK)
    rows, b_inv = _recurrence(j, n)[3:]
    rows, b_inv = rows[:n].transpose(1, 2, 0), b_inv[:n].transpose(1, 2, 0)
    out = np.empty((2 * p, 2 * p, z.size, c + 1), dtype=complex)
    out[..., 0] = np.eye(2 * p)[..., None]
    group = max(1, _GROUP // (32 * p ** 3 * max(c, 1)))
    for g in range(0, z.size, group):
        zg = z[g:g + group, None]
        pq = np.zeros((p, 2 * p, zg.size, c * _CHUNK), dtype=complex)
        pq[..., :n] = rows[:, :, None]
        pq[:, p:, :, :n] += b_inv[:, :, None] * zg
        pq[:, :p, :, n:] = np.eye(p)[..., None, None]
        even, odd = pq[..., 0::2], pq[..., 1::2]
        s = np.empty((2 * p,) + even.shape[1:], dtype=complex)
        s[:p] = even
        s[p:] = _product(odd[:, p:], even)
        s[p:, p:] += odd[:, :p]
        while s.shape[3] > c:
            s = _product(s[..., 1::2], s[..., 0::2])
        d = 1
        while d < c:
            s[..., d:] = _product(s[..., d:], s[..., :-d])
            d *= 2
        out[:, :, g:g + group, 1:] = s
    if (c * _CHUNK - n) % 2:
        out[..., -1] = np.roll(out[..., -1], p, axis=0)
    return out.transpose(3, 2, 0, 1)


# the default stop rule and length of every series
SERIES_TOL = 1e-12
SERIES_N_MAX = 400


def _stop(parts, n1: int, series_tol: float):
    """The one series stop rule, on the sums of the chunks of n1 terms.

    A chunk's increment is the largest entry of its sum over its number
    of terms; the series stops after a chunk when it and the one before
    both have increments below ``series_tol`` (one quiet chunk may be
    cancellation).  Returns (chunks summed, n_used, tail_norm, converged),
    tail_norm the larger of the last two increments.
    """
    sizes = np.minimum(_CHUNK, n1 - _CHUNK * np.arange(len(parts)))
    incs = np.abs(parts).reshape(len(parts), -1).max(axis=1,
                                                     initial=0.0) / sizes
    pairs = np.maximum(incs[1:], incs[:-1])     # a chunk and the one before
    quiet = np.flatnonzero(pairs < series_tol)
    m = int(quiet[0]) + 2 if quiet.size else len(parts)
    tail = float(pairs[m - 2] if m > 1 else incs[0])
    return m, min(m * _CHUNK, n1) - 1, tail, bool(quiet.size)


@np.errstate(over="ignore", invalid="ignore")
def _series(left, right, weight, series_tol: float):
    """weight * sum_{k=0}^{n} L_k^H R_k over two stacks of states.

    ``left`` and ``right`` are (n+1, p, W) stacks of the same length, each
    one engine pass (see ``_states``) or a slice of one; L_k and R_k are
    their states X_k.  Each chunk of _CHUNK terms is one GEMM over its
    stacked states, all chunks in one batched GEMM, times ``weight``, the
    same for every k; ``_stop`` reads those sums.  Returns (sum, n_used,
    tail_norm, converged); overflow raises NumericalFailureError.
    """
    n1 = len(left)
    parts = np.concatenate([weight * (a.swapaxes(1, 2) @ b) for a, b in
                            zip(_chunked(np.conj(left)), _chunked(right))])
    m, n_used, tail, conv = _stop(parts, n1, series_tol)
    # summed in order from 0.0, which leaves no -0.0
    total = 0.0 + np.cumsum(parts[:m], axis=0)[-1]
    return _finite(total), n_used, tail, conv


@np.errstate(over="ignore", invalid="ignore")
def _cd_series(n: int, y, y0, side, factor, gap, series_tol: float):
    """factor * gap * sum_{k=0}^{n} Y_k^H X_k by Christoffel-Darboux.

    Y solves the recurrence at mu, X at a real lam, gap = lam - conj(mu);
    ``y`` holds Y's pairs as ``_transfers`` does, ``side`` is ``_b_side`` of
    X's.  W_k = Y_k^H B_k X_{k+1} - Y_{k+1}^H B_k^H X_k has W_k - W_{k-1} =
    gap Y_k^H X_k, so a partial sum is factor (W_k - W_{-1}), 0 where
    factor is.  Given ``y0``, the pairs at lam with Y's entry pair, whose
    Wronskian is W_{-1} at every k, W_k - W_{-1} is that of Y - Y0: the
    drift the rounded step data give both cancels near lam.  W_n = W_{n-1}
    + gap Y_n^H X_n reads no A_{n,n+1}.  Returns (sum, W_n - W_{-1},
    n_used, tail_norm, converged); overflow raises NumericalFailureError.
    """
    v, xn = side
    p = xn.shape[1]
    w = np.conj(np.swapaxes(y if y0 is None else y - y0, 2, 3)) @ v
    w -= w[0]                                      # W_{q-1} - W_{-1}
    last = w[-1] + gap * (np.conj(np.swapaxes(y[-1, :, p:], 1, 2)) @ xn)
    w = np.concatenate([w[:-1] if n % _CHUNK else w, last[None]])
    m, n_used, tail, conv = _stop(factor * (w[1:] - w[:-1]), n + 1,
                                  series_tol)
    # + 0.0 leaves no -0.0
    return _finite(factor * w[m] + 0.0), w[m], n_used, tail, conv


def _chunked(xs):
    """A stack of states as its whole chunks, one (chunks, _CHUNK p, W)
    stack, and the rest, one (1, m p, W) stack; either is left out when
    empty."""
    m, p, w = xs.shape
    cut = m - m % _CHUNK
    groups = [xs[:cut].reshape(cut // _CHUNK, _CHUNK * p, w)] if cut else []
    if cut < m:
        groups.append(xs[cut:].reshape(1, (m - cut) * p, w))
    return groups


def _finite(values):
    """``values``, refused once they have overflowed."""
    if not np.isfinite(values).all():
        raise NumericalFailureError("values overflowed the float range")
    return values
