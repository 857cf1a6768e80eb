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
B_k^{-1} A_{k,k-1}, B_k = A_{k,k+1}, built from one ``prefix()`` and kept
on the matrix, so a call needs no ``prefix()`` and no inverse per step.
Regularity is checked where the plan is built, over the blocks it reads,
once per build.  Pointwise, the states D_k, E_k of all points advance
together as the columns of one (p, W) matrix, one small GEMM per step,
and series terms are formed per chunk of steps by one batched matmul;
``_SeriesAccumulator`` is the one series stop rule.  Symbolically, the
same step runs on coefficients laid side by side.  For p = 1 and two
points (a left point w and a right point v: the quartet and the extremal
transform) the scalar path ``_scalar_series`` runs the same recurrence in
plain complex arithmetic on coefficient lists kept with the plan.  The
pointwise engine has fixed seeds, those of normalized solutions: D_0 = I
for the first kind and E_1 = B_0^{-1} for the second.
"""

from dataclasses import dataclass

import numpy as np

from . import matkernel as mk
from .errors import (InvalidInputError, NumericalFailureError, OutOfRangeError)
from .jacobi import REG_TOL, BlockJacobiMatrix, validate_regular


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MatrixPoly:
    """Matrix polynomial with stacked coefficients.

    ``coeffs[i]`` multiplies lam^i.  Trailing zero coefficients are allowed;
    the degree is the index of the last nonzero coefficient (-1 for the zero
    polynomial).
    """

    p: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 3 or c.shape[1] != self.p or c.shape[2] != self.p:
            raise InvalidInputError(
                f"coefficients must have shape (m, {self.p}, {self.p}), "
                f"got {c.shape}")
        if c.shape[0] < 1:
            c = np.zeros((1, self.p, self.p), dtype=complex)
        if not np.isfinite(c).all():
            raise InvalidInputError("polynomial has non-finite coefficients")
        object.__setattr__(self, "coeffs", _freeze(c))

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
    lead_inv: tuple  # cached inverses of the (nondegenerate) leading coeffs

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
                      tuple(_freeze(m) for m in lead_inv))


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

_CHUNK = 16  # recurrence steps whose series terms are formed in one matmul


def _recurrence(j: BlockJacobiMatrix, n: int):
    """Step data of the first n recurrence steps, cached on ``j``.

    Returns (plan, diag, off, b, a, ac).  Row k of the plan is
    [-B_k^{-1} A_{k,k-1} | B_k^{-1} | -B_k^{-1} A_{k,k}] with B_k = A_{k,k+1}
    and A_{0,-1} = 0, so that

        X_{k+1} = row_k @ [X_{k-1}; z X_k; X_k].

    ``diag`` and ``off`` stack A_kk and A_{k,k+1}, the bands of J.  For
    p = 1, b, a and ac list A_kk, A_{k,k+1} and its conjugate as plain
    complex numbers for the scalar path (None otherwise).  The longest data
    built so far is kept in ``j.memo`` and serves every shorter request; it
    comes from one ``prefix`` and one batched inverse, and dies with the
    matrix.  Each build checks the blocks of that prefix with
    ``validate_regular`` and raises InvalidInputError naming the first
    violation, so every user of the engine refuses a non-regular matrix.
    """
    rec = j.memo.get("recurrence")
    if rec is not None and len(rec[0]) >= n:
        return rec
    p = j.p
    jp = j.prefix(n + 1)
    report = validate_regular(jp)
    if not report.ok:
        k, kind, mag = report.first_violation
        raise InvalidInputError(
            f"matrix is not a regular block Jacobi matrix: block {k} "
            f"{kind} (magnitude {mag:.3e})")
    off = _freeze(np.array(jp.offdiag, dtype=complex).reshape(n, p, p))
    diag = _freeze(np.array(jp.diag[:n], dtype=complex).reshape(n, p, p))
    b_inv = np.linalg.inv(off)
    sub = np.zeros_like(off)
    sub[1:] = np.conj(np.swapaxes(off[:-1], 1, 2))         # A_{k,k-1}
    plan = np.concatenate([-(b_inv @ sub), b_inv, -(b_inv @ diag)], axis=2)
    plan.setflags(write=False)
    b = a = ac = None
    if p == 1:
        b, a, ac = (diag.ravel().tolist(), off.ravel().tolist(),
                    off.ravel().conj().tolist())
    rec = (plan, diag, off, b, a, ac)
    j.memo["recurrence"] = rec
    return rec


def _available_terms(j: BlockJacobiMatrix, n_max: int) -> int:
    if n_max < 0:
        raise InvalidInputError(f"n_max must be >= 0, got {n_max}")
    if j.generator is not None:
        return n_max
    return min(n_max, j.n_blocks - 1)


def _coefficients(j: BlockJacobiMatrix, n: int, seed, second: bool):
    """Coefficients of X_0..X_n as an (n+1, n+1, p, p) array.

    Entry [k, i] multiplies lam^i in X_k.  The coefficient-layout twin of
    ``_state_chunks``: X_k holds its coefficients side by side as a
    (p, (n+1)p) matrix, "z X_k" is X_k shifted one block to the right, and
    each step is one GEMM with the same plan row.  The first kind starts
    from D_{-1} = 0 and D_0 = ``seed``; the second from E_0 = 0 with
    ``seed`` = D_0^{-H} in the z X_0 slot, so that E_1 = B_0^{-1} D_0^{-H}.
    """
    if n < 0:
        raise InvalidInputError(f"n must be >= 0, got {n}")
    p = seed.shape[0]
    plan = _recurrence(j, n)[0]
    # h[i] = (z X, X) of state i - 1; step k reads [X, zX, X] of states
    # k - 1, k and writes state k + 1
    h = np.zeros((n + 2, 2, p, (n + 1) * p), dtype=complex)
    h[1, 0 if second else 1, :, :p] = seed
    h[1, 0, :, p:] = h[1, 1, :, :-p]
    flat = h.reshape(2 * p * (n + 2), (n + 1) * p)
    for k, row in enumerate(plan[:n]):
        np.matmul(row, flat[(2 * k + 1) * p:(2 * k + 4) * p], out=h[k + 2, 1])
        h[k + 2, 0, :, p:] = h[k + 2, 1, :, :-p]
    return h[1:, 1].reshape(n + 1, p, n + 1, p).transpose(0, 2, 1, 3)


def _state_chunks(j: BlockJacobiMatrix, zs, second, n: int):
    """Yield stacks of X_k, k = 0..n, in chunks of at most _CHUNK steps.

    X_k is a (p, W) matrix of p-wide column blocks, one per entry of
    ``zs``: D_k at that point, or E_k where ``second`` is set.  Both kinds
    share the recurrence and differ only in their fixed seeds: D_{-1} = 0
    with D_0 = I, and E_0 = 0 with E_1 = B_0^{-1}, which the first step
    produces when the z X_0 slot of E columns holds I.  A yielded stack is
    overwritten when the generator resumes.
    """
    p = j.p
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    is_e = np.repeat(np.asarray(second, dtype=bool).reshape(-1), p)
    zrow = np.repeat(zs, p)
    w = zrow.size
    plan = _recurrence(j, n)[0]
    # h[i] = (z X, X) of one state; a chunk starts from X_{k0-1}, X_{k0}
    h = np.zeros((min(_CHUNK, n + 1) + 2, 2, p, w), dtype=complex)
    eye = np.tile(np.eye(p, dtype=complex), len(zs))
    h[1, 1] = np.where(is_e, 0.0, eye)
    h[1, 0] = np.where(is_e, eye, h[1, 1] * zrow)
    flat = h.reshape(2 * p * len(h), w)
    # step i reads [X, zX, X] of states i-1, i and writes state i+1
    steps = [(flat[(2 * i - 1) * p:(2 * i + 2) * p], h[i + 1, 1], h[i + 1, 0])
             for i in range(1, len(h) - 1)]
    k0 = 0
    while k0 <= n:
        m = min(_CHUNK, n + 1 - k0)
        for row, (src, x, zx) in zip(plan[k0:n], steps[:m]):
            np.matmul(row, src, out=x)
            np.multiply(x, zrow, out=zx)
        yield h[1:m + 1, 1]
        h[:2] = h[m:m + 2]
        k0 += m


def first_kind_values(j: BlockJacobiMatrix, zs, n: int):
    """Yield D_k(z) for k = 0..n, D_0 = I, batched over the points ``zs``.

    Pointwise form of the recurrence, read off the engine's states; yields
    arrays of shape (B, p, p).  A non-regular matrix raises
    InvalidInputError, as does n < 0.
    """
    if n < 0:
        raise InvalidInputError(f"n must be >= 0, got {n}")
    p = j.p
    z = np.asarray(zs, dtype=complex).reshape(-1)
    for xs in _state_chunks(j, z, np.zeros(z.size, dtype=bool), n):
        yield from xs.reshape(len(xs), p, z.size, p).transpose(0, 2, 1, 3)\
            .copy()


class _SeriesAccumulator:
    """Stop rule shared by all series: two consecutive quiet increments.

    Term parity can zero out every other increment, so one quiet step is
    not evidence of convergence.
    """

    def __init__(self, series_tol: float):
        self.tol = series_tol
        self.inc_prev = np.inf
        self.inc_last = np.inf
        self.steps = 0

    def push(self, increment: float) -> bool:
        self.inc_prev, self.inc_last = self.inc_last, increment
        self.steps += 1
        return (self.steps >= 3
                and max(self.inc_prev, self.inc_last) < self.tol)

    def push_chunk(self, increments) -> int | None:
        """Push increments in order until the rule fires.

        Returns how many were consumed when it fired, or None when it did
        not; the state then matches pushing them one at a time.
        """
        for i, inc in enumerate(increments.tolist()):
            if self.push(inc):
                return i + 1
        return None

    @property
    def tail(self) -> float:
        if not np.isfinite(self.inc_prev):
            return self.inc_last if np.isfinite(self.inc_last) else 0.0
        return max(self.inc_prev, self.inc_last)


def _series(j, zs, second, n_left: int, weight, n_terms: int,
            series_tol: float):
    """sum_{k=0}^{n} weight * L_k^H R_k over the shared recurrence.

    L_k are the first ``n_left`` column blocks of X_k and R_k the rest
    (see ``_state_chunks``); ``weight`` broadcasts against each term.  The
    stop rule sees the largest entry of each weighted term.  Returns
    (sum, n_used, tail_norm, converged), with n_used the last k summed.
    """
    cols = n_left * j.p
    total = 0.0
    acc = _SeriesAccumulator(series_tol)
    k0 = 0
    for xs in _state_chunks(j, zs, second, n_terms):
        terms = weight * (np.conj(np.swapaxes(xs[..., :cols], 1, 2))
                          @ xs[..., cols:])
        stop = acc.push_chunk(np.abs(terms).max(axis=(1, 2), initial=0.0))
        total = total + terms[:stop].sum(axis=0)
        if stop is not None:
            return total, k0 + stop - 1, acc.tail, True
        k0 += len(xs)
    return total, n_terms, acc.tail, False


def _scalar_series(j, w: complex, v: complex, weight, start, watch,
                   n_terms: int, series_tol: float):
    """The p = 1 form of ``_series`` for one left point w, one right v.

    Advances D and E at w and at v with plain complex arithmetic, an order
    of magnitude faster than numpy scalars, and sums
    weight_L * conj(L_k(w)) R_k(v) for (L, R) = DD, DE, ED, EE, in that
    order, from D_0 = 1 and E_1 = 1 / A_01.  ``weight`` is (weight_D,
    weight_E), or None for no factor (a complex factor 1 can flip the sign
    of a zero part).  The DD sum starts from its k = 0 term; E_0 = 0, so
    the other three start from the constants in ``start``.  The stop rule
    sees the largest absolute term among those ``watch`` flags.  Returns
    (sums, n_used, tail_norm, converged).
    """
    b, a, ac = _recurrence(j, n_terms)[3:]
    d0 = 1 + 0j
    e1 = 1 / a[0] if n_terms >= 1 else 0j
    wd, we = weight or (None, None)
    w_dd, w_de, w_ed, w_ee = watch
    dw_p, dw, ew_p, ew = 0j, d0, 0j, 0j
    dv_p, dv, ev_p, ev = 0j, d0, 0j, 0j
    dd = dw.conjugate() * dv if wd is None else wd * (dw.conjugate() * dv)
    de, ed, ee = start
    acc = _SeriesAccumulator(series_tol)
    acc.push(abs(dd) if w_dd else 0.0)
    for k in range(n_terms):
        if k == 0:
            dw_n = (w * dw - b[0] * dw) / a[0]
            dv_n = (v * dv - b[0] * dv) / a[0]
            ew_n = ev_n = e1
        else:
            dw_n = (w * dw - b[k] * dw - ac[k - 1] * dw_p) / a[k]
            dv_n = (v * dv - b[k] * dv - ac[k - 1] * dv_p) / a[k]
            ew_n = (w * ew - b[k] * ew - ac[k - 1] * ew_p) / a[k]
            ev_n = (v * ev - b[k] * ev - ac[k - 1] * ev_p) / a[k]
        dw_p, dw, ew_p, ew = dw, dw_n, ew, ew_n
        dv_p, dv, ev_p, ev = dv, dv_n, ev, ev_n
        cd, ce = dw.conjugate(), ew.conjugate()
        t_dd, t_de, t_ed, t_ee = cd * dv, cd * ev, ce * dv, ce * ev
        if wd is not None:
            t_dd, t_de, t_ed, t_ee = (wd * t_dd, wd * t_de, we * t_ed,
                                      we * t_ee)
        dd += t_dd
        de += t_de
        ed += t_ed
        ee += t_ee
        if acc.push(max(abs(t_dd) if w_dd else 0.0,
                        abs(t_de) if w_de else 0.0,
                        abs(t_ed) if w_ed else 0.0,
                        abs(t_ee) if w_ee else 0.0)):
            return (dd, de, ed, ee), k + 1, acc.tail, True
    return (dd, de, ed, ee), n_terms, acc.tail, False
