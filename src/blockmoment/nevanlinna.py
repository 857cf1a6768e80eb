"""Second-kind polynomials, the entire quartet, and solution transforms.

Everything here lives in the completely indeterminate regime
(nu_+ = nu_- = p), where the series below converge at every complex point:

* second-kind polynomials E_k(z) = {(D_k(lam) - D_k(z)) / (lam - z), I},
  of exact degree k-1, with E_0 = 0;
* the entire quartet

      F1(z) = I + z sum_{k>=1} E_k*(z) D_k(0)
      F2(z) =     z sum_{k>=1} E_k*(z) E_k(0)
      G1(z) =   - z sum_{k>=0} D_k*(z) D_k(0)
      G2(z) = I - z sum_{k>=1} D_k*(z) E_k(0)

  with the star-evaluation convention X*(z) := eval(star(X), z), i.e.
  X*(z) = [X(conj z)]^H;
* the extremal-solution transform (lower half-plane), the contraction
  parametrization (upper half-plane), and self-adjoint-extension spectra via
  the determinant equation det[G1(I+U) + i G2(I-U)] = 0.

Half-plane conventions are enforced exactly as stated on each operation; no
analytic continuation across the real axis is attempted.  Series are
truncated by a declared increment rule and the truncation state
(``n_used``, ``tail_norm``, ``converged``) is reported, never hidden. When a
caller supplies V as a per-point sampler, holomorphy of the sampler is the
caller's responsibility: it cannot be verified pointwise.

For p >= 2 every series runs on one engine.  A recurrence plan (the stacked
B_k^{-1}, B_k^{-1} A_kk, B_k^{-1} A_{k,k-1}, B_k = A_{k,k+1}) is built once
per matrix and kept on it, so its lifetime is the matrix's; a call then
needs no ``prefix()`` and no inverse per step.  The states D_k, E_k of all
points advance together as the columns of one (p, W) matrix, one small
GEMM per step, and the series terms are formed per chunk of steps by one
batched matmul.  The p = 1 series keep plain complex recurrences.
"""

from dataclasses import dataclass

import numpy as np

from . import matkernel as mk
from .errors import (HalfPlaneError, InvalidInputError,
                     NumericalFailureError, OutOfRangeError, PoleError,
                     RefusedError)
from .jacobi import BlockJacobiMatrix
from .polys import MatrixPoly, OrthoBasis, _require_nonsingular, form
from .spectral import (KERNEL_N_MAX, Determinacy, DeterminacyClass, classify,
                       kernel_partial)

SERIES_TOL = 1e-12
SERIES_N_MAX = 400
ROOT_TOL = 1e-9
DEFAULT_GRID = 2000

_CONTRACTION_SLACK = 1e-12


# ---------------------------------------------------------------------------
# second-kind polynomials (symbolic)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecondKindBasis:
    """E_0..E_n alongside the first-kind basis that generated them."""

    basis: OrthoBasis
    epolys: tuple

    @property
    def n(self) -> int:
        return len(self.epolys) - 1


def second_kind(basis: OrthoBasis, n: int) -> SecondKindBasis:
    """Build E_0..E_n symbolically (polynomials in z).

    Applying the form in the lam variable to the divided difference of
    D_k gives, coefficient by coefficient,

        E_k(z) = sum_{m=0}^{k-1} z^m  sum_{j>=0} C_{j+m+1} S_j,

    where C_i are the coefficients of D_k; exact degree k-1 follows from
    the nondegenerate leading coefficient C_k and nonsingular S_0.
    """
    if n > basis.n:
        raise OutOfRangeError(
            f"second kind needs first-kind basis of length {n}, "
            f"got {basis.n}")
    p = basis.p
    eye = np.eye(p, dtype=complex)
    ident = MatrixPoly.constant(eye)
    moments = [mk.hermitian_part(form(MatrixPoly.monomial(j, eye), ident,
                                      basis))
               for j in range(max(n, 1))]
    epolys = [MatrixPoly.zero(p)]
    for k in range(1, n + 1):
        c = basis.polys[k].coeffs
        coeffs = np.zeros((k, p, p), dtype=complex)
        for m in range(k):
            acc = np.zeros((p, p), dtype=complex)
            for j in range(k - m):
                acc += c[j + m + 1] @ moments[j]
            coeffs[m] = acc
        epolys.append(MatrixPoly(p, coeffs))
    return SecondKindBasis(basis=basis, epolys=tuple(epolys))


# ---------------------------------------------------------------------------
# pointwise series machinery
# ---------------------------------------------------------------------------

_CHUNK = 16  # recurrence steps whose series terms are formed in one matmul


def _recurrence_plan(j: BlockJacobiMatrix, n: int) -> np.ndarray:
    """Step matrices of the first n recurrence steps, cached on ``j``.

    Row k is [-B_k^{-1} A_{k,k-1} | B_k^{-1} | -B_k^{-1} A_{k,k}] with
    B_k = A_{k,k+1} and A_{0,-1} = 0, so that

        X_{k+1} = row_k @ [X_{k-1}; z X_k; X_k].

    The longest plan built so far is kept in ``j.memo`` and serves every
    shorter request; it is built from one ``prefix`` and one batched
    inverse, so it dies with the matrix.
    """
    plan = j.memo.get("recurrence_plan")
    if plan is not None and len(plan) >= n:
        return plan
    p = j.p
    jp = j.prefix(n + 1)
    off = np.array(jp.offdiag, dtype=complex).reshape(n, p, p)
    diag = np.array(jp.diag[:n], dtype=complex).reshape(n, p, p)
    b_inv = np.linalg.inv(off)
    sub = np.zeros_like(off)
    sub[1:] = np.conj(np.swapaxes(off[:-1], 1, 2))         # A_{k,k-1}
    plan = np.concatenate([-(b_inv @ sub), b_inv, -(b_inv @ diag)], axis=2)
    plan.setflags(write=False)
    j.memo["recurrence_plan"] = plan
    return plan


def _d0_seeds(d0, p: int):
    """Validated D_0 and D_0^{-H}, the seeds of the two polynomial kinds."""
    if d0 is None:
        eye = np.eye(p, dtype=complex)
        return eye, eye
    d0m = _require_nonsingular(mk.as_complex_matrix(d0, p), "D_0")
    return d0m, np.linalg.inv(d0m).conj().T


def _state_chunks(j: BlockJacobiMatrix, zs, second, n: int, seeds):
    """Yield stacks of X_k, k = 0..n, in chunks of at most _CHUNK steps.

    X_k is a (p, W) matrix of p-wide column blocks, one per entry of
    ``zs``: D_k at that point, or E_k where ``second`` is set.  Both kinds
    share the recurrence and differ only in their seeds: D_{-1} = 0 with
    D_0, and E_0 = 0 with E_1 = B_0^{-1} D_0^{-H}, which the first step
    produces when the z X_0 slot of E columns holds D_0^{-H}.
    """
    d0m, e1 = seeds
    p = d0m.shape[0]
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    is_e = np.repeat(np.asarray(second, dtype=bool).reshape(-1), p)
    zrow = np.repeat(zs, p)
    w = zrow.size
    plan = _recurrence_plan(j, n)
    # h[i] = (z X, X) of one state; a chunk starts from X_{k0-1}, X_{k0}
    h = np.zeros((min(_CHUNK, n + 1) + 2, 2, p, w), dtype=complex)
    h[1, 1] = np.where(is_e, 0.0, np.tile(d0m, len(zs)))
    h[1, 0] = np.where(is_e, np.tile(e1, len(zs)), h[1, 1] * zrow)
    flat = h.reshape(-1, w)
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


def _series(j, zs, second, n_left: int, weight, n_terms: int,
            series_tol: float, seeds):
    """sum_{k=0}^{n} weight * L_k^H R_k over the shared recurrence.

    L_k are the first ``n_left`` column blocks of X_k and R_k the rest
    (see ``_state_chunks``); ``weight`` broadcasts against each term.  The
    stop rule sees the largest entry of each weighted term.  Returns
    (sum, n_used, tail_norm, converged), with n_used the last k summed.
    """
    cols = n_left * seeds[0].shape[0]
    total = 0.0
    acc = _SeriesAccumulator(series_tol)
    k0 = 0
    for xs in _state_chunks(j, zs, second, n_terms, seeds):
        terms = weight * (np.conj(np.swapaxes(xs[..., :cols], 1, 2))
                          @ xs[..., cols:])
        stop = acc.push_chunk(np.abs(terms).max(axis=(1, 2), initial=0.0))
        total = total + terms[:stop].sum(axis=0)
        if stop is not None:
            return total, k0 + stop - 1, acc.tail, True
        k0 += len(xs)
    return total, n_terms, acc.tail, False


def _scalar_data(j: BlockJacobiMatrix, n: int):
    """First n diagonal/off-diagonal entries as plain complex lists (p=1).

    Python complex arithmetic keeps the long scalar recurrences an order
    of magnitude faster than numpy scalars; generator output is consumed
    directly instead of materializing a validated prefix.
    """
    b = [complex(blk[0, 0]) for blk in j.diag[:n]]
    a = [complex(blk[0, 0]) for blk in j.offdiag[:n]]
    if len(b) < n or len(a) < n:
        if j.generator is None:
            raise OutOfRangeError(
                f"need {n} blocks but only {j.n_blocks} are stored and no "
                "generator rule is attached")
        for k in range(min(len(b), len(a)), n):
            dblk, oblk = j.generator(k)
            if k >= len(b):
                b.append(complex(np.asarray(dblk)[0, 0]))
            if k >= len(a):
                a.append(complex(np.asarray(oblk)[0, 0]))
    return b, a


def _available_terms(j: BlockJacobiMatrix, n_max: int) -> int:
    if j.generator is not None:
        return n_max
    return min(n_max, j.n_blocks - 1)


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


@dataclass(frozen=True)
class QuartetValue:
    """F1, F2, G1, G2 at one point, with truncation diagnostics."""

    z: complex
    f1: np.ndarray
    f2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    n_used: int
    tail_norm: float
    converged: bool


def _quartet_sums_scalar(j, z, n_terms, series_tol, seeds):
    z = complex(z)
    zb = z.conjugate()
    b, a = _scalar_data(j, n_terms)
    ac = [x.conjugate() for x in a]
    d0c = complex(seeds[0][0, 0])
    e1 = 1.0 / (a[0] * d0c.conjugate()) if n_terms >= 1 else 0j
    dzb_p, dzb = 0j, d0c
    ezb_p, ezb = 0j, 0j
    d0_p, d0v = 0j, d0c
    e0_p, e0v = 0j, 0j
    f1 = 1.0 + 0j
    f2 = 0j
    g1 = -z * (dzb.conjugate() * d0v)
    g2 = 1.0 + 0j
    acc = _SeriesAccumulator(series_tol)
    acc.push(abs(g1))
    n_used, converged = 0, False
    for k in range(n_terms):
        if k == 0:
            dzb_n = (zb * dzb - b[0] * dzb) / a[0]
            d0_n = (-b[0] * d0v) / a[0]
            ezb_n = e1
            e0_n = e1
        else:
            dzb_n = (zb * dzb - b[k] * dzb - ac[k - 1] * dzb_p) / a[k]
            d0_n = (-b[k] * d0v - ac[k - 1] * d0_p) / a[k]
            ezb_n = (zb * ezb - b[k] * ezb - ac[k - 1] * ezb_p) / a[k]
            e0_n = (-b[k] * e0v - ac[k - 1] * e0_p) / a[k]
        dzb_p, dzb = dzb, dzb_n
        d0_p, d0v = d0v, d0_n
        ezb_p, ezb = ezb, ezb_n
        e0_p, e0v = e0v, e0_n
        ds, es = dzb.conjugate(), ezb.conjugate()
        t_f1 = z * (es * d0v)
        t_f2 = z * (es * e0v)
        t_g1 = -z * (ds * d0v)
        t_g2 = -z * (ds * e0v)
        f1 += t_f1
        f2 += t_f2
        g1 += t_g1
        g2 += t_g2
        n_used = k + 1
        if acc.push(max(abs(t_f1), abs(t_f2), abs(t_g1), abs(t_g2))):
            converged = True
            break
    one = np.ones((1, 1), dtype=complex)
    return (f1 * one, f2 * one, g1 * one, g2 * one, n_used, acc.tail,
            converged)


def _quartet_sums_block(j, z, n_terms, series_tol, seeds):
    p = j.p
    zb = z.conjugate()
    t, n_used, tail, converged = _series(
        j, [zb, zb, 0.0, 0.0], [False, True, False, True], 2, z, n_terms,
        series_tol, seeds)
    eye = np.eye(p, dtype=complex)
    return (eye + t[p:, :p], t[p:, p:], -t[:p, :p], eye - t[:p, p:], n_used,
            tail, converged)


def _ensure_completely_indeterminate(j, determinacy, n_max_classify):
    cls = classify(j, n_max=n_max_classify) if determinacy is None \
        else determinacy
    if not isinstance(cls, DeterminacyClass):
        raise InvalidInputError("determinacy must be a DeterminacyClass")
    if cls.kind is not Determinacy.COMPLETELY_INDETERMINATE:
        raise RefusedError(
            f"operation needs a completely indeterminate problem, got {cls}")
    return cls


def quartet(j: BlockJacobiMatrix, z: complex, n_max: int = SERIES_N_MAX,
            series_tol: float = SERIES_TOL, d0=None,
            determinacy: DeterminacyClass | None = None,
            n_max_classify: int = KERNEL_N_MAX) -> QuartetValue:
    """Evaluate F1, F2, G1, G2 at ``z`` by truncated series.

    Refused unless the problem is completely indeterminate (pass a
    precomputed ``determinacy`` to skip re-classification).  Truncation
    stops once all four increments stay below ``series_tol`` for two
    consecutive terms, or at ``n_max``; ``converged`` reports which.
    Values are returned either way, with the last increment size in
    ``tail_norm``.
    """
    seeds = _d0_seeds(d0, j.p)
    _ensure_completely_indeterminate(j, determinacy, n_max_classify)
    z = complex(z)
    n_terms = _available_terms(j, n_max)
    sums = _quartet_sums_scalar if j.p == 1 else _quartet_sums_block
    f1, f2, g1, g2, n_used, tail, conv = sums(j, z, n_terms, series_tol,
                                              seeds)
    return QuartetValue(z=z, f1=f1, f2=f2, g1=g1, g2=g2, n_used=n_used,
                        tail_norm=tail, converged=conv)


# ---------------------------------------------------------------------------
# solution transforms
# ---------------------------------------------------------------------------

def _pair_sums(j, z, xi, n_terms, series_tol, seeds):
    """N(z, xi) = sum_{k>=1} E_k*(z) D_k(xi), Den = sum_{k>=0} D_k*(z) D_k(xi)."""
    p = j.p
    if p == 1:
        z = complex(z)
        zb = z.conjugate()
        xi = complex(xi)
        b, a = _scalar_data(j, n_terms)
        ac = [x.conjugate() for x in a]
        d0s = complex(seeds[0][0, 0])
        e1 = 1.0 / (a[0] * d0s.conjugate()) if n_terms >= 1 else 0j
        dzb_p, dzb = 0j, d0s
        ezb_p, ezb = 0j, 0j
        dxi_p, dxi = 0j, d0s
        num = 0j
        den = dzb.conjugate() * dxi
        acc = _SeriesAccumulator(series_tol)
        acc.push(abs(den))
        converged = False
        for k in range(n_terms):
            if k == 0:
                dzb_n = (zb * dzb - b[0] * dzb) / a[0]
                dxi_n = (xi * dxi - b[0] * dxi) / a[0]
                ezb_n = e1
            else:
                dzb_n = (zb * dzb - b[k] * dzb - ac[k - 1] * dzb_p) / a[k]
                dxi_n = (xi * dxi - b[k] * dxi - ac[k - 1] * dxi_p) / a[k]
                ezb_n = (zb * ezb - b[k] * ezb - ac[k - 1] * ezb_p) / a[k]
            dzb_p, dzb = dzb, dzb_n
            dxi_p, dxi = dxi, dxi_n
            ezb_p, ezb = ezb, ezb_n
            t_num = ezb.conjugate() * dxi
            t_den = dzb.conjugate() * dxi
            num += t_num
            den += t_den
            if acc.push(max(abs(t_num), abs(t_den))):
                converged = True
                break
        one = np.ones((1, 1), dtype=complex)
        return num * one, den * one, converged
    zb = np.conj(z)
    t, _, _, converged = _series(j, [zb, zb, xi], [False, True, False], 2,
                                 1.0, n_terms, series_tol, seeds)
    return t[p:], t[:p], converged


def transform_extremal(j: BlockJacobiMatrix, xi: float, z: complex,
                       n_max: int = SERIES_N_MAX,
                       series_tol: float = SERIES_TOL, d0=None,
                       determinacy: DeterminacyClass | None = None,
                       n_max_classify: int = KERNEL_N_MAX) -> np.ndarray:
    """Stieltjes transform of the extremal solution T_xi, for Im z < 0.

    T_xi is the unique normalized solution attaining the maximal jump at
    xi.  Computed as

        m(z) = (xi - z)^{-1} [I + (z - xi) N(z)] [Den(z)]^{-1},

    with N and Den the second-kind/first-kind series against D_k(xi); the
    leading sign is fixed so that m is a genuine Stieltjes transform
    (Herglotz in the lower half-plane, positive extremal mass).
    """
    z = complex(z)
    xi = float(xi)
    if z.imag >= 0:
        raise HalfPlaneError(
            f"extremal transform is defined for Im z < 0, got z={z}")
    seeds = _d0_seeds(d0, j.p)
    _ensure_completely_indeterminate(j, determinacy, n_max_classify)
    n_terms = _available_terms(j, n_max)
    num, den, _ = _pair_sums(j, z, xi, n_terms, series_tol, seeds)
    p = num.shape[0]
    svals = np.linalg.svd(den, compute_uv=False)
    if svals[-1] <= 1e-14 * max(1.0, svals[0]):
        raise NumericalFailureError(
            f"kernel bracket at z={z} is numerically singular "
            f"(condition estimate {svals[0] / max(svals[-1], 1e-300):.3e})")
    bracket = np.eye(p, dtype=complex) + (z - xi) * num
    return (bracket @ np.linalg.inv(den)) / (xi - z)


def jump_bound(j: BlockJacobiMatrix, xi: float, n: int, d0=None) -> np.ndarray:
    """K_n(xi)^{-1}: Loewner upper bound on any solution's jump at xi.

    Decreasing in n.  K_n(xi) >= D_0^H D_0 > 0, so a singular kernel here
    is an internal invariant violation, not an input problem.
    """
    xi = float(xi)
    k = kernel_partial(j, xi, n, _d0_seeds(d0, j.p)[0])
    w, v = np.linalg.eigh(k)
    if w[0] <= 0:
        raise NumericalFailureError(
            f"kernel partial sum at xi={xi} lost positive definiteness "
            f"(min eigenvalue {w[0]:.3e})")
    return mk.hermitian_part((v / w) @ v.conj().T)


def _contraction_value(v, p, z):
    if callable(v):
        m = mk.as_complex_matrix(v(z), p)
    else:
        m = mk.as_complex_matrix(v, p)
    norm = mk.spectral_norm(m)
    if norm > 1.0 + _CONTRACTION_SLACK:
        raise InvalidInputError(
            f"parameter V must be a contraction, got norm {norm:.6f}")
    return m


def transform_from_V(j: BlockJacobiMatrix, z: complex, v,
                     n_max: int = SERIES_N_MAX,
                     series_tol: float = SERIES_TOL, d0=None,
                     determinacy: DeterminacyClass | None = None,
                     n_max_classify: int = KERNEL_N_MAX) -> np.ndarray:
    """Stieltjes transform of the solution parametrized by V, Im z > 0.

        m(z) = [F1(I+V) + i F2(I-V)] [G1(I+V) + i G2(I-V)]^{-1}.

    ``v`` is a constant matrix with spectral norm <= 1, or a callable
    ``z -> V(z)`` sampled pointwise (holomorphy is the caller's
    responsibility).  V = I reduces to F1 G1^{-1}, V = -I to F2 G2^{-1};
    unitary V yields the discrete extremal solutions, with poles exactly
    at the extension-spectrum roots for the same matrix.

    Caution: for *strictly* contractive V this formula, taken at face
    value, can lose the Herglotz sign in a strip near the real axis
    (measured on the indeterminate fixtures; not a truncation artifact).
    The scalar substitution V -> 1/V maps it onto the everywhere-Herglotz
    family with the same unitary members, so interior members are best
    trusted at moderate distance from the axis.
    """
    z = complex(z)
    if z.imag <= 0:
        raise HalfPlaneError(
            f"the V-parametrization is defined for Im z > 0, got z={z}")
    cls = _ensure_completely_indeterminate(j, determinacy, n_max_classify)
    vm = _contraction_value(v, j.p, z)
    q = quartet(j, z, n_max=n_max, series_tol=series_tol, d0=d0,
                determinacy=cls)
    eye = np.eye(j.p, dtype=complex)
    plus = eye + vm
    minus = eye - vm
    num = q.f1 @ plus + 1j * (q.f2 @ minus)
    den = q.g1 @ plus + 1j * (q.g2 @ minus)
    svals = np.linalg.svd(den, compute_uv=False)
    if svals[-1] <= 1e-14 * max(1.0, svals[0]):
        raise PoleError(
            f"denominator is singular at z={z}: the point sits on (or too "
            "close to) the spectrum of the chosen extension")
    return num @ np.linalg.inv(den)


# ---------------------------------------------------------------------------
# extension spectra
# ---------------------------------------------------------------------------

def _require_unitary(u, p) -> np.ndarray:
    m = mk.as_complex_matrix(u, p)
    defect = mk.spectral_norm(m.conj().T @ m - np.eye(p))
    if defect > 1e-10:
        raise InvalidInputError(
            f"U must be unitary (U^H U - I has norm {defect:.3e})")
    return m


def _g_point_scalar(x, b, a, ac, d0s, e1, n_terms, series_tol):
    """G1(x), G2(x) at one real point by plain complex recurrences."""
    dl_p, dl = 0j, d0s
    d0_p, d0v = 0j, d0s
    e0_p, e0v = 0j, 0j
    g1 = -x * (dl.conjugate() * d0v)
    g2 = 1.0 + 0j
    acc = _SeriesAccumulator(series_tol)
    acc.push(abs(g1))
    for k in range(n_terms):
        if k == 0:
            dl_n = (x * dl - b[0] * dl) / a[0]
            d0_n = (-b[0] * d0v) / a[0]
            e0_n = e1
        else:
            dl_n = (x * dl - b[k] * dl - ac[k - 1] * dl_p) / a[k]
            d0_n = (-b[k] * d0v - ac[k - 1] * d0_p) / a[k]
            e0_n = (-b[k] * e0v - ac[k - 1] * e0_p) / a[k]
        dl_p, dl = dl, dl_n
        d0_p, d0v = d0v, d0_n
        e0_p, e0v = e0v, e0_n
        ds = dl.conjugate()
        t_g1 = -x * (ds * d0v)
        t_g2 = -x * (ds * e0v)
        g1 += t_g1
        g2 += t_g2
        if acc.push(max(abs(t_g1), abs(t_g2))):
            break
    return g1, g2


def _g_values_scalar(j, lam, n_terms, series_tol, seeds):
    d0s = complex(seeds[0][0, 0])
    b, a = _scalar_data(j, n_terms)
    ac = [x.conjugate() for x in a]
    e1 = 1.0 / (a[0] * d0s.conjugate()) if n_terms >= 1 else 0j
    if lam.size <= 4:
        vals = [_g_point_scalar(complex(x), b, a, ac, d0s, e1, n_terms,
                                series_tol) for x in lam]
        g1 = np.array([v[0] for v in vals], dtype=complex)
        g2 = np.array([v[1] for v in vals], dtype=complex)
        return g1.reshape(lam.size, 1, 1), g2.reshape(lam.size, 1, 1)
    lamc = lam.astype(complex)
    ba = np.asarray(b, dtype=complex)
    aa = np.asarray(a, dtype=complex)
    aca = np.asarray(ac, dtype=complex)
    dl_p = np.zeros_like(lamc)
    dl = np.full_like(lamc, d0s)
    d0_p, d0v = 0j, d0s
    e0_p, e0v = 0j, 0j
    g1 = -lamc * (np.conj(dl) * d0v)
    g2 = np.ones_like(lamc)
    acc = _SeriesAccumulator(series_tol)
    acc.push(float(np.abs(g1).max()) if lam.size else 0.0)
    for k in range(n_terms):
        if k == 0:
            dl_n = (lamc * dl - ba[0] * dl) / aa[0]
            d0_n = (-ba[0] * d0v) / aa[0]
            e0_n = e1
        else:
            dl_n = (lamc * dl - ba[k] * dl - aca[k - 1] * dl_p) / aa[k]
            d0_n = (-ba[k] * d0v - aca[k - 1] * d0_p) / aa[k]
            e0_n = (-ba[k] * e0v - aca[k - 1] * e0_p) / aa[k]
        dl_p, dl = dl, dl_n
        d0_p, d0v = d0v, d0_n
        e0_p, e0v = e0v, e0_n
        ds = np.conj(dl)
        t_g1 = -lamc * (ds * d0v)
        t_g2 = -lamc * (ds * e0v)
        g1 += t_g1
        g2 += t_g2
        inc = max(float(np.abs(t_g1).max()), float(np.abs(t_g2).max()))
        if acc.push(inc):
            break
    return g1.reshape(-1, 1, 1), g2.reshape(-1, 1, 1)


def _g_values(j, lam, n_terms, series_tol, seeds):
    """G1, G2 batched over real points; D_k(0), E_k(0) ride along."""
    p = j.p
    if p == 1 and lam.size:
        return _g_values_scalar(j, lam, n_terms, series_tol, seeds)
    zs = np.concatenate([lam, [0.0, 0.0]])
    second = np.arange(zs.size) == zs.size - 1
    weight = np.repeat(-lam, p)[:, None]
    t, _, _, _ = _series(j, zs, second, lam.size, weight, n_terms,
                         series_tol, seeds)
    g1 = t[:, :p].reshape(lam.size, p, p)
    g2 = np.eye(p, dtype=complex) + t[:, p:].reshape(lam.size, p, p)
    return g1, g2


def extension_bracket(j: BlockJacobiMatrix, u, lams,
                      n_max: int = SERIES_N_MAX,
                      series_tol: float = SERIES_TOL, d0=None) -> np.ndarray:
    """B(lam) = G1(lam)(I+U) + i G2(lam)(I-U) at real points.

    Returns a (len(lams), p, p) stack; determinacy is not re-checked here,
    so this is also usable as the residual probe for accepted roots.
    """
    u = _require_unitary(u, j.p)
    seeds = _d0_seeds(d0, j.p)
    lam = np.asarray(lams, dtype=float).reshape(-1)
    n_terms = _available_terms(j, n_max)
    g1, g2 = _g_values(j, lam, n_terms, series_tol, seeds)
    eye = np.eye(j.p, dtype=complex)
    return g1 @ (eye + u) + 1j * (g2 @ (eye - u))


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float, iters: int = 72) -> float:
    """Interval golden-section minimizer (deterministic iteration count)."""
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def extension_spectrum(j: BlockJacobiMatrix, u, interval, grid: int = DEFAULT_GRID,
                       root_tol: float = ROOT_TOL, n_max: int = SERIES_N_MAX,
                       series_tol: float = SERIES_TOL, d0=None,
                       determinacy: DeterminacyClass | None = None,
                       n_max_classify: int = KERNEL_N_MAX) -> list[float]:
    """Real roots of det[G1(I+U) + i G2(I-U)] on [a, b], sorted ascending.

    Scans |det| on a uniform grid, refines each local minimum by
    golden-section, and accepts a candidate only when the smallest singular
    value of the bracket matrix falls below ``root_tol`` times the local
    bracket scale (largest singular value over the refined point and its
    bracketing grid points).
    """
    a, b = (float(interval[0]), float(interval[1]))
    if not a < b:
        raise InvalidInputError(f"interval must satisfy a < b, got [{a}, {b}]")
    if grid < 8:
        raise InvalidInputError("grid must be >= 8")
    u = _require_unitary(u, j.p)
    _ensure_completely_indeterminate(j, determinacy, n_max_classify)
    lams = np.linspace(a, b, grid + 1)
    bmat = extension_bracket(j, u, lams, n_max=n_max, series_tol=series_tol,
                             d0=d0)
    svals = np.linalg.svd(bmat, compute_uv=False)
    absdet = np.abs(np.linalg.det(bmat))

    def g_single(lam: float) -> float:
        bb = extension_bracket(j, u, [lam], n_max=n_max,
                               series_tol=series_tol, d0=d0)[0]
        return float(abs(np.linalg.det(bb)))

    minima = []
    for i in range(len(lams)):
        left = absdet[i - 1] if i > 0 else np.inf
        right = absdet[i + 1] if i + 1 < len(lams) else np.inf
        if absdet[i] < left and absdet[i] <= right:
            minima.append(i)
    roots = []
    for i in minima:
        lo = lams[max(i - 1, 0)]
        hi = lams[min(i + 1, len(lams) - 1)]
        lam_star = _golden_min(g_single, lo, hi)
        bb = extension_bracket(j, u, [lam_star], n_max=n_max,
                               series_tol=series_tol, d0=d0)[0]
        s = np.linalg.svd(bb, compute_uv=False)
        scale = max(float(s[0]),
                    float(svals[max(i - 1, 0)][0]),
                    float(svals[min(i + 1, len(lams) - 1)][0]),
                    1e-300)
        if float(s[-1]) < root_tol * scale:
            roots.append(float(lam_star))
    roots.sort()
    out: list[float] = []
    for r in roots:
        if not out or r - out[-1] > 1e-9 * (1.0 + abs(r)):
            out.append(r)
    return out


# ---------------------------------------------------------------------------
# smoothed inversion
# ---------------------------------------------------------------------------

def stieltjes_invert(sampler, grid, eta: float) -> list:
    """eta-smoothed density table from an upper half-plane sampler.

    d(lam) = (1/pi) * HermitianPart(Im sampler(lam + i eta)) per grid
    point.  This is a Poisson-kernel smoothing of the underlying measure,
    not an exact inverse.  A sampler failure marks the point missing
    (density ``None``) instead of aborting the table.
    """
    if not eta > 0:
        raise InvalidInputError("eta must be positive")
    rows = []
    for lam in grid:
        lam = float(lam)
        try:
            m = mk.as_complex_matrix(sampler(lam + 1j * eta))
            dens = mk.hermitian_part((m - m.conj().T) / 2j) / np.pi
        except Exception:
            dens = None
        rows.append((lam, dens))
    return rows
