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
  parametrization (upper half-plane), and self-adjoint-extension spectra,
  the roots of det[G1(I+U) + i G2(I-U)], as eigenvalues of a truncation.

Half-plane conventions are enforced exactly as stated on each operation; no
analytic continuation across the real axis is attempted.  Series are
truncated by a declared increment rule and the truncation state
(``n_used``, ``tail_norm``, ``converged``) is reported, never hidden. When a
caller supplies V as a per-point sampler, holomorphy of the sampler is the
caller's responsibility: it cannot be verified pointwise.

The series run on the recurrence engine of :mod:`polys` under its one
stop rule: an engine pass hands on all its states as one stack, none
stops early, and a series pairs two stacks, summing each chunk of terms
by one GEMM.  The quartet and the extension bracket pair their pass with
D_k(0), E_k(0) from the matrix's cache, the extremal transform its pass
at conj z with a one-point pass at xi.
"""

from dataclasses import dataclass

import numpy as np

from . import matkernel as mk
from .errors import (HalfPlaneError, InvalidInputError,
                     NumericalFailureError, OutOfRangeError, PoleError)
from .jacobi import BlockJacobiMatrix
from .polys import (MatrixPoly, OrthoBasis, _available_terms, _coefficients,
                    _recurrence, _series, _states, _zero_states)
# classify is re-exported next to the entry points whose ``determinacy``
# argument it computes
from .spectral import (NODE_MERGE_FACTOR, DeterminacyClass,
                       _ensure_completely_indeterminate, _merge, _node_step,
                       classify, kernel_partial)

SERIES_TOL = 1e-12
SERIES_N_MAX = 400
DEFAULT_GRID = 2000
_SWEEP_POINTS = 16      # edges counted on the interval before the search
_RAYLEIGH_STEPS = 64    # cap on a node's Rayleigh steps and on the rounds
_EPS = np.finfo(float).eps
_STEP_TOL = 4 * _EPS    # a step below it, relative to 1 + |root|, stops

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

    E_k(z) = {(D_k(lam) - D_k(z)) / (lam - z), I}, the form taken in the
    lam variable of the divided difference of D_k.  These are the
    solutions of the first-kind recurrence from E_0 = 0 and
    E_1 = B_0^{-1} D_0^{-H}, and are computed so, on the plan the basis
    was generated with; E_k has exact degree k-1.
    """
    if n > basis.n:
        raise OutOfRangeError(
            f"second kind needs first-kind basis of length {n}, "
            f"got {basis.n}")
    x = _coefficients(basis.jacobi, n, basis.lead_inv[0].conj().T,
                      second=True)
    epolys = [MatrixPoly(basis.p, x[k, :k]) for k in range(1, n + 1)]
    return SecondKindBasis(basis, (MatrixPoly.zero(basis.p), *epolys))


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


def quartet(j: BlockJacobiMatrix, z: complex, n_max: int = SERIES_N_MAX,
            series_tol: float = SERIES_TOL,
            determinacy: DeterminacyClass | None = None) -> QuartetValue:
    """Evaluate F1, F2, G1, G2 at ``z`` by truncated series.

    Refused unless the problem is completely indeterminate (pass a
    precomputed ``determinacy`` to skip classification; without it the
    matrix is classified on its first such call only).  The terms are
    summed in chunks of 16; a chunk's increment is the largest entry of
    its sum over all four series divided by its number of terms.
    Truncation stops at the end of a chunk once that chunk and the one
    before it both have increments below ``series_tol``, or at ``n_max``;
    ``converged`` reports which.  Values are returned either way, with
    the larger of the last two increments in ``tail_norm``.
    """
    z = mk._read_points(z, "z")
    n_terms = _available_terms(j, n_max)
    _ensure_completely_indeterminate(j, determinacy)
    p = j.p
    x = _states(j, [z.conjugate()] * 2, [False, True], n_terms)
    t, n_used, tail, conv = _series(x, _zero_states(j, n_terms), z,
                                    series_tol)
    eye = np.eye(p, dtype=complex)
    # 0 - t, not -t, which would turn an exact 0.0 into -0.0
    return QuartetValue(z=z, f1=eye + t[p:, :p], f2=t[p:, p:],
                        g1=0.0 - t[:p, :p], g2=eye - t[:p, p:],
                        n_used=n_used, tail_norm=tail, converged=conv)


# ---------------------------------------------------------------------------
# solution transforms
# ---------------------------------------------------------------------------

def transform_extremal(j: BlockJacobiMatrix, xi: float, z: complex,
                       n_max: int = SERIES_N_MAX,
                       series_tol: float = SERIES_TOL,
                       determinacy: DeterminacyClass | None = None
                       ) -> np.ndarray:
    """Stieltjes transform of the extremal solution T_xi, for Im z < 0.

    T_xi is the unique normalized solution attaining the maximal jump at
    xi.  Computed as

        m(z) = (xi - z)^{-1} [I + (z - xi) N(z)] [Den(z)]^{-1},

    with N(z) = sum_{k>=1} E_k*(z) D_k(xi) and Den(z) = sum_{k>=0}
    D_k*(z) D_k(xi), one series pairing the D, E pass at conj z with the
    D pass at xi; the leading sign is fixed so that m is a genuine
    Stieltjes transform (Herglotz in the lower half-plane, positive
    extremal mass).
    """
    z = mk._read_points(z, "z")
    xi = mk._read_points(xi, "xi", float)
    if z.imag >= 0:
        raise HalfPlaneError(
            f"extremal transform is defined for Im z < 0, got z={z}")
    n_terms = _available_terms(j, n_max)
    _ensure_completely_indeterminate(j, determinacy)
    p = j.p
    t = _series(_states(j, [z.conjugate()] * 2, [False, True], n_terms),
                _states(j, [xi], [False], n_terms), 1.0, series_tol)[0]
    num, den = t[p:], t[:p]
    svals = np.linalg.svd(den, compute_uv=False)
    if svals[-1] <= 1e-14 * max(1.0, svals[0]):
        raise NumericalFailureError(
            f"kernel bracket at z={z} is numerically singular "
            f"(condition estimate {svals[0] / max(svals[-1], 1e-300):.3e})")
    bracket = np.eye(p, dtype=complex) + (z - xi) * num
    return (bracket @ np.linalg.inv(den)) / (xi - z)


def jump_bound(j: BlockJacobiMatrix, xi: float, n: int) -> np.ndarray:
    """K_n(xi)^{-1}: Loewner upper bound on any solution's jump at xi.

    Decreasing in n.  K_n(xi) >= I > 0, so a singular kernel here is an
    internal invariant violation, not an input problem.
    """
    xi = mk._read_points(xi, "xi", float)
    k = kernel_partial(j, xi, n)
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
                     series_tol: float = SERIES_TOL,
                     determinacy: DeterminacyClass | None = None
                     ) -> np.ndarray:
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
    z = mk._read_points(z, "z")
    if z.imag <= 0:
        raise HalfPlaneError(
            f"the V-parametrization is defined for Im z > 0, got z={z}")
    n_terms = _available_terms(j, n_max)
    cls = _ensure_completely_indeterminate(j, determinacy)
    vm = _contraction_value(v, j.p, z)
    q = quartet(j, z, n_max=n_terms, series_tol=series_tol, determinacy=cls)
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
    w, sv, vh = np.linalg.svd(mk.as_complex_matrix(u, p))
    defect = np.abs(sv ** 2 - 1.0).max()   # ||U^H U - I||_2
    if defect > 1e-10:
        raise InvalidInputError(
            f"U must be unitary (U^H U - I has norm {defect:.3e})")
    return w @ vh                          # the nearest unitary matrix


def extension_bracket(j: BlockJacobiMatrix, u, lams,
                      n_max: int = SERIES_N_MAX) -> np.ndarray:
    """B(lam) = G1(lam)(I+U) + i G2(lam)(I-U) at real points.

    Returns a (len(lams), p, p) stack for the nearest unitary to U;
    determinacy is not re-checked, so this is also the residual probe for
    accepted roots.  The engine runs at the points only; D_k(0) and E_k(0)
    are the matrix's cached states at 0.  The series stops at SERIES_TOL.
    """
    p = j.p
    u = _require_unitary(u, p)
    lam = mk._read_points(lams, "lam", float, one=False).reshape(-1)
    n_terms = _available_terms(j, n_max)
    weight = np.repeat(-lam, p)[:, None]
    t = _series(_states(j, lam, np.zeros(lam.size, dtype=bool), n_terms),
                _zero_states(j, n_terms), weight, SERIES_TOL)[0]
    g1 = t[:, :p].reshape(lam.size, p, p)
    eye = np.eye(p, dtype=complex)
    g2 = eye + t[:, p:].reshape(lam.size, p, p)
    return g1 @ (eye + u) + 1j * (g2 @ (eye - u))


def _counts_below(diag, off, xs) -> np.ndarray:
    """Number of eigenvalues below each of ``xs``, by Sylvester's law of
    inertia, of the Hermitian block tridiagonal matrix T with diagonal
    blocks ``diag`` (n, p, p) and super-diagonal blocks ``off``.

    Each point is counted 2^-40 max(1, max |T_{k,k+1}|) above itself, far
    below any merge tolerance, so that a point where a pivot is singular,
    such as 0 for some zero-diagonal matrices, is not counted at it.  One
    block U D U^H sweep of T - x I for all points together, from the last
    block up: each pivot P, less the Schur complement of the pivots below
    it, adds its negative eigenvalues to the count and passes
    T_{b-1,b} (P^{-1})_{bb} T_{b,b-1} on, b its first block.  A pivot
    eigenvalue smaller than a tiny pivmin is taken as -pivmin, a
    perturbation of T of that size.  At p = 1 the pivots are the scalar
    Sturm sequence.  At p >= 2 they are pairs of blocks, block 0 alone if
    one is left: a block of a zero-diagonal matrix is often singular in
    some directions near 0, a pair with a regular off-diagonal block is not
    (as with the 2 x 2 pivots of Bunch and Kaufman).  Each pivot is
    diagonalized in reversed order, so that a huge replaced last block
    comes first and the small eigenvalues stay accurate.
    """
    n, p, _ = diag.shape
    scale = max(1.0, np.abs(off).max(initial=0.0))
    xs = np.asarray(xs, dtype=float) + 2.0 ** -40 * scale
    pivmin = np.finfo(float).tiny * 4 * (p * scale) ** 2   # 1/pivot finite
    count = np.zeros(xs.size, dtype=int)
    if p == 1:
        h, c2 = diag[:, 0, 0].real, np.abs(off[:, 0, 0]) ** 2
        d = h[-1] - xs
        for k in range(n - 1, -1, -1):
            if k < n - 1:
                d = (h[k] - xs) - c2[k] / d
            d[np.abs(d) < pivmin] = -pivmin
            count += d < 0
        return count
    shifted = diag[:, None] - xs[:, None, None] * np.eye(p)
    first = np.arange(n - 2, -1, -2)                 # pairs (b, b + 1)
    pairs = np.zeros((first.size, xs.size, 2 * p, 2 * p), dtype=complex)
    pairs[..., :p, :p] = shifted[first]
    pairs[..., :p, p:] = off[first, None]
    pairs[..., p:, :p] = np.conj(np.swapaxes(off[first], 1, 2))[:, None]
    pairs[..., p:, p:] = shifted[first + 1]
    pivots = list(zip(first, pairs))
    if n % 2:
        pivots.append((0, shifted[0]))
    s = 0.0
    for b, piv in pivots:
        piv[:, -p:, -p:] -= s
        lam, v = np.linalg.eigh(piv[:, ::-1, ::-1])
        lam[np.abs(lam) < pivmin] = -pivmin
        count += (lam < 0).sum(axis=1)
        if b:
            q = off[b - 1] @ v[:, ::-1][:, :p]         # rows of block b
            s = (q / lam[:, None, :]) @ np.conj(np.swapaxes(q, 1, 2))
    return count


def _vdot(a, b):
    """sum(conj(a) * b) over the last two axes."""
    return np.einsum("...ij,...ij->...", np.conj(a), b)


def _refine(step, lo, hi):
    """Rayleigh iteration from the middle of each bracket [lo, hi).

    ``step`` maps nodes to the next estimates and whether a residual
    certifies an eigenvalue near each.  It is repeated until a step is
    below rounding or returns to the node before (a cycle between two
    doubles at the rounding floor), at most _RAYLEIGH_STEPS times.  A node
    whose step leaves its bracket by more than rounding, or that stops or
    is no shorter than the step before while uncertified, stops there,
    uncertified.  The brackets are read, never changed.  Returns the nodes
    and whether each ended certified.
    """
    mu = 0.5 * (lo + hi)
    todo = np.ones(mu.size, dtype=bool)
    certified = np.zeros(mu.size, dtype=bool)
    last = np.full(mu.size, np.inf)
    before = np.full(mu.size, np.nan)
    for _ in range(_RAYLEIGH_STEPS):
        i = np.flatnonzero(todo)
        if not i.size:
            break
        new, certified[i] = step(mu[i])
        size = np.abs(new - mu[i])
        edge = _STEP_TOL * (1.0 + np.abs(new))
        moving = size > edge
        out = ((new < lo[i] - edge) | (new > hi[i] + edge)
               | ~(certified[i] | moving & (size < last[i])))
        certified[i[out]] = False
        todo[i] = moving & ~out & (new != before[i])
        last[i] = size
        before[i] = mu[i]
        mu[i] = new
    return mu, certified


def _boundary_truncation(j, u, n_terms, a, b):
    """The n = n_terms + 1 block truncation with its last block replaced.

    Returns its diagonal and super-diagonal blocks, with the last block row
    and column in the basis ``rot``; A_{n-2,n-1} rot before the directions
    past the first r were decoupled (``full``); r; and the scale, the
    largest row sum of |T_n| before the replacement, or |a|, |b| if larger.
    The decoupled directions are parked at b + 1 + scale.
    """
    p = j.p
    eye = np.eye(p)
    states = _zero_states(j, n_terms)
    x = states[..., :p] @ (eye + u) + 1j * (states[..., p:] @ (eye - u))
    n = n_terms + 1
    _, diag, off = _recurrence(j, n_terms)
    diag, off = diag[:n], off[:n - 1].copy()
    rows = np.abs(diag).sum(axis=2)
    rows[:-1] += np.abs(off).sum(axis=2)
    rows[1:] += np.abs(off).sum(axis=1)
    scale = max(rows.max(), abs(a), abs(b))
    diag = mk.hermitian_part(diag)
    a_prev = off[-1].copy() if n > 1 else np.zeros((0, p))  # A_{n-2,n-1}
    prev = -x[n - 2].conj().T @ a_prev if n > 1 else -1j * (eye - u).conj().T
    # a basis whose first r vectors span X_{n-1}; the rest is parked past b
    w, sv, vh = np.linalg.svd(x[n - 1])
    r = np.count_nonzero(sv > p * np.finfo(float).eps
                         * np.abs(states[n - 1]).max())
    rot = w if p > 1 else eye
    last = mk.hermitian_part(
        rot.conj().T @ (w[:, :r] / sv[:r]) @ vh[:r] @ prev @ rot)
    last[r:], last[:, r:] = 0.0, 0.0
    last[r:, r:] = (b + 1.0 + scale) * np.eye(p - r)
    diag[-1] = last
    full = a_prev @ rot
    if n > 1:
        off[-1] = full
        off[-1][:, r:] = 0.0
    return diag, off, full, rot, r, scale


def extension_spectrum(j: BlockJacobiMatrix, u, interval, grid: int = DEFAULT_GRID,
                       n_max: int = SERIES_N_MAX,
                       determinacy: DeterminacyClass | None = None
                       ) -> list[float]:
    """Distinct real roots of det[G1(I+U) + i G2(I-U)] on [a, b], ascending.

    With the bracket summed to k = N and X_m = D_m(0)(I+U) + i E_m(0)(I-U),
    they are the eigenvalues of the n = N + 1 block truncation with last
    block A_{n-1,n-1} + X_{n-1}^{-H} X_n^H A_{n-1,n}^H, by the recurrence at
    0 -X_{n-1}^{-H} X_{n-2}^H A_{n-2,n-1} (X_0^{-H} (i(I-U))^H for n = 1),
    which reads only the blocks the bracket reads.  Where X_{n-1} vanishes
    to working precision so does the bracket's last term, and x_{n-1} is
    held at zero.

    Only the eigenvalues near [a, b] are computed.  Counts of the
    eigenvalues below a point (``_counts_below``) at _SWEEP_POINTS edges
    of [a - tol, b + tol], tol = NODE_MERGE_FACTOR * scale, cut it into
    brackets.  In each round a Rayleigh iteration (``_refine``) runs from
    the middle of every bracket that holds an eigenvalue.  The counts then
    certify the nodes: once every node's residual certifies an eigenvalue
    within tol and the distinct nodes are as many as the eigenvalues their
    brackets hold, all are found.  Otherwise one count, for all brackets
    together, cuts each at its node -+ tol if certified, else at its
    middle, and the pieces are the next round's brackets.  Nodes within
    tol of each other are one node, so a double root is returned once.  A
    root within rounding of an end of [a, b] is kept, moved onto that end.
    No eigensolver sees more than two blocks, and no matrix of the
    truncation's size is formed.  ``grid`` is not used.
    """
    ends = mk._read_points(interval, "interval end", float, one=False)
    if ends.shape != (2,):
        raise InvalidInputError(
            f"interval must be two numbers (a, b), got {interval!r}")
    a, b = ends.tolist()
    if not a < b:
        raise InvalidInputError(f"interval must satisfy a < b, got [{a}, {b}]")
    p = j.p
    u = _require_unitary(u, p)
    n_terms = _available_terms(j, n_max)
    _ensure_completely_indeterminate(j, determinacy)
    diag, off, full, rot, r, scale = _boundary_truncation(j, u, n_terms, a, b)
    n = len(diag)
    last, sub = diag[-1], (off[-1].conj().T if n > 1 else None)
    row = np.zeros((p, n * p), dtype=complex)       # the last block row
    row[:, -p:] = last
    if n > 1:
        row[:, -2 * p:-p] = sub
    tol = NODE_MERGE_FACTOR * scale
    if not np.isfinite(tol * tol):
        raise NumericalFailureError(
            f"the node tolerance {tol:g} squared overflowed the float range")

    # the replaced block diagonalized in reversed order, as in the counts
    lw, lv = np.linalg.eigh(last[::-1, ::-1])
    lv = lv[::-1]

    def step(nodes):
        """Rayleigh quotients at the nodes, and whether each is certified.

        Two recurrence vectors per node, each along the null direction of
        a residual: x y, whose residual sits in the last block row (and,
        through the parked part, in row n - 2), and x' y' with the last
        block solved, x'_{n-1} = -(t_{n-1,n-1} - node)^{-1} t_{n-1,n-2}
        x_{n-2}, whose residual moves to block row n - 2, out of reach of
        a huge replaced block.  The one with the smaller residual r
        relative to its norm is used; ||r|| <= tol ||v|| certifies an
        eigenvalue within tol of the node.
        """
        xs, resid, ys = _node_step(j, row, nodes,
                                   np.ones(nodes.size, dtype=int), scale, rot)
        d = xs[:, -p:]
        y = np.stack(ys)
        v = xs @ y
        rows = (-full[:, r:] @ d[:, r:] @ y, -resid @ y)  # rows n - 2, n - 1
        num = _vdot(v[:, -2 * p:-p], rows[0]) + _vdot(v[:, -p:], rows[1])
        norm = _vdot(v, v).real
        rel = (_vdot(rows[0], rows[0]) + _vdot(rows[1], rows[1])).real / norm
        if n > 1:
            with np.errstate(divide="ignore", invalid="ignore"):
                solved = lv @ ((lv.conj().T @ (-sub @ xs[:, -2 * p:-p]))
                               / (lw - nodes[:, None])[..., None])
            ok = np.isfinite(solved).all(axis=(1, 2))
            solved[~ok] = 0.0
            delta = solved - d
            y = np.conj(np.swapaxes(np.linalg.svd(delta)[2][:, -1:], 1, 2))
            v = np.concatenate([xs[:, :-p], solved], axis=1) @ y
            r2 = full @ delta @ y
            norm2 = _vdot(v, v).real
            rel2 = np.where(ok, _vdot(r2, r2).real / norm2, np.inf)
            better = rel2 < rel
            num = np.where(better, _vdot(v[:, -2 * p:-p], r2), num)
            norm = np.where(better, norm2, norm)
            rel = np.where(better, rel2, rel)
        return nodes + num.real / norm, rel <= tol ** 2

    edges = np.linspace(a - tol, b + tol, _SWEEP_POINTS)
    c = _counts_below(diag, off, edges)
    lo, hi, clo, chi = edges[:-1], edges[1:], c[:-1], c[1:]
    found = [np.zeros(0)]
    for _ in range(_RAYLEIGH_STEPS):
        keep = chi > clo
        lo, hi, clo, chi = lo[keep], hi[keep], clo[keep], chi[keep]
        if not lo.size:
            break
        mu, certified = _refine(step, lo, hi)
        found.append(mu[certified])   # a node no residual certifies is no root
        if (certified.all()
                and _merge(np.sort(mu), tol)[0].size == (chi - clo).sum()):
            break
        # a certified node's bracket is searched again beyond tol of it, any
        # other bracket in halves; each distinct point is counted once
        cut_lo = np.where(certified, mu - tol, 0.5 * (lo + hi))
        cut_hi = np.where(certified, mu + tol, cut_lo)
        pts, at = np.unique(np.append(cut_lo, cut_hi), return_inverse=True)
        below, above = np.split(_counts_below(diag, off, pts)[at], 2)
        lo, hi = np.concatenate([lo, cut_hi]), np.concatenate([cut_lo, hi])
        clo, chi = np.concatenate([clo, above]), np.concatenate([below, chi])
    mu = _merge(np.sort(np.concatenate(found)), tol)[0]
    keep = ((mu >= a - _STEP_TOL * (1.0 + abs(a)))
            & (mu <= b + _STEP_TOL * (1.0 + abs(b))))
    return [float(z) for z in np.clip(mu[keep], a, b)]


# ---------------------------------------------------------------------------
# smoothed inversion
# ---------------------------------------------------------------------------

def stieltjes_invert(sampler, grid, eta: float) -> list:
    """eta-smoothed density table from an upper half-plane sampler.

    d(lam) = (1/pi) * HermitianPart(Im sampler(lam + i eta)) per grid
    point.  This is a Poisson-kernel smoothing of the underlying measure,
    not an exact inverse.  A sampler that raises one of the package's
    errors (a pole, a refusal, an invalid value) marks the point missing
    (density ``None``) instead of aborting the table; any other exception
    propagates.
    """
    if not mk._read_points(eta, "eta", float) > 0:
        raise InvalidInputError("eta must be positive")
    rows = []
    for lam in grid:
        lam = mk._read_points(lam, "grid point", float)
        try:
            m = mk.as_complex_matrix(sampler(lam + 1j * eta))
            dens = mk.hermitian_part((m - m.conj().T) / 2j) / np.pi
        except (InvalidInputError, NumericalFailureError):
            dens = None
        rows.append((lam, dens))
    return rows
