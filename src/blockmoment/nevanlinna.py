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

The series run on the recurrence engine of :mod:`polys`, under its one
stop rule.  A p = 1 series between one left and one right point (the
quartet and the extremal transform) takes the engine's scalar path; every
other series, every extension bracket included, advances all points
together as the columns of one state matrix.
"""

from dataclasses import dataclass

import numpy as np

from . import matkernel as mk
from .errors import (HalfPlaneError, InvalidInputError,
                     NumericalFailureError, OutOfRangeError, PoleError)
from .jacobi import BlockJacobiMatrix
from .polys import (MatrixPoly, OrthoBasis, _available_terms, _coefficients,
                    _scalar_series, _series)
# classify is re-exported next to the entry points whose ``determinacy``
# argument it computes
from .spectral import (DeterminacyClass, _ensure_completely_indeterminate,
                       classify, kernel_partial)

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


def _quartet_sums(j, z, n_terms, series_tol):
    p = j.p
    zb = z.conjugate()
    if p == 1:
        (g1, g2, f1, f2), n_used, tail, converged = _scalar_series(
            j, zb, 0j, (-z, z), (1.0 + 0j, 1.0 + 0j, 0j), (True,) * 4,
            n_terms, series_tol)
        one = np.ones((1, 1), dtype=complex)
        return (f1 * one, f2 * one, g1 * one, g2 * one, n_used, tail,
                converged)
    t, n_used, tail, converged = _series(
        j, [zb, zb, 0.0, 0.0], [False, True, False, True], 2, z, n_terms,
        series_tol)
    eye = np.eye(p, dtype=complex)
    return (eye + t[p:, :p], t[p:, p:], -t[:p, :p], eye - t[:p, p:], n_used,
            tail, converged)


def quartet(j: BlockJacobiMatrix, z: complex, n_max: int = SERIES_N_MAX,
            series_tol: float = SERIES_TOL,
            determinacy: DeterminacyClass | None = None) -> QuartetValue:
    """Evaluate F1, F2, G1, G2 at ``z`` by truncated series.

    Refused unless the problem is completely indeterminate (pass a
    precomputed ``determinacy`` to skip re-classification).  Truncation
    stops once all four increments stay below ``series_tol`` for two
    consecutive terms, or at ``n_max``; ``converged`` reports which.
    Values are returned either way, with the last increment size in
    ``tail_norm``.
    """
    z = mk._require_finite(complex(z), "z")
    n_terms = _available_terms(j, n_max)
    _ensure_completely_indeterminate(j, determinacy)
    f1, f2, g1, g2, n_used, tail, conv = _quartet_sums(j, z, n_terms,
                                                       series_tol)
    return QuartetValue(z=z, f1=f1, f2=f2, g1=g1, g2=g2, n_used=n_used,
                        tail_norm=tail, converged=conv)


# ---------------------------------------------------------------------------
# solution transforms
# ---------------------------------------------------------------------------

def _pair_sums(j, z, xi, n_terms, series_tol):
    """N(z, xi) = sum_{k>=1} E_k*(z) D_k(xi), Den = sum_{k>=0} D_k*(z) D_k(xi)."""
    p = j.p
    zb = z.conjugate()
    if p == 1:
        (den, _, num, _), _, _, converged = _scalar_series(
            j, zb, complex(xi), None, (0j, 0j, 0j),
            (True, False, True, False), n_terms, series_tol)
        one = np.ones((1, 1), dtype=complex)
        return num * one, den * one, converged
    t, _, _, converged = _series(j, [zb, zb, xi], [False, True, False], 2,
                                 1.0, n_terms, series_tol)
    return t[p:], t[:p], converged


def transform_extremal(j: BlockJacobiMatrix, xi: float, z: complex,
                       n_max: int = SERIES_N_MAX,
                       series_tol: float = SERIES_TOL,
                       determinacy: DeterminacyClass | None = None
                       ) -> np.ndarray:
    """Stieltjes transform of the extremal solution T_xi, for Im z < 0.

    T_xi is the unique normalized solution attaining the maximal jump at
    xi.  Computed as

        m(z) = (xi - z)^{-1} [I + (z - xi) N(z)] [Den(z)]^{-1},

    with N and Den the second-kind/first-kind series against D_k(xi); the
    leading sign is fixed so that m is a genuine Stieltjes transform
    (Herglotz in the lower half-plane, positive extremal mass).
    """
    z = mk._require_finite(complex(z), "z")
    xi = mk._require_finite(float(xi), "xi")
    if z.imag >= 0:
        raise HalfPlaneError(
            f"extremal transform is defined for Im z < 0, got z={z}")
    n_terms = _available_terms(j, n_max)
    _ensure_completely_indeterminate(j, determinacy)
    num, den, _ = _pair_sums(j, z, xi, n_terms, series_tol)
    p = num.shape[0]
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
    xi = float(xi)
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
    z = mk._require_finite(complex(z), "z")
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
    m = mk.as_complex_matrix(u, p)
    defect = mk.spectral_norm(m.conj().T @ m - np.eye(p))
    if defect > 1e-10:
        raise InvalidInputError(
            f"U must be unitary (U^H U - I has norm {defect:.3e})")
    return m


def _bracket_values(j, u, lam, n_terms):
    """G1(I+U) + i G2(I-U) batched over real points, U validated.

    D_k(0) and E_k(0) ride along with the states at the points; the series
    stops at SERIES_TOL.
    """
    p = j.p
    zs = np.concatenate([lam, [0.0, 0.0]])
    second = np.arange(zs.size) == zs.size - 1
    weight = np.repeat(-lam, p)[:, None]
    t, _, _, _ = _series(j, zs, second, lam.size, weight, n_terms,
                         SERIES_TOL)
    g1 = t[:, :p].reshape(lam.size, p, p)
    eye = np.eye(p, dtype=complex)
    g2 = eye + t[:, p:].reshape(lam.size, p, p)
    return g1 @ (eye + u) + 1j * (g2 @ (eye - u))


def extension_bracket(j: BlockJacobiMatrix, u, lams,
                      n_max: int = SERIES_N_MAX) -> np.ndarray:
    """B(lam) = G1(lam)(I+U) + i G2(lam)(I-U) at real points.

    Returns a (len(lams), p, p) stack; determinacy is not re-checked here,
    so this is also usable as the residual probe for accepted roots.
    """
    u = _require_unitary(u, j.p)
    lam = mk._require_finite(np.asarray(lams, dtype=float).reshape(-1), "lam")
    return _bracket_values(j, u, lam, _available_terms(j, n_max))


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Golden-section minimizers of many intervals at once (a deterministic
    72 iterations): one call of ``f`` per iteration over all probes."""
    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(72):
        left = fc <= fd
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        w = _INVPHI * (hi - lo)
        x = np.where(left, hi - w, lo + w)
        fx = f(x)
        # x and the surviving probe are the new pair, in order
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return 0.5 * (lo + hi)


def extension_spectrum(j: BlockJacobiMatrix, u, interval, grid: int = DEFAULT_GRID,
                       n_max: int = SERIES_N_MAX,
                       determinacy: DeterminacyClass | None = None
                       ) -> list[float]:
    """Real roots of det[G1(I+U) + i G2(I-U)] on [a, b], sorted ascending.

    Scans |det| on a uniform grid and refines all local minima together
    by golden section, one batched bracket evaluation per iteration (76
    evaluations in all, whatever the number of minima).  A candidate is
    accepted only when the smallest singular value of the bracket matrix
    falls below ROOT_TOL times the local bracket scale (largest
    singular value over the refined point and its bracketing grid points),
    and dropped within 1e-9 (relative) of the accepted root before it.
    """
    a, b = mk._require_finite((float(interval[0]), float(interval[1])),
                              "interval end")
    if not a < b:
        raise InvalidInputError(f"interval must satisfy a < b, got [{a}, {b}]")
    if grid < 8:
        raise InvalidInputError("grid must be >= 8")
    u = _require_unitary(u, j.p)
    n_terms = _available_terms(j, n_max)
    _ensure_completely_indeterminate(j, determinacy)

    def bracket(points):
        return _bracket_values(j, u, points, n_terms)

    lams = np.linspace(a, b, grid + 1)
    bmat = bracket(lams)
    smax = np.linalg.svd(bmat, compute_uv=False)[:, 0]
    absdet = np.abs(np.linalg.det(bmat))
    padded = np.concatenate([[np.inf], absdet, [np.inf]])
    # local minima: strict on the left, non-strict on the right
    i = np.flatnonzero((absdet < padded[:-2]) & (absdet <= padded[2:]))
    lo, hi = np.maximum(i - 1, 0), np.minimum(i + 1, grid)
    lam_star = _golden_min(lambda x: np.abs(np.linalg.det(bracket(x))),
                           lams[lo], lams[hi])
    s = np.linalg.svd(bracket(lam_star), compute_uv=False)
    scale = np.max([s[:, 0], smax[lo], smax[hi]], axis=0).clip(1e-300)
    roots = np.sort(lam_star[s[:, -1] < ROOT_TOL * scale])
    fresh = np.diff(roots, prepend=-np.inf) > 1e-9 * (1.0 + np.abs(roots))
    return roots[fresh].tolist()


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
    if not mk._require_finite(eta, "eta") > 0:
        raise InvalidInputError("eta must be positive")
    rows = []
    for lam in grid:
        lam = mk._require_finite(float(lam), "grid point")
        try:
            m = mk.as_complex_matrix(sampler(lam + 1j * eta))
            dens = mk.hermitian_part((m - m.conj().T) / 2j) / np.pi
        except (InvalidInputError, NumericalFailureError):
            dens = None
        rows.append((lam, dens))
    return rows
