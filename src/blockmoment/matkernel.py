"""Dense complex matrix kernel.

Everything in this package is built from small dense complex p x p blocks.
This module owns the primitive operations the rest of the code needs:
Hermitian tests, the spectral norm, the Loewner order, numerical rank, and
principal square roots / inverse square roots of Hermitian positive-definite
matrices.

Eigendecomposition of Hermitian matrices delegates to LAPACK through
``numpy.linalg.eigh``: eigenvalues come back real and ascending, eigenvectors
unitary to working precision.  All scalars are IEEE double pairs.
"""

import numpy as np

from .errors import InvalidInputError, SingularInputError

HERMITIAN_TOL = 1e-10
PD_TOL = 1e-12
PSD_TOL = 1e-10


def as_complex_matrix(a, p: int | None = None) -> np.ndarray:
    """Validate ``a`` as a finite square complex matrix and return it."""
    try:
        m = np.asarray(a, dtype=complex)
    except (TypeError, ValueError):
        raise InvalidInputError("matrix entries are not numbers") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    if p is not None and m.shape[0] != p:
        raise InvalidInputError(
            f"expected block dimension {p}, got {m.shape[0]}")
    if not np.isfinite(m).all():
        raise InvalidInputError("matrix has non-finite entries")
    return m


def _read_points(x, what: str, dtype=complex, one: bool = True):
    """``x`` read by numpy as ``dtype``, one Python number if ``one``, else an
    array; unreadable input (None, or complex where ``dtype`` is float), an
    array where one number belongs and a non-finite entry raise
    InvalidInputError naming ``what``."""
    try:
        if dtype is float and np.iscomplexobj(x):  # numpy would drop Im x
            raise TypeError("a complex value where a real one belongs")
        a = np.asarray(x, dtype=dtype)
    except (TypeError, ValueError) as e:  # a ragged list in either read
        raise InvalidInputError(f"{what} must be a number ({e})") from None
    if one and a.ndim:
        raise InvalidInputError(
            f"{what} must be one number, got shape {a.shape}")
    if not np.isfinite(a).all():
        if np.asarray(x).dtype == object:  # None, which numpy read as NaN
            raise InvalidInputError(f"{what} must be a number, got {x!r}")
        raise InvalidInputError(
            f"{what} must be finite, got {a[~np.isfinite(a)].flat[0]}")
    return a.item() if one else a


def hermitian_defects(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-block defects max |a_ij - conj(a_ji)| of an (m, p, p) stack, and
    which blocks are not Hermitian: defect > HERMITIAN_TOL (1 + max |a_ij|).
    """
    defect = np.abs(s - np.conj(np.swapaxes(s, 1, 2))).max(axis=(1, 2))
    return defect, defect > HERMITIAN_TOL * (1.0 + np.abs(s).max(axis=(1, 2)))


def require_hermitian(a, what: str = "matrix") -> np.ndarray:
    m = as_complex_matrix(a)
    defect, bad = hermitian_defects(m[None])
    if bad[0]:
        raise InvalidInputError(
            f"{what} is not Hermitian (defect {defect[0]:.3e})")
    return m


def hermitian_part(a) -> np.ndarray:
    """(A + A^H) / 2 over the last two axes, so a stack takes one call."""
    m = np.asarray(a, dtype=complex)
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def spectral_norm(c) -> float:
    """Largest singular value: the smallest mu >= 0 with C*C <= mu^2 I."""
    m = as_complex_matrix(c)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with real eigenvalues ``w`` ascending and a unitary
    eigenvector matrix ``v`` (columns), the contract every caller in this
    package relies on.
    """
    m = require_hermitian(h)
    w, v = np.linalg.eigh(hermitian_part(m))
    return w, v


def min_eigenvalue(h) -> float:
    m = require_hermitian(h)
    return float(np.linalg.eigvalsh(hermitian_part(m))[0])


def loewner_leq(a, b, tol: float = 0.0) -> bool:
    """A <= B in the Loewner order: min eig of (B - A) >= -tol."""
    tol = _read_points(tol, "tol", float)
    ma = require_hermitian(a, what="left operand")
    mb = require_hermitian(b, what="right operand")
    if ma.shape != mb.shape:
        raise InvalidInputError(
            f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return min_eigenvalue(hermitian_part(mb - ma)) >= -tol


def numerical_rank(h, rel_tol: float = 1e-8) -> int:
    """Count of eigenvalues with |lam| > rel_tol * max(1, |lam|_max)."""
    rel_tol = _read_points(rel_tol, "rel_tol", float)
    m = require_hermitian(h)
    w = np.abs(np.linalg.eigvalsh(hermitian_part(m)))
    threshold = rel_tol * max(1.0, float(w.max()) if w.size else 0.0)
    return int(np.count_nonzero(w > threshold))


def _pd_eig(h) -> tuple[np.ndarray, np.ndarray]:
    w, v = hermitian_eig(h)
    floor = PD_TOL * max(1.0, float(w[-1]))
    if w[0] <= floor:
        raise SingularInputError(
            "matrix is not positive definite "
            f"(min eigenvalue {w[0]:.3e}, floor {floor:.3e})",
            min_eigenvalue=float(w[0]))
    return w, v


def hermitian_sqrt(h) -> np.ndarray:
    """Principal (Hermitian positive definite) square root."""
    w, v = _pd_eig(h)
    return hermitian_part((v * np.sqrt(w)) @ v.conj().T)


def hermitian_inv_sqrt(h) -> np.ndarray:
    """Principal K with K @ H @ K = I, for Hermitian positive definite H."""
    w, v = _pd_eig(h)
    return hermitian_part((v / np.sqrt(w)) @ v.conj().T)
