"""Seeded inputs for the benchmark.

Every input is drawn from ``numpy.random.default_rng([seed, stream])``, one
stream per purpose, so a seed fixes all inputs and a different seed changes
them.  Matrices are described by their blocks here and only turned into
library objects by the workloads.
"""

import numpy as np

# streams: one per purpose, so adding draws to one leaves the others alone
S_CI_FIXTURE = 1
S_POINTWISE = 2
S_FINITE = 4
S_CLI = 5

STORED_BLOCKS = 420     # as the `ind` fixture of the test suite
FINITE_BLOCKS = 256     # classify samples prefix(201)


def rng(seed: int, stream: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, *more])


def hermitian(r: np.random.Generator, p: int) -> np.ndarray:
    g = r.standard_normal((p, p)) + 1j * r.standard_normal((p, p))
    return 0.5 * (g + g.conj().T)


def unit_norm(r: np.random.Generator, p: int) -> np.ndarray:
    g = r.standard_normal((p, p)) + 1j * r.standard_normal((p, p))
    return g / np.linalg.svd(g, compute_uv=False)[0]


def unitary(r: np.random.Generator, p: int) -> np.ndarray:
    g = r.standard_normal((p, p)) + 1j * r.standard_normal((p, p))
    q, t = np.linalg.qr(g)
    return q * (np.diag(t) / np.abs(np.diag(t)))


def ci_blocks(r: np.random.Generator, p: int):
    """(a, x) of the completely indeterminate family.

    A_kk = a (constant Hermitian), A_{k,k+1} = (k+1)^2 x with
    x = I + 0.3 G, ||G|| = 1.  The Hermitian part of x is >= 0.7 I, which
    makes x^{-1} x^H similar to a unitary: D_k stays square summable at
    every z, so the problem is completely indeterminate.
    """
    return hermitian(r, p), np.eye(p) + 0.3 * unit_norm(r, p)


def ind_blocks():
    """(a, x) of the `ind` fixture: diagonal 0, off-diagonal (k+1)^2."""
    return np.zeros((1, 1)), np.eye(1)


def ci_fixture_blocks(seed: int):
    """The seeded p = 2 completely indeterminate fixture."""
    return ci_blocks(rng(seed, S_CI_FIXTURE), 2)


def bounded_blocks(r: np.random.Generator, p: int, n_blocks: int,
                   scale: float = 0.4):
    """Random bounded regular matrix (determinate): diag, offdiag lists.

    Off-diagonal blocks have singular values within a factor 0.85 of their
    norm, so the recurrence stays well conditioned at moderate depth.
    """
    diag, off = [], []
    for k in range(n_blocks):
        h = hermitian(r, p)
        diag.append(scale * h / max(np.linalg.svd(h, compute_uv=False)[0],
                                    1e-3))
        if k < n_blocks - 1:
            g = r.standard_normal((p, p)) + 1j * r.standard_normal((p, p))
            u, s, vh = np.linalg.svd(g)
            s = np.maximum(s, 0.85 * s.max())
            off.append((scale / s.max()) * (u * s) @ vh)
    return diag, off


def contraction(r: np.random.Generator, p: int, unitary_part: bool):
    """A unitary matrix, or a strict contraction of norm in [0, 0.95)."""
    if unitary_part:
        return unitary(r, p)
    return r.uniform(0.0, 0.95) * unit_norm(r, p)


def upper_points(r: np.random.Generator, n: int) -> np.ndarray:
    """Points with |z| log-uniform in [0.5, 20], arg in [0.1 pi, 0.9 pi]."""
    mod = np.exp(r.uniform(np.log(0.5), np.log(20.0), n))
    arg = r.uniform(0.1 * np.pi, 0.9 * np.pi, n)
    return mod * np.exp(1j * arg)
