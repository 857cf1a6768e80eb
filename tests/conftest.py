import numpy as np
import pytest

from blockmoment import BlockJacobiMatrix, ch_fixture, ds_fixture, ind_fixture
from blockmoment.polys import _CHUNK


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


@pytest.fixture(scope="session")
def ch():
    return ch_fixture()


@pytest.fixture(scope="session")
def ind():
    return ind_fixture(420)


@pytest.fixture(scope="session")
def ds():
    return ds_fixture()


def random_hermitian(p, rng, scale=1.0):
    g = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return scale * 0.5 * (g + g.conj().T)


def random_nonsingular(p, rng, scale=1.0):
    """Random well-conditioned matrix with spectral norm ``scale``.

    Basis generation multiplies inverses of these blocks, so per-block
    condition numbers compound; keeping them near 1 keeps degree-30
    expansions accurate.
    """
    g = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    u, s, vh = np.linalg.svd(g)
    s = np.maximum(s, 0.85 * s.max())
    return (scale / s.max()) * (u * s) @ vh


def random_regular(p, n_blocks, rng, scale=0.4):
    """Random regular block Jacobi matrix with O(1) spectral radius.

    Degree peeling amplifies rounding like (spectral radius)^degree, so the
    default pins block norms at 0.4 to keep degree-30 algebra accurate to
    ~1e-12.  The pin serves only the degree-peeling tests of ``form`` and
    ``expand``; code that does not peel is tested with ``scale`` >= 1 too.
    """
    def herm():
        h = random_hermitian(p, rng)
        return scale * h / max(np.linalg.svd(h, compute_uv=False)[0], 1e-3)

    diag = tuple(herm() for _ in range(n_blocks))
    off = tuple(random_nonsingular(p, rng, scale) for _ in range(n_blocks - 1))
    return BlockJacobiMatrix(p, diag, off)


def random_regular_growing(p, n_blocks, rng):
    """Random regular matrix with growing off-diagonal scales.

    Bounded-block matrices have degree-k monomial coefficients that are
    ill-conditioned by ~2.4^k, putting a ~1e-4 floor on any degree-30
    coefficient algebra in doubles; growing off-diagonals (as in the
    indeterminate fixture) keep the representation well-conditioned.
    """
    diag, off = [], []
    for k in range(n_blocks):
        h = random_hermitian(p, rng)
        h = (0.4 * (k + 1) ** 0.8 * h
             / max(np.linalg.svd(h, compute_uv=False)[0], 1e-3))
        diag.append(h)
        if k < n_blocks - 1:
            off.append(random_nonsingular(p, rng,
                                          scale=float((k + 1) ** 1.6)))
    return BlockJacobiMatrix(p, tuple(diag), tuple(off))


def ci_matrix(rng, p, n_blocks, rule):
    """A_kk = a, A_{k,k+1} = (k+1)^2 (I + 0.3 G), ||G|| = 1: always CI."""
    g = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    a = 0.5 * (g + g.conj().T)
    g = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    x = np.eye(p) + 0.3 * g / np.linalg.svd(g, compute_uv=False)[0]

    def blocks(k):
        return a, (k + 1) ** 2 * x

    return BlockJacobiMatrix(p, tuple(a for _ in range(n_blocks)),
                             tuple(blocks(k)[1] for k in range(n_blocks - 1)),
                             blocks if rule else None)


def random_unitary(p, rng):
    g = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rel_err(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / scale


def plain_chunk_sums(terms, series_tol):
    """Sums over k of the matrices terms[k][i], under the stop rule read
    off chunks of _CHUNK terms: a chunk's increment is its largest summed
    entry over its length, and the sum stops at the end of the second of
    two consecutive chunks with increments below tol."""
    sums = [0 * t for t in terms[0]]
    incs = [np.inf]
    for c0 in range(0, len(terms), _CHUNK):
        chunk = terms[c0:c0 + _CHUNK]
        part = [sum(t[i] for t in chunk) for i in range(len(sums))]
        sums = [s + q for s, q in zip(sums, part)]
        incs.append(max(np.abs(q).max() for q in part) / len(chunk))
        if max(incs[-2:]) < series_tol:
            return sums, c0 + len(chunk) - 1, True
    return sums, len(terms) - 1, False
