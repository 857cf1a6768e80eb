"""Independent references for the benchmark's correctness checks.

Nothing here calls blockmoment.  Every infinite matrix the benchmark feeds
to the series code has a constant Hermitian diagonal block ``a`` and
super-diagonal blocks ``(k+1)^2 x``, so the three-term recurrence runs from
those two blocks alone, in a ``(p, B*p)`` layout: one column block per
evaluation point, one matrix product per step for all points.

Series limits are windowed means of the partial sums over [N, 2N),
[2N, 4N) and [4N, 8N), extrapolated by Richardson in 1/N.  The window mean
removes the bounded oscillation that non-Hermitian off-diagonal blocks put
on the partial sums; Richardson removes the 1/N and 1/N^2 terms of the
smooth part.  Every reference is computed twice, from the second-order and
from the first-order extrapolation; their gap is reported as the
reference's own error.
"""

import numpy as np

REF_N = 1000   # window base N; limits run the recurrence for 8N steps


def _recurrence(a, x, ws, n_steps):
    """Yield (k, D_k(ws), E_k(ws)) in (p, B*p) layout for k = 1..n_steps.

    D_0 = I, E_0 = 0, E_1 = B_0^{-1}; both families obey
    D_{k+1} = B_k^{-1} [(w - A) D_k - B_{k-1}^H D_{k-1}].
    """
    p = a.shape[0]
    ws = np.asarray(ws, dtype=complex).reshape(-1)
    wcol = np.repeat(ws, p)[None, :]
    xinv = np.linalg.inv(x)
    xh = x.conj().T
    d_prev = np.zeros((p, ws.size * p), dtype=complex)
    d = np.tile(np.eye(p, dtype=complex), (1, ws.size))
    e_prev = np.zeros_like(d)
    e = np.zeros_like(d)
    for k in range(n_steps):
        scale = 1.0 / (k + 1) ** 2
        d_next = xinv @ (wcol * d - a @ d - k * k * (xh @ d_prev)) * scale
        if k == 0:
            e_next = np.tile(xinv * scale, (1, ws.size))
        else:
            e_next = xinv @ (wcol * e - a @ e - k * k * (xh @ e_prev)) * scale
        d_prev, d = d, d_next
        e_prev, e = e, e_next
        yield k + 1, d, e


def _limit(partial_sums, n_base):
    """Windowed-mean Richardson limits of partial sums S_1, S_2, ...

    Returns (second-order estimate, first-order estimate).
    """
    bounds = (n_base, 2 * n_base, 4 * n_base, 8 * n_base)
    means = []
    acc = None
    for n, s in partial_sums:
        if n < bounds[0]:
            continue
        acc = s.copy() if acc is None else acc + s
        if n + 1 == bounds[len(means) + 1]:
            means.append(acc / (n + 1 - bounds[len(means)]))
            acc = None
            if len(means) == 3:
                break
    a1, a2, a4 = means
    r1a = 2.0 * a2 - a1
    r1b = 2.0 * a4 - a2
    return (4.0 * r1b - r1a) / 3.0, r1b


def _star_partials(a, x, ws, n_steps, second_kind):
    """Partial sums over k of D_k(w)^H [D_k(0), E_k(0)] (and E_k(w)^H [...]).

    Yields (n, sums) with sums of shape (B*p, 4p): per point the blocks
    DD, DE, ED, EE side by side (DD, DE only without ``second_kind``).  The
    k = 0 term D_0^H D_0 = I starts DD; every other k = 0 term vanishes
    because E_0 = 0.
    """
    p = a.shape[0]
    ws = np.asarray(ws, dtype=complex).reshape(-1)
    b = ws.size
    pts = np.concatenate([ws, [0.0]])
    total = np.zeros((b * p, (4 if second_kind else 2) * p), dtype=complex)
    total[:, :p] = np.tile(np.eye(p), (b, 1))
    for n, d, e in _recurrence(a, x, pts, n_steps):
        zero = np.concatenate([d[:, b * p:], e[:, b * p:]], axis=1)
        total[:, :2 * p] += d[:, :b * p].conj().T @ zero
        if second_kind:
            total[:, 2 * p:] += e[:, :b * p].conj().T @ zero
        yield n, total


def _blocks(sums, b, p):
    """(B*p, m*p) side-by-side blocks -> (B, m, p, p)."""
    m = sums.shape[1] // p
    return sums.reshape(b, p, m, p).transpose(0, 2, 1, 3)


def _quartet_from_sums(zs, s):
    p = s.shape[-1]
    zz = zs[:, None, None]
    eye = np.eye(p)
    return np.stack([eye + zz * s[:, 2], zz * s[:, 3],
                     -zz * s[:, 0], eye - zz * s[:, 1]], axis=1)


def rel_gap(values, other):
    """Per point: max element difference over max element size."""
    b = values.shape[0]
    diff = np.abs(values - other).reshape(b, -1).max(axis=1)
    return diff / np.maximum(np.abs(values).reshape(b, -1).max(axis=1),
                             1e-300)


def quartets(a, x, zs, n_base=REF_N):
    """Converged F1, F2, G1, G2 at each z, twice.

    Returns (second-order, first-order) arrays of shape (B, 4, p, p).
    """
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    p = a.shape[0]
    limits = _limit(_star_partials(a, x, zs.conj(), 8 * n_base, True),
                    n_base)
    return tuple(_quartet_from_sums(zs, _blocks(s, zs.size, p))
                 for s in limits)


def quartet_partial(a, x, zs, depth):
    """F1, F2, G1, G2 from the terms k <= depth, with no extrapolation."""
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    total = None
    for _, total in _star_partials(a, x, zs.conj(), depth, True):
        pass
    return _quartet_from_sums(zs, _blocks(total, zs.size, a.shape[0]))


def g_values(a, x, lams, n_base=REF_N):
    """Converged G1, G2 at real points, twice.

    Returns (second-order, first-order) arrays of shape (B, 2, p, p).
    """
    lam = np.asarray(lams, dtype=float).reshape(-1)
    p = a.shape[0]
    ll = lam[:, None, None]
    out = []
    for s in _limit(_star_partials(a, x, lam, 8 * n_base, False), n_base):
        s = _blocks(s, lam.size, p)
        out.append(np.stack([-ll * s[:, 0], np.eye(p) - ll * s[:, 1]],
                            axis=1))
    return tuple(out)


def transform_extremal(a, x, xis, zs, n_base=REF_N):
    """m(z) = (xi - z)^{-1} [I + (z - xi) N] Den^{-1}, per (xi, z) pair.

    N = sum_{k>=1} E_k*(z) D_k(xi) and Den = sum_{k>=0} D_k*(z) D_k(xi).
    Returns (second-order, first-order) arrays of shape (B, p, p).
    """
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    xis = np.asarray(xis, dtype=float).reshape(-1)
    p = a.shape[0]
    b = zs.size
    pts = np.concatenate([zs.conj(), xis])

    def sums():
        total = np.zeros((2, b, p, p), dtype=complex)
        total[1] = np.eye(p)
        for n, d, e in _recurrence(a, x, pts, 8 * n_base):
            db = d.reshape(p, 2 * b, p).transpose(1, 0, 2)
            eb = e.reshape(p, 2 * b, p).transpose(1, 0, 2)
            total[0] += np.conj(np.swapaxes(eb[:b], 1, 2)) @ db[b:]
            total[1] += np.conj(np.swapaxes(db[:b], 1, 2)) @ db[b:]
            yield n, total

    zz = zs[:, None, None]
    xx = xis[:, None, None]
    return tuple(((np.eye(p) + (zz - xx) * num) @ np.linalg.inv(den))
                 / (xx - zz) for num, den in _limit(sums(), n_base))


def transform_from_v(quartet, vs):
    """m(z) = [F1(I+V) + i F2(I-V)] [G1(I+V) + i G2(I-V)]^{-1}."""
    f1, f2, g1, g2 = (quartet[:, i] for i in range(4))
    p = f1.shape[-1]
    plus = np.eye(p) + vs
    minus = np.eye(p) - vs
    num = f1 @ plus + 1j * (f2 @ minus)
    den = g1 @ plus + 1j * (g2 @ minus)
    return num @ np.linalg.inv(den)


def _det_phase(dets):
    """Common phase of det values that are real up to one rotation (mod pi)."""
    doubled = np.angle(np.sum(dets ** 2 / np.maximum(np.abs(dets), 1e-300)))
    return 0.5 * doubled


def _sign_root(xs, f):
    """Root of f at its first sign change on xs, as (cubic, linear)
    interpolation; None when f keeps its sign."""
    changes = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) <= 0)[0]
    if changes.size == 0:
        return None
    i = int(changes[0])
    lin = xs[i] - f[i] * (xs[i + 1] - xs[i]) / (f[i + 1] - f[i])
    k0 = min(max(i - 1, 0), len(xs) - 4)
    cand = np.roots(np.polyfit(xs[k0:k0 + 4] - lin, f[k0:k0 + 4], 3))
    cand = cand[np.abs(cand.imag) < 1e-12].real + lin
    cub = cand[np.argmin(np.abs(cand - lin))] if cand.size else lin
    return float(cub), float(lin)


def extension_roots(a, x, us, lo, hi, step=0.005, fine=16, n_base=REF_N):
    """Reference roots of det[G1(I+U) + i G2(I-U)] on [lo, hi], per U.

    On the real line the determinant is real after one fixed rotation, so
    roots are sign changes: a uniform scan at ``step``, then a second scan
    at ``step / fine`` inside each bracketing cell, then cubic
    interpolation through the four fine points around the sign change.
    Returns (list of root arrays, list of per-root error estimates); an
    error is the gap between the roots from the two extrapolation orders
    plus the interpolation gap (cubic against linear).
    """
    p = a.shape[0]
    eye = np.eye(p)

    def real_det(g, u, rot):
        bmat = g[:, 0] @ (eye + u) + 1j * (g[:, 1] @ (eye - u))
        return np.real(np.linalg.det(bmat) * rot)

    # cell midpoints: a root sitting exactly on a grid point (0 for U = I)
    # would give a zero instead of a sign change
    lam = lo + step * (np.arange(int(round((hi - lo) / step))) + 0.5)
    g, _ = g_values(a, x, lam, n_base)
    cells = []
    for iu, u in enumerate(us):
        bmat = g[:, 0] @ (eye + u) + 1j * (g[:, 1] @ (eye - u))
        rot = np.exp(-1j * _det_phase(np.linalg.det(bmat)))
        f = real_det(g, u, rot)
        for i in np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[0]:
            cells.append((iu, lam[i], lam[i + 1], rot))
    roots = [[] for _ in us]
    errs = [[] for _ in us]
    if not cells:
        return [np.array(r) for r in roots], [np.array(e) for e in errs]
    offsets = np.linspace(0.0, 1.0, fine + 1)
    pts = np.concatenate([c[1] + (c[2] - c[1]) * offsets for c in cells])
    g2, g1 = g_values(a, x, pts, n_base)
    for ic, (iu, _, _, rot) in enumerate(cells):
        sl = slice(ic * (fine + 1), (ic + 1) * (fine + 1))
        cub, lin = _sign_root(pts[sl], real_det(g2[sl], us[iu], rot))
        first = _sign_root(pts[sl], real_det(g1[sl], us[iu], rot))
        roots[iu].append(cub)
        # a first-order root outside the cell is off by a cell or more
        errs[iu].append(abs(cub - lin) + (abs(cub - first[0]) if first
                                          else step))
    return [np.array(r) for r in roots], [np.array(e) for e in errs]
