"""The benchmark workloads.

A workload builds its inputs from the seed in ``setup`` (the part timed as
``setup_s``), computes its references in ``references`` (not timed), and
yields rounds of calls from ``rounds``.  A round holds a fixed mix of call
kinds, so every run measures the same mix whatever its length.  Each call
is a thunk plus a check; the check compares the output with a reference
and returns an ``Outcome``.

Library functions are looked up on their module at call time, never bound
once, so the tracer's wrappers see every call.
"""

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import blockmoment as bm
import blockmoment.cli as bm_cli
from blockmoment import serialize
from blockmoment.jacobi import BlockJacobiMatrix

import fixtures as fx
import reference as ref

CI = bm.Determinacy.COMPLETELY_INDETERMINATE
DET = bm.Determinacy.DETERMINATE

# A check accepts an output within these distances of its reference.  They
# catch wrong results, not truncation error: the 400-term series are off by
# up to ~3e-2 at |z| = 20, which the *_max_rel_err metrics report.
POINTWISE_TOL = 0.2
FINITE_TOL = 1e-8

POOL = 64                    # pointwise inputs per (fixture, operation)
FINITE_POOL = 8              # matrices per (p, family)
FINITE_DEPTH = {"bounded": 8, "ci": 4}
CLI_SPECTRUM_ARGS = ("--grid", "200")


class SetupFailed(Exception):
    """Set-up could not build valid inputs for this seed."""


@dataclass
class Outcome:
    ok: bool
    err: float | None = None
    stats: dict = field(default_factory=dict)   # per-layer accuracy figures


@dataclass
class Call:
    cls: str          # "p1" or "pn"
    kind: str
    fn: object
    check: object


def rel_err(value, reference) -> float:
    value = np.asarray(value)
    reference = np.asarray(reference)
    scale = max(float(np.abs(reference).max()), 1e-300)
    return float(np.abs(value - reference).max()) / scale


def ci_matrix(a, x, n_blocks=fx.STORED_BLOCKS) -> BlockJacobiMatrix:
    """Stored prefix of A_kk = a, A_{k,k+1} = (k+1)^2 x plus the same rule."""
    def rule(k):
        return a, (k + 1) ** 2 * x
    return BlockJacobiMatrix(a.shape[0], tuple(a for _ in range(n_blocks)),
                             tuple((k + 1) ** 2 * x
                                   for k in range(n_blocks - 1)), rule)


def moment_oracle(diag, off, m_max):
    """S_0..S_{m_max}: first block of T^m E_0 for the truncation T."""
    p = diag[0].shape[0]
    nb = min(len(diag), m_max // 2 + 2)
    t = np.zeros((nb * p, nb * p), dtype=complex)
    for k in range(nb):
        t[k * p:(k + 1) * p, k * p:(k + 1) * p] = diag[k]
        if k + 1 < nb:
            t[k * p:(k + 1) * p, (k + 1) * p:(k + 2) * p] = off[k]
            t[(k + 1) * p:(k + 2) * p, k * p:(k + 1) * p] = off[k].conj().T
    # S_m = (T^i E_0)^H (T^(m-i) E_0): a walk of length m that returns to
    # block 0 never goes deeper than m/2 + 1 blocks
    v = np.zeros((nb * p, p), dtype=complex)
    v[:p] = np.eye(p)
    powers = [v]
    for _ in range(m_max // 2 + 1):
        powers.append(t @ powers[-1])
    out = []
    for m in range(m_max + 1):
        i = m // 2
        out.append(powers[i].conj().T @ powers[m - i])
    return out


class CIFixtures:
    """`ind` and the seeded p = 2 fixture, classified once in set-up."""

    def __init__(self, seed: int):
        self.blocks = {"p1": fx.ind_blocks(), "pn": fx.ci_fixture_blocks(seed)}
        self.matrix = {"p1": bm.ind_fixture(fx.STORED_BLOCKS),
                       "pn": ci_matrix(*self.blocks["pn"])}
        self.cls = {}
        for key, j in self.matrix.items():
            cls = bm.classify(j)
            if cls.kind is not CI:
                raise SetupFailed(f"{key} fixture classifies {cls}, "
                                  "expected CompletelyIndeterminate")
            self.cls[key] = cls


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------

class Pointwise:
    """quartet / transform_extremal / transform_from_V at single points."""

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def setup(self):
        self.fix = CIFixtures(self.seed)
        self.inputs = {}
        for cls, j in self.fix.matrix.items():
            p = j.p
            r = fx.rng(self.seed, fx.S_POINTWISE, p)
            zq = fx.upper_points(r, POOL)
            ze = fx.upper_points(r, POOL).conj()
            xis = r.uniform(-5.0, 5.0, POOL)
            zv = fx.upper_points(r, POOL)
            vs = np.array([fx.contraction(r, p, i % 2 == 0)
                           for i in range(POOL)])
            self.inputs[cls] = (zq, ze, xis, zv, vs)
        for cls in self.inputs:
            for call in self._calls(cls, 0):
                call.fn()

    def references(self):
        self.refs = {}
        errs = []
        for cls, (zq, ze, xis, zv, vs) in self.inputs.items():
            a, x = self.fix.blocks[cls]
            q2, q1 = ref.quartets(a, x, np.concatenate([zq, zv]))
            mv2, mv1 = (ref.transform_from_v(q[POOL:], vs) for q in (q2, q1))
            me2, me1 = ref.transform_extremal(a, x, xis, ze)
            self.refs[cls] = (q2[:POOL], me2, mv2)
            errs += [ref.rel_gap(q2[:POOL], q1[:POOL]).max(),
                     ref.rel_gap(me2, me1).max(), ref.rel_gap(mv2, mv1).max()]
        return float(max(errs))

    def _calls(self, cls, i):
        j = self.fix.matrix[cls]
        det = self.fix.cls[cls]
        zq, ze, xis, zv, vs = self.inputs[cls]
        i %= POOL
        refs = getattr(self, "refs", None)

        def check(kind, value_of):
            key = ("nevanlinna.quartet.max_rel_err",
                   "nevanlinna.transform_extremal.max_rel_err",
                   "nevanlinna.transform_from_V.max_rel_err")[kind]

            def run(out):
                err = rel_err(value_of(out), refs[cls][kind][i])
                return Outcome(err <= POINTWISE_TOL, err, {key: err})
            return run

        return [
            Call(cls, "quartet",
                 lambda: bm.quartet(j, zq[i], determinacy=det),
                 check(0, lambda q: np.stack([q.f1, q.f2, q.g1, q.g2]))),
            Call(cls, "transform_extremal",
                 lambda: bm.transform_extremal(j, xis[i], ze[i],
                                               determinacy=det),
                 check(1, lambda m: m)),
            Call(cls, "transform_from_V",
                 lambda: bm.transform_from_V(j, zv[i], vs[i],
                                             determinacy=det),
                 check(2, lambda m: m)),
        ]

    def rounds(self, in_process=False):
        i = 0
        while True:
            yield self._calls("p1", i) + self._calls("pn", i)
            i += 1


# ---------------------------------------------------------------------------
# one-root intervals for the spectrum subcommand
# ---------------------------------------------------------------------------

def isolated_roots(roots, lo=-10.0, hi=10.0, min_gap=0.8):
    """(root, gap to the left, gap to the right) for each root of [lo, hi]
    whose gaps to its neighbours (or to the ends) are at least ``min_gap``."""
    pts = np.concatenate([[lo], np.sort(roots), [hi]])
    gaps = np.diff(pts)
    return [(pts[k + 1], gaps[k], gaps[k + 1]) for k in range(len(gaps) - 1)
            if gaps[k] >= min_gap and gaps[k + 1] >= min_gap]


def one_root_interval(r, roots):
    """A seeded sub-interval of [-10, 10] holding exactly one of ``roots``.

    Each end sits 15-30% of the way from an isolated root to the next root.
    The ends then lie on the slopes of |det| that fall toward the chosen
    root, so every call refines the same single minimum, and no end is
    within reach of the library's truncation error of a root.
    """
    choices = isolated_roots(roots)
    if not choices:
        return None
    root, gap_l, gap_r = choices[int(r.integers(len(choices)))]
    return (float(root - r.uniform(0.15, 0.3) * gap_l),
            float(root + r.uniform(0.15, 0.3) * gap_r))


# ---------------------------------------------------------------------------
# finite
# ---------------------------------------------------------------------------

@dataclass
class FiniteCase:
    p: int
    family: str
    depth: int
    diag: list
    off: list
    matrix: object = None
    moments: object = None
    oracle: list = None


class Finite:
    """classify, forward and inverse moment maps, and Gauss quadrature."""

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def setup(self):
        self.cases = []
        for p in (1, 2, 3):
            for fam_i, family in enumerate(("bounded", "ci")):
                for m in range(FINITE_POOL):
                    r = fx.rng(self.seed, fx.S_FINITE, p, fam_i, m)
                    if family == "ci":
                        a, x = fx.ci_blocks(r, p)
                        diag = [a] * fx.FINITE_BLOCKS
                        off = [(k + 1) ** 2 * x
                               for k in range(fx.FINITE_BLOCKS - 1)]
                    else:
                        diag, off = fx.bounded_blocks(r, p, fx.FINITE_BLOCKS)
                    self.cases.append(FiniteCase(
                        p, family, FINITE_DEPTH[family], diag, off,
                        BlockJacobiMatrix(p, tuple(diag), tuple(off))))
        warm = self.cases[0]
        warm.oracle = moment_oracle(warm.diag, warm.off, 2 * warm.depth)
        for call in self._calls(warm):
            call.fn()

    def references(self):
        for case in self.cases:
            case.oracle = moment_oracle(case.diag, case.off, 2 * case.depth)
            case.moments = bm.MomentSequence(case.p, tuple(case.oracle))
        return 0.0

    def _calls(self, case):
        cls = "p1" if case.p == 1 else "pn"
        j = case.matrix
        n = case.depth
        s = case.oracle
        expected = CI if case.family == "ci" else DET
        seq = case.moments if case.moments is not None else \
            bm.MomentSequence(case.p, tuple(s))

        def check_class(out):
            ok = out.kind is expected
            return Outcome(ok, None,
                           {"spectral.classify.correct": float(ok)})

        def check_moments(out):
            err = max(rel_err(out.S[m], s[m]) for m in range(2 * n + 1))
            return Outcome(err <= FINITE_TOL, err, {"moments.oracle_err": err})

        def roundtrip():
            report = bm.hankel_positive(seq)
            jr, d0 = bm.jacobi_from_moments(seq)
            return report, jr, d0

        def check_roundtrip(out):
            report, jr, d0 = out
            back = moment_oracle([np.asarray(b) for b in jr.diag],
                                 [np.asarray(b) for b in jr.offdiag], 2 * n)
            d0i = np.linalg.solve(d0, np.eye(case.p))
            err = max(rel_err(d0i @ back[m] @ d0i.conj().T, s[m])
                      for m in range(2 * n + 1))
            return Outcome(bool(report.positive) and err <= FINITE_TOL, err,
                           {"moments.roundtrip_err": err})

        def check_quad(t):
            err = max(rel_err(np.einsum("i,ijk->jk", t.nodes ** m, t.weights),
                              s[m]) for m in range(2 * n))
            return Outcome(err <= FINITE_TOL, err,
                           {"spectral.gauss_quadrature.exactness_err": err})

        return [
            Call(cls, "classify", lambda: bm.classify(j), check_class),
            Call(cls, "moments_from_jacobi",
                 lambda: bm.moments_from_jacobi(j, 2 * n), check_moments),
            Call(cls, "moment_roundtrip", roundtrip, check_roundtrip),
            Call(cls, "gauss_quadrature", lambda: bm.gauss_quadrature(j, n),
                 check_quad),
        ]

    def rounds(self, in_process=False):
        groups = [self.cases[g * FINITE_POOL:(g + 1) * FINITE_POOL]
                  for g in range(len(self.cases) // FINITE_POOL)]
        i = 0
        while True:
            calls = []
            for group in groups:
                calls += self._calls(group[i % FINITE_POOL])
            yield calls
            i += 1


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

FILE_FLAGS = {"--jacobi", "--measure", "--moments", "--u", "--v", "--d0",
              "--samples"}


def absolute_argv(argv, data: Path):
    out = list(argv)
    for k in range(len(out) - 1):
        if out[k] in FILE_FLAGS:
            out[k + 1] = str(data / out[k + 1])
    return out


def _pair(z):
    return [float(np.real(z)), float(np.imag(z))]


class Cli:
    """`blockmoment` subcommands as subprocesses, one at a time."""

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.data = root / "tests" / "data"
        self.golden = root / "tests" / "golden"
        self.out = root / "bench" / "out"

    def setup(self):
        sys.path.insert(0, str(self.root / "tests"))
        try:
            from cli_cases import CASES
        finally:
            sys.path.pop(0)
        self.cases = [(name, absolute_argv(argv, self.data),
                       (self.golden / f"{name}.json").read_bytes())
                      for name, argv in CASES]
        a, x = fx.ci_fixture_blocks(self.seed)
        self.blocks = (a, x)
        r = fx.rng(self.seed, fx.S_CLI)
        self.out.mkdir(parents=True, exist_ok=True)
        self.paths = {k: self.out / f"{k}-s{self.seed}.json"
                      for k in ("jacobi", "u", "v")}
        self.u = fx.unitary(r, 2)
        self.v = fx.contraction(r, 2, False)
        self.zq, self.zv = (complex(z) for z in fx.upper_points(r, 2))
        docs = {"jacobi": serialize.jacobi_to_doc(ci_matrix(a, x)),
                "u": serialize.block_to_doc(self.u),
                "v": serialize.block_to_doc(self.v)}
        for key, doc in docs.items():
            self.paths[key].write_text(serialize.dumps(doc))
        self.spawn(["quad", "--jacobi", str(self.data / "ch.json"),
                         "--n", "2", "--json"])

    def spawn(self, argv):
        done = subprocess.run([sys.executable, "-m", "blockmoment.cli",
                               *argv], cwd=self.root,
                              capture_output=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"exit {done.returncode}: "
                               f"{done.stderr.decode(errors='replace')}")
        return done.stdout

    @staticmethod
    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bm_cli.run(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue()}")
        return out.getvalue().encode()

    def references(self):
        """Expected stdout of the p = 2 cases, from library calls."""
        a, x = self.blocks
        roots, _ = ref.extension_roots(a, x, [self.u], -10.5, 10.5,
                                       step=0.02, n_base=250)
        interval = one_root_interval(fx.rng(self.seed, fx.S_CLI, 1), roots[0])
        if interval is None:
            raise SetupFailed("p = 2 document has no isolated root")
        j = serialize.jacobi_from_doc(json.loads(
            self.paths["jacobi"].read_text()))
        jp = str(self.paths["jacobi"])
        report = bm.deficiency_indices(j)
        cls = bm.classify(j)
        classify_doc = {
            "class": cls.kind.value, "nu_plus": int(cls.nu_plus),
            "nu_minus": int(cls.nu_minus), "decisive": True,
            "samples_upper": [[_pair(z), int(rk)]
                              for z, rk, _ in report.samples_upper],
            "samples_lower": [[_pair(z), int(rk)]
                              for z, rk, _ in report.samples_lower]}
        q = bm.quartet(j, self.zq)
        quartet_doc = {"z": _pair(self.zq),
                       "f1": serialize.block_to_doc(q.f1),
                       "f2": serialize.block_to_doc(q.f2),
                       "g1": serialize.block_to_doc(q.g1),
                       "g2": serialize.block_to_doc(q.g2),
                       "n_used": int(q.n_used),
                       "tail_norm": float(q.tail_norm),
                       "converged": bool(q.converged)}
        m = bm.transform_from_V(j, self.zv, self.v)
        transform_doc = {"mode": "contraction", "z": _pair(self.zv),
                         "value": serialize.block_to_doc(m)}
        grid = int(CLI_SPECTRUM_ARGS[1])
        found = bm.extension_spectrum(j, self.u, interval, grid=grid)
        spectrum_doc = {"interval": list(interval), "grid": grid,
                        "roots": [float(v) for v in found]}
        self.pn_cases = [
            ("p2-classify", ["classify", "--jacobi", jp, "--json"],
             classify_doc),
            ("p2-quartet", ["quartet", "--jacobi", jp,
                            f"--z={self.zq.real!r},{self.zq.imag!r}",
                            "--json"],
             quartet_doc),
            ("p2-transform", ["transform", "--jacobi", jp,
                              f"--z={self.zv.real!r},{self.zv.imag!r}", "--v",
                              str(self.paths["v"]), "--json"],
             transform_doc),
            ("p2-spectrum", ["spectrum", "--jacobi", jp, "--u",
                             str(self.paths["u"]),
                             f"--interval={interval[0]!r},{interval[1]!r}",
                             *CLI_SPECTRUM_ARGS, "--json"], spectrum_doc),
        ]
        self.pn_cases = [(name, argv, serialize.dumps(doc).encode())
                         for name, argv, doc in self.pn_cases]
        return 0.0

    def rounds(self, in_process=False):
        run = self.in_process if in_process else self.spawn

        def call(cls, name, argv, expected):
            def check(out):
                return Outcome(out == expected, 0.0 if out == expected
                               else None, {})
            return Call(cls, name, lambda: run(argv), check)

        while True:
            yield ([call("p1", *case) for case in self.cases]
                   + [call("pn", *case) for case in self.pn_cases])


WORKLOADS = {"pointwise": Pointwise, "finite": Finite, "cli": Cli}
