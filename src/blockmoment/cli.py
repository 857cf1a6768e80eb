"""Command-line front end over the JSON document formats.

Exit codes: 0 ok; 1 validation/parse error; 2 numerical failure, indecisive
classification, or a refusal that depends on a computed determinacy class.
Results go to stdout (deterministic text, or one JSON document with
``--json``); diagnostics go to stderr.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import nevanlinna, serialize, spectral
from .errors import InvalidInputError, NumericalFailureError
from .jacobi import BlockJacobiMatrix
from .moments import (hankel_positive, jacobi_from_moments,
                      moments_from_jacobi, moments_of_measure)
from .polys import generate_first_kind


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    """Two comma-separated numbers "A,B"; a complex value is "RE,IM"."""
    try:
        a, b = (float(part) for part in text.split(","))
    except ValueError:
        raise InvalidInputError(
            f"{what}: expected two numbers A,B, got {text!r}") from None
    return a, b


def _load_json(path: str, what: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InvalidInputError(f"{what}: cannot read {path}: {e}") from None
    return serialize.loads(text)


def _load_jacobi(path: str) -> BlockJacobiMatrix:
    return serialize.jacobi_from_doc(_load_json(path, "--jacobi"))


def _load_block(path: str, p: int, what: str) -> np.ndarray:
    return serialize.block_from_doc(_load_json(path, what), p, what)


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (json_doc, text_lines)
# ---------------------------------------------------------------------------

def _cmd_gen_poly(ns):
    j = _load_jacobi(ns.jacobi)
    if ns.n < 0:
        raise InvalidInputError("--n must be >= 0")
    d0 = _load_block(ns.d0, j.p, "--d0") if ns.d0 else None
    basis = generate_first_kind(j, ns.n, d0)
    if ns.second_kind:
        polys = nevanlinna.second_kind(basis, ns.n).epolys
        kind = "second"
    else:
        polys = basis.polys
        kind = "first"
    doc = {"p": int(j.p), "n": int(ns.n), "kind": kind,
           "polys": [serialize.poly_to_doc(q) for q in polys]}
    lines = [f"{kind}-kind polynomials 0..{ns.n} (p={j.p})"]
    for k, q in enumerate(polys):
        lines.append(f"degree {k}: coeffs {serialize.poly_to_doc(q)['coeffs']}")
    return doc, lines


def _cmd_moments(ns):
    if (ns.jacobi is None) == (ns.measure is None):
        raise InvalidInputError("provide exactly one of --jacobi / --measure")
    if ns.n < 0:
        raise InvalidInputError("--n must be >= 0")
    if ns.jacobi:
        s = moments_from_jacobi(_load_jacobi(ns.jacobi), ns.n)
    else:
        t = serialize.measure_from_doc(_load_json(ns.measure, "--measure"))
        s = moments_of_measure(t, ns.n)
    doc = serialize.moments_to_doc(s)
    lines = [f"moments S_0..S_{s.order} (p={s.p})"]
    lines += [f"S_{i}: {b}" for i, b in enumerate(serialize.block_to_doc(s.S))]
    return doc, lines


def _cmd_invert_moments(ns):
    s = serialize.moments_from_doc(_load_json(ns.moments, "--moments"))
    j, d0 = jacobi_from_moments(s)
    doc = {"jacobi": serialize.jacobi_to_doc(j),
           "d0": serialize.block_to_doc(d0)}
    lines = [f"recovered {j.n_blocks}-block jacobi matrix (p={j.p}); "
             "final diagonal block is a zero pad",
             f"d0: {serialize.block_to_doc(d0)}"]
    return doc, lines


def _cmd_check_positivity(ns):
    s = serialize.moments_from_doc(_load_json(ns.moments, "--moments"))
    rep = hankel_positive(s)
    doc = {"positive": bool(rep.positive),
           "first_bad_section": (None if rep.first_bad_section is None
                                 else int(rep.first_bad_section)),
           "min_eigenvalue": float(rep.min_eigenvalue),
           "odd_tail_ignored": bool(rep.odd_tail_ignored)}
    verdict = "positive" if rep.positive else \
        (f"not positive: section {rep.first_bad_section} has min eigenvalue "
         f"{rep.min_eigenvalue!r}")
    return doc, [verdict]


def _samples_from_file(path: str):
    a = serialize.floats_from_doc(_load_json(path, "--samples"), "--samples")
    if a.shape != (0,) and (a.ndim != 2 or a.shape[1] != 2):
        raise InvalidInputError("--samples: expected a JSON list of "
                                "[re, im] pairs")
    return [complex(x, y) for x, y in a.reshape(-1, 2).tolist()]


def _cmd_classify(ns):
    j = _load_jacobi(ns.jacobi)
    samples = _samples_from_file(ns.samples) if ns.samples else None
    report = spectral.deficiency_indices(j, n_max=ns.n_max,
                                         sample_points=samples)
    cls = report.determinacy(j.p)
    doc = {"class": cls.kind.value,
           "nu_plus": int(cls.nu_plus),
           "nu_minus": int(cls.nu_minus),
           "decisive": True,
           "samples_upper": [[_complex_pair(z), int(r)]
                             for z, r, _ in report.samples_upper],
           "samples_lower": [[_complex_pair(z), int(r)]
                             for z, r, _ in report.samples_lower]}
    return doc, [str(cls),
                 f"nu_plus={cls.nu_plus} nu_minus={cls.nu_minus}"]


def _cmd_kernel(ns):
    j = _load_jacobi(ns.jacobi)
    z = complex(*_parse_pair(ns.z, "--z"))
    if ns.n < 0:
        raise InvalidInputError("--n must be >= 0")
    k = spectral.kernel_partial(j, z, ns.n)
    doc = {"z": _complex_pair(z), "n": int(ns.n),
           "kernel": serialize.block_to_doc(k)}
    return doc, [f"K_{ns.n}({z}): {serialize.block_to_doc(k)}"]


def _cmd_quartet(ns):
    j = _load_jacobi(ns.jacobi)
    z = complex(*_parse_pair(ns.z, "--z"))
    q = nevanlinna.quartet(j, z, n_max=ns.n_max)
    doc = {"z": _complex_pair(z),
           "f1": serialize.block_to_doc(q.f1),
           "f2": serialize.block_to_doc(q.f2),
           "g1": serialize.block_to_doc(q.g1),
           "g2": serialize.block_to_doc(q.g2),
           "n_used": int(q.n_used),
           "tail_norm": float(q.tail_norm),
           "converged": bool(q.converged)}
    lines = [f"quartet at z={z} (n_used={q.n_used}, "
             f"tail_norm={q.tail_norm!r}, converged={q.converged})"]
    for name in ("f1", "f2", "g1", "g2"):
        lines.append(f"{name}: {doc[name]}")
    return doc, lines


def _cmd_transform(ns):
    j = _load_jacobi(ns.jacobi)
    z = complex(*_parse_pair(ns.z, "--z"))
    modes = [m for m in (ns.xi, ns.v, ns.v_scalar) if m is not None]
    if len(modes) != 1:
        raise InvalidInputError(
            "provide exactly one of --xi / --v / --v-scalar")
    if ns.xi is not None:
        value = nevanlinna.transform_extremal(j, ns.xi, z, n_max=ns.n_max)
        doc = {"mode": "extremal", "xi": ns.xi}
    else:
        if ns.v is not None:
            v = _load_block(ns.v, j.p, "--v")
        else:
            v = np.eye(j.p, dtype=complex) * complex(
                *_parse_pair(ns.v_scalar, "--v-scalar"))
        value = nevanlinna.transform_from_V(j, z, v, n_max=ns.n_max)
        doc = {"mode": "contraction"}
    doc.update({"z": _complex_pair(z),
                "value": serialize.block_to_doc(value)})
    return doc, [f"transform ({doc['mode']}) at z={z}: "
                 f"{serialize.block_to_doc(value)}"]


def _cmd_spectrum(ns):
    j = _load_jacobi(ns.jacobi)
    u = _load_block(ns.u, j.p, "--u")
    interval = _parse_pair(ns.interval, "--interval")
    roots = nevanlinna.extension_spectrum(j, u, interval, grid=ns.grid,
                                          n_max=ns.n_max)
    doc = {"interval": [interval[0], interval[1]], "grid": int(ns.grid),
           "roots": [float(r) for r in roots]}
    return doc, [f"{len(roots)} roots in [{interval[0]}, {interval[1]}]:",
                 " ".join(repr(r) for r in roots)]


def _cmd_quad(ns):
    j = _load_jacobi(ns.jacobi)
    if ns.n < 1:
        raise InvalidInputError("--n must be >= 1")
    t = spectral.gauss_quadrature(j, ns.n)
    doc = serialize.measure_to_doc(t)
    lines = [f"{t.n_nodes}-node quadrature (p={t.p})",
             f"nodes: {[float(x) for x in t.nodes]}"]
    return doc, lines


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage problems follow the validation-error exit contract (code 1)
    def error(self, message):
        raise InvalidInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blockmoment",
                     description="Block Jacobi matrices and the matrix "
                                 "Hamburger moment problem")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--json", action="store_true",
                        help="emit one JSON document on stdout")
        sp.set_defaults(func=handler)
        return sp

    sp = add("gen-poly", _cmd_gen_poly, "first/second kind polynomials")
    sp.add_argument("--jacobi", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d0", default=None)
    sp.add_argument("--second-kind", action="store_true")

    sp = add("moments", _cmd_moments, "moments of a jacobi matrix or measure")
    sp.add_argument("--jacobi", default=None)
    sp.add_argument("--measure", default=None)
    sp.add_argument("--n", type=int, required=True)

    sp = add("invert-moments", _cmd_invert_moments,
             "recover a jacobi matrix from moments")
    sp.add_argument("--moments", required=True)

    sp = add("check-positivity", _cmd_check_positivity,
             "block Hankel positivity verdict")
    sp.add_argument("--moments", required=True)

    sp = add("classify", _cmd_classify, "determinacy classification")
    sp.add_argument("--jacobi", required=True)
    sp.add_argument("--n-max", type=int, default=spectral.KERNEL_N_MAX)
    sp.add_argument("--samples", default=None)

    sp = add("kernel", _cmd_kernel, "kernel partial sum K_n(z)")
    sp.add_argument("--jacobi", required=True)
    sp.add_argument("--z", required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = add("quartet", _cmd_quartet, "entire quartet F1,F2,G1,G2")
    sp.add_argument("--jacobi", required=True)
    sp.add_argument("--z", required=True)
    sp.add_argument("--n-max", type=int, default=nevanlinna.SERIES_N_MAX)

    sp = add("transform", _cmd_transform,
             "Stieltjes transform of a solution")
    sp.add_argument("--jacobi", required=True)
    sp.add_argument("--z", required=True)
    sp.add_argument("--xi", type=float, default=None)
    sp.add_argument("--v", default=None)
    sp.add_argument("--v-scalar", default=None)
    sp.add_argument("--n-max", type=int, default=nevanlinna.SERIES_N_MAX)

    sp = add("spectrum", _cmd_spectrum, "self-adjoint extension spectrum")
    sp.add_argument("--jacobi", required=True)
    sp.add_argument("--u", required=True)
    sp.add_argument("--interval", required=True)
    sp.add_argument("--grid", type=int, default=nevanlinna.DEFAULT_GRID)
    sp.add_argument("--n-max", type=int, default=nevanlinna.SERIES_N_MAX)

    sp = add("quad", _cmd_quad, "block Gauss quadrature measure")
    sp.add_argument("--jacobi", required=True)
    sp.add_argument("--n", type=int, required=True)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except InvalidInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        doc, lines = ns.func(ns)
    except InvalidInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericalFailureError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    if ns.json:
        sys.stdout.write(serialize.dumps(doc))
    else:
        for line in lines:
            print(line)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
