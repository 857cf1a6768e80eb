"""JSON document formats.

Complex entries are rendered as [re, im] pairs; a "block" is a p x p array
of such pairs.  Documents:

* jacobi     {"p", "n_blocks", "diag": [block...], "offdiag": [block...]}
* matrixpoly {"p", "coeffs": [block...]}
* moments    {"p", "S": [block...]}
* measure    {"p", "nodes": [real...], "weights": [block...]}

``dumps`` pins the rendering for golden comparisons: sorted keys, compact
separators, shortest round-trip decimals (Python float repr), and a trailing
newline.  Doubles survive a dump/load round trip bit-exactly.

A list of blocks is written from, and read into, one (m, p, p) stack (see
:func:`~blockmoment.jacobi.block_stack`); a single block is the one-element
case.  Non-numbers, ragged lists and wrong shapes raise InvalidInputError
naming the field.

Generator rules attached to a BlockJacobiMatrix are not serializable; only
the stored prefix travels through a document.
"""

import json

import numpy as np

from .errors import InvalidInputError
from .jacobi import BlockJacobiMatrix, _require_count, block_stack
from .measures import StepMeasure
from .moments import MomentSequence
from .polys import MatrixPoly


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidInputError(f"invalid JSON: {e}") from None


def block_to_doc(m) -> list:
    """Render one block, or a whole stack of blocks, as [re, im] pairs."""
    a = np.asarray(m, dtype=complex)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def floats_from_doc(doc, what: str) -> np.ndarray:
    """Float array of a nested list; non-numbers and ragged lists raise
    InvalidInputError naming ``what``."""
    try:
        return np.asarray(doc, dtype=float)
    except (ValueError, TypeError) as e:
        raise InvalidInputError(f"{what}: not an array of numbers ({e})") \
            from None


def blocks_from_doc(doc, p: int | None = None,
                    what: str = "blocks") -> np.ndarray:
    """Read-only (m, p, p) stack from a list of blocks of [re, im] pairs.

    ``p`` defaults to the size of the blocks read; wrong shapes raise
    InvalidInputError naming ``what``.
    """
    a = floats_from_doc(doc, what)
    if a.size:
        if a.shape[-1:] != (2,):
            raise InvalidInputError(
                f"{what}: expected [re, im] pairs, got shape {a.shape}")
        a = a[..., 0] + 1j * a[..., 1]
    return block_stack(a, a.shape[-1] if p is None else p, what)


def block_from_doc(doc, p: int | None = None, what: str = "block") -> np.ndarray:
    return blocks_from_doc([doc], p, what)[0]


def _require_keys(doc, keys, what: str) -> None:
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{what} document must be a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise InvalidInputError(f"{what} document is missing keys {missing}")


def jacobi_to_doc(j: BlockJacobiMatrix) -> dict:
    return {
        "p": int(j.p),
        "n_blocks": int(j.n_blocks),
        "diag": block_to_doc(j.diag),
        "offdiag": block_to_doc(j.offdiag),
    }


def jacobi_from_doc(doc) -> BlockJacobiMatrix:
    _require_keys(doc, ("p", "n_blocks", "diag", "offdiag"), "jacobi")
    p = _require_count(doc["p"], "jacobi document: p", 1)
    n = _require_count(doc["n_blocks"], "jacobi document: n_blocks", 1)
    diag = blocks_from_doc(doc["diag"], p, "jacobi diag")
    offdiag = blocks_from_doc(doc["offdiag"], p, "jacobi offdiag")
    if len(diag) != n:
        raise InvalidInputError(
            f"jacobi document: n_blocks={n} but {len(diag)} diagonal blocks")
    return BlockJacobiMatrix(p, diag, offdiag)


def poly_to_doc(poly: MatrixPoly) -> dict:
    return {"p": int(poly.p), "coeffs": block_to_doc(poly.coeffs)}


def poly_from_doc(doc) -> MatrixPoly:
    _require_keys(doc, ("p", "coeffs"), "matrixpoly")
    p = _require_count(doc["p"], "matrixpoly document: p", 1)
    return MatrixPoly(p, blocks_from_doc(doc["coeffs"], p,
                                         "matrixpoly coeffs"))


def moments_to_doc(s: MomentSequence) -> dict:
    return {"p": int(s.p), "S": block_to_doc(s.S)}


def moments_from_doc(doc) -> MomentSequence:
    _require_keys(doc, ("p", "S"), "moments")
    p = _require_count(doc["p"], "moments document: p", 1)
    return MomentSequence(p, blocks_from_doc(doc["S"], p, "moments S"))


def measure_to_doc(t: StepMeasure) -> dict:
    return {"p": int(t.p),
            "nodes": t.nodes.tolist(),
            "weights": block_to_doc(t.weights)}


def measure_from_doc(doc) -> StepMeasure:
    _require_keys(doc, ("p", "nodes", "weights"), "measure")
    p = _require_count(doc["p"], "measure document: p", 1)
    return StepMeasure(p, floats_from_doc(doc["nodes"], "measure nodes"),
                       blocks_from_doc(doc["weights"], p, "measure weights"))
