import json
import os
from pathlib import Path

import numpy as np
import pytest

from blockmoment import BlockJacobiMatrix
from blockmoment.cli import run
from blockmoment.serialize import dumps, jacobi_to_doc, loads

from cli_cases import CASES

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(autouse=True)
def in_data_dir(monkeypatch):
    monkeypatch.chdir(DATA)


def run_capture(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_outputs(name, argv, capsys):
    code, out, _ = run_capture(argv, capsys)
    assert code == 0
    golden = (GOLDEN / f"{name}.json").read_text()
    assert out == golden
    # byte-identical across runs
    code, out2, _ = run_capture(argv, capsys)
    assert code == 0 and out2 == out
    # the emitted document parses and round-trips through json
    doc = loads(out)
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == out


def test_transform_v_file_is_the_v_scalar_golden(capsys):
    # V = 0 read from a block document, not from --v-scalar 0,0
    code, out, _ = run_capture(
        ["transform", "--jacobi", "ind.json", "--z", "0,1", "--v",
         "v_zero.json", "--json"], capsys)
    assert code == 0
    assert out == (GOLDEN / "transform-v.json").read_text()


def test_goldens_hold_no_negative_zero():
    def numbers(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            for item in node:
                yield from numbers(item)
        elif isinstance(node, float):
            yield node

    files = sorted(GOLDEN.glob("*.json"))
    assert len(files) == len(CASES)
    for path in files:
        signed = [x for x in numbers(json.loads(path.read_text()))
                  if x == 0.0 and np.signbit(x)]
        assert not signed, path.name


def test_text_mode_runs(capsys):
    code, out, _ = run_capture(["classify", "--jacobi", "ch.json"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "Determinate"
    code, out, _ = run_capture(
        ["quad", "--jacobi", "ch.json", "--n", "2"], capsys)
    assert code == 0 and "nodes" in out


def test_exit_1_on_validation_failures(capsys):
    # nonpositive moment data is an input problem
    code, _, err = run_capture(
        ["invert-moments", "--moments", "bad_moments.json", "--json"], capsys)
    assert code == 1 and "error:" in err
    # missing file
    code, _, err = run_capture(
        ["moments", "--jacobi", "no_such_file.json", "--n", "2"], capsys)
    assert code == 1
    # unknown flag
    code, _, err = run_capture(["quad", "--jacobi", "ch.json", "--wat", "1"],
                               capsys)
    assert code == 1
    # wrong half-plane for the extremal transform
    code, _, err = run_capture(
        ["transform", "--jacobi", "ind.json", "--z", "0,1", "--xi", "0"],
        capsys)
    assert code == 1
    # contradictory transform modes
    code, _, err = run_capture(
        ["transform", "--jacobi", "ind.json", "--z", "0,1", "--xi", "0",
         "--v-scalar", "0,0"], capsys)
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["quartet", "--jacobi", "ind.json", "--z", "nan,1"],
    ["quartet", "--jacobi", "ind.json", "--z", "nan,1", "--json"],
    ["quartet", "--jacobi", "ind.json", "--z", "0,1", "--n-max", "-1"],
    ["transform", "--jacobi", "ind.json", "--z", "0,-1", "--xi", "nan"],
    ["transform", "--jacobi", "ind.json", "--z", "nan,1", "--v-scalar",
     "0,0"],
    ["spectrum", "--jacobi", "ind.json", "--u", "u_one.json",
     "--interval=-inf,1"],
    ["spectrum", "--jacobi", "ind.json", "--u", "u_one.json",
     "--interval=-1,1", "--n-max", "-3"],
    ["kernel", "--jacobi", "ch.json", "--z", "inf,1", "--n", "4"],
    ["gen-poly", "--jacobi", "ch.json", "--n", "-1"],
    ["moments", "--jacobi", "ch.json", "--n", "-1"],
    ["kernel", "--jacobi", "ch.json", "--z", "0,1", "--n", "-1"],
    ["quad", "--jacobi", "ch.json", "--n", "0"],
    ["moments", "--jacobi", "ch.json", "--measure", "measure_ch2.json",
     "--n", "2"],
    ["quartet", "--jacobi", "ind.json", "--z", "1"]])
def test_exit_1_on_non_finite_points_and_negative_series_lengths(argv,
                                                                capsys):
    code, out, err = run_capture(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv,says", [
    (["quartet", "--jacobi", "ind.json", "--z", "1"], "argument --z"),
    (["spectrum", "--jacobi", "ind.json", "--u", "u_one.json",
      "--interval=a,1"], "argument --interval"),
    (["transform", "--jacobi", "ind.json", "--z", "0,1", "--xi", "0",
      "--v-scalar", "0,0"], "not allowed with argument"),
    (["transform", "--jacobi", "ind.json", "--z", "0,1"],
     "one of the arguments --xi --v --v-scalar is required"),
    (["moments", "--n", "2"],
     "one of the arguments --jacobi --measure is required"),
    (["moments", "--jacobi", "ch.json", "--measure", "measure_ch2.json",
      "--n", "2"], "not allowed with argument"),
    (["moments", "--jacobi", "", "--n", "2"], "--jacobi: cannot read"),
    (["gen-poly", "--jacobi", "ch.json", "--n", "-1"],
     "n must be >= 0, got -1")])
def test_each_refusal_names_what_it_refuses(argv, says, capsys):
    # the parser names the flag, the library the series length
    code, out, err = run_capture(argv, capsys)
    assert code == 1 and out == ""
    assert says in err


def _jacobi_doc(p, diag):
    return {"p": p, "n_blocks": 2, "diag": diag,
            "offdiag": [[[[1.0, 0.0]]]]}


@pytest.mark.parametrize("argv,doc", [
    (["classify", "--jacobi", "DOC"],
     _jacobi_doc(1, [[[["x", 0]]], [[[0, 0]]]])),
    (["classify", "--jacobi", "DOC"],
     _jacobi_doc(1, [[[0, 0, 1], [1]], [[[0, 0]]]])),
    (["classify", "--jacobi", "DOC"], _jacobi_doc(1, 5)),
    (["moments", "--measure", "DOC", "--n", "2"],
     {"p": 1, "nodes": ["a"], "weights": [[[[1.0, 0.0]]]]}),
    (["classify", "--jacobi", "ch.json", "--samples", "DOC"], [[1, "x"]]),
    (["quad", "--jacobi", "DOC", "--n", "1"],
     _jacobi_doc(True, [[[[0, 0]]], [[[0, 0]]]])),
    (["moments", "--measure", "DOC", "--n", "2"],
     {"p": 1, "nodes": [0.0], "weights": [[[[-1.0, 0.0]]]]}),
    (["moments", "--measure", "DOC", "--n", "2"],
     {"p": 1, "nodes": [[0.5], [-0.5]],
      "weights": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]}),
    (["moments", "--measure", "DOC", "--n", "2"],
     {"p": 1, "nodes": 3.0, "weights": [[[[1.0, 0.0]]]]}),
    (["quad", "--jacobi", "DOC", "--n", "1"],
     {"p": 1, "n_blocks": True, "diag": [[[[0, 0]]]], "offdiag": []}),
    (["quad", "--jacobi", "DOC", "--n", "1"],
     {**_jacobi_doc(1, [[[[0, 0]]]] * 2), "n_blocks": 2.0}),
    (["quad", "--jacobi", "DOC", "--n", "1"],
     {**_jacobi_doc(1, [[[[0, 0]]]] * 2), "n_blocks": "2"}),
    (["classify", "--jacobi", "ch.json", "--samples", "DOC"], [[1, 2, 3]]),
], ids=["non-numeric-block", "ragged-block", "number-for-blocks",
        "non-numeric-node", "non-numeric-sample", "bool-p",
        "negative-weight", "nested-nodes", "scalar-nodes", "bool-n-blocks",
        "float-n-blocks", "string-n-blocks", "three-number-samples"])
def test_exit_1_on_malformed_numbers_in_documents(argv, doc, tmp_path,
                                                  capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [str(path) if a == "DOC" else a for a in argv]
    code, out, err = run_capture(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_exit_2_on_refusal_and_indecision(capsys):
    # determinate fixture: the V-parametrization is refused
    code, _, err = run_capture(
        ["transform", "--jacobi", "ch.json", "--z", "0,1",
         "--v-scalar", "0,0"], capsys)
    assert code == 2 and "numerical failure" in err
    # borderline fixture: classification is indecisive
    code, _, err = run_capture(
        ["classify", "--jacobi", "borderline.json", "--json"], capsys)
    assert code == 2 and "indecisive" in err


@pytest.mark.parametrize("argv", [
    ["quartet", "--jacobi", "ind.json", "--z", "300000,1"],
    ["quartet", "--jacobi", "ind.json", "--z", "300000,1", "--json"],
    ["transform", "--jacobi", "ind.json", "--z", "0,-1", "--xi", "1e300"],
    ["spectrum", "--jacobi", "ind.json", "--u", "u_one.json",
     "--interval=-1e5,1e5"],
    ["spectrum", "--jacobi", "ind.json", "--u", "u_one.json",
     "--interval=-1e165,1e165"],
    ["kernel", "--jacobi", "ind.json", "--z", "300000,1", "--n", "400"]])
def test_exit_2_when_a_series_overflows(argv, capsys):
    code, out, err = run_capture(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure:") and "Traceback" not in err


OVERFLOW_MEASURE = {"p": 1, "nodes": [-1e200, 1e200],
                    "weights": [[[[0.5, 0.0]]], [[[0.5, 0.0]]]]}
OVERFLOW_JACOBI = {"p": 1, "n_blocks": 3, "diag": [[[[1e200, 0]]]] * 3,
                   "offdiag": [[[[1, 0]]]] * 2}


@pytest.mark.parametrize("command,flag,doc,n", [
    ("moments", "--measure", OVERFLOW_MEASURE, "4"),
    ("moments", "--jacobi", OVERFLOW_JACOBI, "4"),
    ("gen-poly", "--jacobi", OVERFLOW_JACOBI, "2")])
def test_exit_2_when_moments_or_coefficients_overflow(command, flag, doc, n,
                                                      tmp_path, capsys):
    # valid input whose moments or coefficients pass the float range; the
    # non-finite values used to be refused as bad input after
    # RuntimeWarnings, which are errors here
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_capture([command, flag, str(path), "--n", n],
                                 capsys)
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure:") and "overflow" in err


def test_exit_2_when_a_kernel_overflows(tmp_path, capsys):
    # the overflowed kernel used to classify ind as determinate; warnings
    # are errors here
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(
        [[0, 1e300], [0, 2e300], [1, 3e300], [0, -1], [0, -2], [1, -3]]))
    code, out, err = run_capture(
        ["classify", "--jacobi", "ind.json", "--samples", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure:") and "overflow" in err


def test_exit_2_on_positive_moments_that_cannot_be_certified(tmp_path,
                                                             capsys):
    code, out, _ = run_capture(
        ["moments", "--jacobi", "ch.json", "--n", "30", "--json"], capsys)
    assert code == 0
    mfile = tmp_path / "m.json"
    mfile.write_text(out)
    code, _, err = run_capture(
        ["invert-moments", "--moments", str(mfile), "--json"], capsys)
    assert code == 2 and "numerical failure" in err and "section 14" in err


def test_moments_invert_moments_pipeline(tmp_path, capsys):
    # moments | invert-moments | moments is a fixed point on the depth the
    # recovered prefix supports (the serialized document drops the
    # generator rule, capping the basis length)
    code, out, _ = run_capture(
        ["moments", "--jacobi", "ch.json", "--n", "6", "--json"], capsys)
    assert code == 0
    mfile = tmp_path / "m.json"
    mfile.write_text(out)
    code, out, _ = run_capture(
        ["invert-moments", "--moments", str(mfile), "--json"], capsys)
    assert code == 0
    jackdoc = loads(out)["jacobi"]
    jfile = tmp_path / "j.json"
    jfile.write_text(json.dumps(jackdoc))
    code, out2, _ = run_capture(
        ["moments", "--jacobi", str(jfile), "--n", "3", "--json"], capsys)
    assert code == 0
    first = loads(mfile.read_text())["S"][:4]
    second = loads(out2)["S"]
    for a, b in zip(first, second):
        assert np.abs(np.asarray(a) - np.asarray(b)).max() < 1e-8


def test_gen_poly_d0_flag(tmp_path, capsys):
    d0file = tmp_path / "d0.json"
    d0file.write_text('[[[2.0,0.0]]]')
    code, out, _ = run_capture(
        ["gen-poly", "--jacobi", "ch.json", "--n", "1", "--d0", str(d0file),
         "--json"], capsys)
    assert code == 0
    doc = loads(out)
    assert doc["polys"][0]["coeffs"][0][0][0] == [2.0, 0.0]


def test_classify_with_samples_file(tmp_path, capsys):
    sfile = tmp_path / "samples.json"
    pts = [[0.0, 1.0], [0.0, 2.0], [1.0, 1.0], [-2.0, 1.0], [3.0, 2.0],
           [0.0, -1.0], [0.0, -2.0], [1.0, -1.0], [-2.0, -1.0], [3.0, -2.0]]
    sfile.write_text(json.dumps(pts))
    code, out, _ = run_capture(
        ["classify", "--jacobi", "ds.json", "--samples", str(sfile),
         "--json"], capsys)
    assert code == 0
    doc = loads(out)
    assert doc["class"] == "Indeterminate"
    assert len(doc["samples_upper"]) == 5


def test_classify_samples_deficiency_indices_once(monkeypatch, capsys):
    from blockmoment import spectral
    calls = []
    sample = spectral.deficiency_indices

    def counted(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(spectral, "deficiency_indices", counted)
    for name in ("ch.json", "ind.json", "ds.json"):
        calls.clear()
        code, _, _ = run_capture(["classify", "--jacobi", name, "--json"],
                                 capsys)
        assert code == 0
        assert len(calls) == 1


def test_non_regular_document_is_invalid_input(tmp_path, capsys):
    # off-diagonal block 1 exactly zero, or below the regularity tolerance
    for value in (0.0, 1e-13):
        j = BlockJacobiMatrix(1, (np.zeros((1, 1)),) * 3,
                              (np.array([[0.5]]), np.array([[value]])))
        jfile = tmp_path / "bad.json"
        jfile.write_text(dumps(jacobi_to_doc(j)))
        for argv in (["kernel", "--jacobi", str(jfile), "--z", "0,1",
                      "--n", "2"],
                     ["quad", "--jacobi", str(jfile), "--n", "3"]):
            code, out, err = run_capture(argv, capsys)
            assert (code, out) == (1, "")
            assert err.startswith("error: matrix is not a regular block "
                                  "Jacobi matrix: block 1 singular-offdiag")


def test_spectrum_rejects_nonunitary(tmp_path, capsys):
    ufile = tmp_path / "u.json"
    ufile.write_text('[[[0.5,0.0]]]')
    code, _, err = run_capture(
        ["spectrum", "--jacobi", "ind.json", "--u", str(ufile),
         "--interval=-5,5"], capsys)
    assert code == 1 and "unitary" in err
