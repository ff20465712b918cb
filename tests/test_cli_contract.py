"""The exit-code contract of ``swapforge run``, ``sweep`` and ``classify``
under mutated inputs.

A valid scenario config and the POVM file it reads are mutated (a value
replaced or deleted anywhere in either document, one numeric leaf made
non-finite or huge, the file's bytes cut short or replaced, or a
directory in its place) and ``cli.main`` runs in-process.  Every outcome
must be exit 0, 2 (input) or 3 (I/O) with ``error_code=`` first on
stderr and no warning; exit 1 means "verification failed" and never
comes from these commands, and an exception escaping ``main`` would be
a traceback.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swapforge.cli import main
from swapforge.experiment import CSV_COLUMNS
from swapforge.sampling import random_povm

POVM_NAME = "meas.json"
CONFIG_NAME = "scenario.json"


def matrices_doc(mats):
    """The POVM document of a d = 2 element stack."""
    return {
        "local_dim": 2,
        "elements": [[[[float(z.real), float(z.imag)] for z in row] for row in m] for m in mats],
    }


def povm_doc():
    return matrices_doc(random_povm(np.random.default_rng(5), d=2, n_elements=3).matrices)


CONFIG_DOC = {
    "local_dim": 2,
    "rounds": [
        {"family": "file", "params": {"path": POVM_NAME}},
        {"family": "noisy_bell", "params": {"lambda": 0.8}},
        {
            "family": "separable_product",
            "params": {
                "elements": [
                    {
                        "a": {"theta": 0.0, "phi": 0.0, "tau1": 1.0, "tau2": 0.0},
                        "b": {"theta": 0.0, "phi": 0.0, "tau1": 1.0, "tau2": 1.0},
                    },
                    {
                        "a": {"theta": 0.0, "phi": 0.0, "tau1": 0.0, "tau2": 1.0},
                        "b": {"theta": 0.0, "phi": 0.0, "tau1": 1.0, "tau2": 1.0},
                    },
                ]
            },
        },
    ],
    "sweep": {"param_name": "lambda", "start": 0.0, "stop": 1.0, "steps": 3},
    "outputs": {"report_path": "report.json"},
    "tolerance_overrides": {"prob_tol": 1e-12},
}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**20), max_value=10**20)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)


def node_paths(node, prefix=()):
    """The path of every value in a JSON document, the root first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from node_paths(child, prefix + (key,))


def value_at(doc, path):
    for part in path:
        doc = doc[part]
    return doc


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def mutated(draw, doc):
    """The document with one value replaced or deleted at a drawn path,
    or one numeric leaf replaced by NaN, +-Infinity, +-1e308 or the
    smallest subnormal 5e-324, serialized;
    or its serialized bytes cut short or replaced; or None, for a
    directory in place of the file."""
    how = draw(st.sampled_from(["replace", "delete", "numeric", "truncate", "bytes", "directory"]))
    raw = json.dumps(doc).encode()
    if how == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if how == "bytes":
        return draw(st.binary(max_size=40))
    if how == "directory":
        return None
    doc = json.loads(raw)
    paths = list(node_paths(doc))[1:]
    if how == "numeric":
        paths = [path for path in paths if is_number(value_at(doc, path))]
    *outer, key = draw(st.sampled_from(paths))
    parent = value_at(doc, outer)
    if how == "replace":
        parent[key] = draw(json_values)
    elif how == "numeric":
        parent[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324]))
    else:
        del parent[key]
    return json.dumps(doc).encode()


def write_docs(tmpdir, docs):
    """Each document into tmpdir under its name."""
    for name, doc in docs.items():
        with open(os.path.join(tmpdir, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def write_inputs(tmpdir, data, target):
    """Both documents into tmpdir, the target one mutated."""
    docs = {CONFIG_NAME: CONFIG_DOC, POVM_NAME: povm_doc()}
    for name, doc in docs.items():
        raw = data.draw(mutated(doc)) if name == target else json.dumps(doc).encode()
        if raw is None:
            os.mkdir(os.path.join(tmpdir, name))
            continue
        with open(os.path.join(tmpdir, name), "wb") as fh:
            fh.write(raw)


def run_main(argv):
    """Exit code, stdout and stderr of ``main``; a warning, which the
    command line would print ahead of ``error_code=``, fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


def assert_documented(code, err):
    assert code in (0, 2, 3), err
    if code:
        assert err.startswith("error_code="), err
    else:
        assert err == ""
    assert "Traceback" not in err


@given(
    target=st.sampled_from([CONFIG_NAME, POVM_NAME]),
    data=st.data(),
)
def test_run_exits_with_a_documented_code(target, data):
    with tempfile.TemporaryDirectory() as tmpdir:
        write_inputs(tmpdir, data, target)
        code, out, err = run_main(["run", os.path.join(tmpdir, CONFIG_NAME)])
    assert_documented(code, err)
    if code == 0:
        assert math.isfinite(float(out.splitlines()[-1].split(":")[1]))


@given(
    target=st.sampled_from([CONFIG_NAME, POVM_NAME]),
    data=st.data(),
)
def test_sweep_exits_with_a_documented_code(target, data):
    with tempfile.TemporaryDirectory() as tmpdir:
        write_inputs(tmpdir, data, target)
        csv_path = os.path.join(tmpdir, "sweep.csv")
        code, out, err = run_main(["sweep", os.path.join(tmpdir, CONFIG_NAME), "--csv", csv_path])
        assert_documented(code, err)
        if code == 0:
            with open(csv_path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            assert lines[0] == ",".join(CSV_COLUMNS)
            assert out == f"wrote {len(lines) - 1} rows to {csv_path}\n"


@given(data=st.data())
def test_classify_exits_with_a_documented_code(data):
    with tempfile.TemporaryDirectory() as tmpdir:
        path = os.path.join(tmpdir, POVM_NAME)
        raw = data.draw(mutated(povm_doc()))
        if raw is None:
            os.mkdir(path)
        else:
            with open(path, "wb") as fh:
                fh.write(raw)
        code, out, err = run_main(["classify", path])
    assert_documented(code, err)
    if code == 0:
        assert len(json.loads(out)["per_element"]) >= 1


def test_unmutated_inputs_run():
    with tempfile.TemporaryDirectory() as tmpdir:
        write_docs(tmpdir, {CONFIG_NAME: CONFIG_DOC, POVM_NAME: povm_doc()})
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", os.path.join(tmpdir, CONFIG_NAME)]) == 0
        with open(os.path.join(tmpdir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    assert len(report["branches"]) == 3 * 4 * 2


def test_sweep_grid_outside_the_unit_interval_exits_two():
    doc = dict(CONFIG_DOC, sweep={"param_name": "lambda", "start": -0.5, "stop": 1.0, "steps": 3})
    with tempfile.TemporaryDirectory() as tmpdir:
        write_docs(tmpdir, {CONFIG_NAME: doc, POVM_NAME: povm_doc()})
        code, _, err = run_main(
            ["sweep", os.path.join(tmpdir, CONFIG_NAME), "--csv", os.path.join(tmpdir, "s.csv")]
        )
    assert code == 2
    assert err.startswith("error_code=BadParameter\n"), err
    assert "-0.5" in err


def tiny_element_povm(t):
    """{diag(t, 0, 0, 0), I - diag(t, 0, 0, 0)}: complete, its first trace t."""
    tiny = np.diag([t, 0.0, 0.0, 0.0])
    return matrices_doc([tiny, np.eye(4) - tiny])


@pytest.mark.parametrize("t", [1e-200, 1e-320])
def test_classify_reads_a_tiny_element_as_its_rescaled_self(t):
    # its squared eigenvalues underflow (1e-200) and its inverse trace
    # overflows (1e-320); it is classified as diag(1, 0, 0, 0), and its rank
    # keeps the absolute PSD_TOL rule
    with tempfile.TemporaryDirectory() as tmpdir:
        write_docs(tmpdir, {POVM_NAME: tiny_element_povm(t)})
        code, out, err = run_main(["classify", os.path.join(tmpdir, POVM_NAME)])
        assert (code, err) == (0, "")
        write_docs(tmpdir, {POVM_NAME: tiny_element_povm(1.0)})
        _, unit, _ = run_main(["classify", os.path.join(tmpdir, POVM_NAME)])
    got, want = (json.loads(text)["per_element"][0] for text in (out, unit))
    assert want["rank"] == 1
    assert got == dict(want, rank=0)


SEPARABLE_HUGE = dict(
    CONFIG_DOC,
    rounds=[{
        "family": "separable_product",
        "params": {"elements": [{
            "a": {"theta": 0.0, "phi": 0.0, "tau1": 1e308, "tau2": 0.0},
            "b": {"theta": 0.0, "phi": 0.0, "tau1": 1e308, "tau2": 0.0},
        }]},
    }],
    sweep=None,
)
HUGE_ENTRY = matrices_doc([np.diag([1e308, 0.0, 0.0, 0.0])] * 2)

# outside input whose arithmetic overflows: the command, the documents,
# and the error code it exits 2 with
OVERFLOWS = {
    "element sum": ("classify", {POVM_NAME: HUGE_ENTRY}, "InvalidPovm"),
    "separable_product factors": ("run", {CONFIG_NAME: SEPARABLE_HUGE}, "ValidationFailure"),
    "sweep range": (
        "sweep",
        {
            CONFIG_NAME: dict(CONFIG_DOC, sweep={
                "param_name": "lambda", "start": -1.7e308, "stop": 1.7e308, "steps": 3,
            }),
            POVM_NAME: povm_doc(),
        },
        "ConfigParse",
    ),
}


@pytest.mark.parametrize("case", OVERFLOWS)
def test_overflowing_input_exits_two_without_a_warning(case):
    command, docs, error_code = OVERFLOWS[case]
    with tempfile.TemporaryDirectory() as tmpdir:
        write_docs(tmpdir, docs)
        argv = [command, os.path.join(tmpdir, next(iter(docs)))]
        if command == "sweep":
            argv += ["--csv", os.path.join(tmpdir, "s.csv")]
        code, _, err = run_main(argv)
    assert code == 2
    assert err.startswith(f"error_code={error_code}\n"), err
    if case == "sweep range":
        assert "[-1.7e+308, 1.7e+308]" in err
