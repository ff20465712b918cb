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
from hypothesis import given
from hypothesis import strategies as st

from swapforge.cli import main
from swapforge.experiment import CSV_COLUMNS
from swapforge.sampling import random_povm

POVM_NAME = "meas.json"
CONFIG_NAME = "scenario.json"


def povm_doc():
    povm = random_povm(np.random.default_rng(5), d=2, n_elements=3)
    return {
        "local_dim": 2,
        "elements": [
            [[[float(z.real), float(z.imag)] for z in row] for row in el.matrix]
            for el in povm.elements
        ],
    }


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
    or one numeric leaf replaced by NaN, +-Infinity or 1e308, serialized;
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
        parent[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e308]))
    else:
        del parent[key]
    return json.dumps(doc).encode()


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
        for name, doc in ((CONFIG_NAME, CONFIG_DOC), (POVM_NAME, povm_doc())):
            with open(os.path.join(tmpdir, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", os.path.join(tmpdir, CONFIG_NAME)]) == 0
        with open(os.path.join(tmpdir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    assert len(report["branches"]) == 3 * 4 * 2


def test_sweep_grid_outside_the_unit_interval_exits_two():
    doc = dict(CONFIG_DOC, sweep={"param_name": "lambda", "start": -0.5, "stop": 1.0, "steps": 3})
    with tempfile.TemporaryDirectory() as tmpdir:
        for name, content in ((CONFIG_NAME, doc), (POVM_NAME, povm_doc())):
            with open(os.path.join(tmpdir, name), "w", encoding="utf-8") as fh:
                json.dump(content, fh)
        code, _, err = run_main(
            ["sweep", os.path.join(tmpdir, CONFIG_NAME), "--csv", os.path.join(tmpdir, "s.csv")]
        )
    assert code == 2
    assert err.startswith("error_code=BadParameter\n"), err
    assert "-0.5" in err
