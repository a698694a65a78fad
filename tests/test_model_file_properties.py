"""Property tests for the model file format: save_model -> load_model is
bit-exact, and any one malformed part of a saved model makes `fairavi
probe` exit 3 with the file's path in its message, before any work."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fairavi import cli
from fairavi.data import generate_synthetic, save_jsonl, split_group_disjoint
from fairavi.model import HireabilityModel, load_model, param_shapes, save_model
from tests.conftest import tiny_dims, tiny_generator_config

FINITE = st.floats(allow_nan=False, allow_infinity=False)
SETTINGS = settings(max_examples=30, deadline=None)
_model = HireabilityModel("multimodal", "supervised-gender", tiny_dims(), seed=3)
_model.trained = True     # so a mutation that loads would run the whole probe
with tempfile.TemporaryDirectory() as _tmp:
    save_model(_model, os.path.join(_tmp, "model.json"))
    with open(os.path.join(_tmp, "model.json")) as _fh:
        TEXT = _fh.read()
NAMES = sorted(json.loads(TEXT)["params"])


@SETTINGS
@given(st.data())
def test_round_trip_is_bit_exact(data):
    model = HireabilityModel("multimodal", "negative-sampling", tiny_dims(), q=16, seed=4)
    model.trained = data.draw(st.booleans())
    for node in model.params.values():
        node.value[...] = data.draw(arrays(np.float64, node.value.shape, elements=FINITE))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        save_model(model, path)
        loaded = load_model(path)
    assert (loaded.variant, loaded.q, loaded.trained) == ("negative-sampling", 16, model.trained)
    assert set(loaded.params) == set(model.params)
    for name, node in model.params.items():
        assert loaded.params[name].value.tobytes() == node.value.tobytes(), name   # -0.0 too


def _is_hex(v) -> bool:
    try:
        float.fromhex(v)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


NOT_A_STRING = st.integers() | st.none() | st.booleans() | FINITE | st.lists(st.text(), max_size=2)
NOT_HEX = st.text().filter(lambda t: not _is_hex(t)) | NOT_A_STRING
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "-0x1.8p+1025", float("inf").hex()])
WRONG_WIDTH = (st.integers(max_value=0) | st.floats() | st.text() | st.none()
               | st.booleans() | st.lists(st.integers(), max_size=2))
NOT_AN_OBJECT = st.lists(st.integers(), max_size=2) | st.text() | st.integers() | st.none()


def _copy():
    return json.loads(TEXT)


@st.composite
def data_mutation(draw):
    """One parameter's data: a value dropped, added, not hex or not finite."""
    doc = _copy()
    entry = doc["params"][draw(st.sampled_from(NAMES))]
    data = entry["data"]
    i = draw(st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(["drop", "extra", "not-hex", "non-finite", "not-a-list"]))
    if kind == "drop":
        del data[i]
    elif kind == "extra":
        data.insert(i, draw(FINITE).hex())
    elif kind == "not-hex":
        data[i] = draw(NOT_HEX)
    elif kind == "non-finite":
        data[i] = draw(NON_FINITE)
    else:
        entry["data"] = draw(NOT_AN_OBJECT | st.dictionaries(st.text(), st.text()))
    return json.dumps(doc)


@st.composite
def entry_mutation(draw):
    """One parameter entry: another shape, a key lost or added, not an
    object, or the parameter renamed or missing."""
    doc = _copy()
    name = draw(st.sampled_from(NAMES))
    entry = doc["params"][name]
    kind = draw(st.sampled_from(["shape", "key", "not-an-object", "rename", "drop"]))
    if kind == "shape":
        entry["shape"] = draw((st.lists(st.integers(0, 5), max_size=3) | NOT_AN_OBJECT)
                              .filter(lambda s: s != entry["shape"]))
    elif kind == "key":
        if draw(st.booleans()):
            del entry[draw(st.sampled_from(["shape", "data"]))]
        else:
            entry[draw(st.text().filter(lambda k: k not in entry))] = 0
    elif kind == "not-an-object":
        doc["params"][name] = draw(NOT_AN_OBJECT)
    elif kind == "rename":
        doc["params"][draw(st.text().filter(lambda k: k not in NAMES))] = doc["params"].pop(name)
    else:
        del doc["params"][name]
    return json.dumps(doc)


@st.composite
def dims_mutation(draw):
    """dims: a key lost or unknown, a width that is not a positive integer,
    or dims (or its input_dims) not an object."""
    doc = _copy()
    dims = doc["dims"]
    kind = draw(st.sampled_from(["drop", "unknown", "width", "input-width", "input-key",
                                 "not-an-object"]))
    if kind == "drop":
        del dims[draw(st.sampled_from(sorted(dims)))]
    elif kind == "unknown":
        dims[draw(st.text().filter(lambda k: k not in dims))] = 4
    elif kind == "width":
        dims[draw(st.sampled_from(sorted(set(dims) - {"input_dims"})))] = draw(WRONG_WIDTH)
    elif kind == "input-width":
        dims["input_dims"][draw(st.sampled_from(sorted(dims["input_dims"])))] = \
            draw(WRONG_WIDTH)
    elif kind == "input-key":
        dims["input_dims"][draw(st.text().filter(lambda k: k not in dims["input_dims"]))] = 4
    else:
        doc["dims"] = draw(NOT_AN_OBJECT)
    return json.dumps(doc)


WRONG_TYPE = {"modality": NOT_A_STRING,
              "variant": NOT_A_STRING,
              "q": st.text() | st.none() | st.booleans() | FINITE,
              "k": st.text() | st.none() | st.booleans() | FINITE | st.integers(max_value=1),
              "trained": st.integers() | st.none() | st.text(),
              "params": NOT_AN_OBJECT}


@st.composite
def document_mutation(draw):
    """The document: not an object, a key lost or unknown, a field of the
    wrong type, the file cut short or a byte that is not UTF-8."""
    kind = draw(st.sampled_from(["not-an-object", "drop", "unknown", "type", "cut",
                                 "bad-byte"]))
    if kind == "cut":
        return TEXT[:draw(st.integers(0, len(TEXT) - 2))]    # the last char is a newline
    if kind == "bad-byte":
        i = draw(st.integers(0, len(TEXT)))
        return TEXT.encode()[:i] + b"\xff" + TEXT.encode()[i:]
    doc = _copy()
    if kind == "not-an-object":
        doc = draw(NOT_AN_OBJECT)
    elif kind == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "unknown":
        doc[draw(st.text().filter(lambda k: k not in doc))] = None
    else:
        key = draw(st.sampled_from(sorted(WRONG_TYPE)))
        doc[key] = draw(WRONG_TYPE[key])
    return json.dumps(doc)


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    samples = generate_synthetic(tiny_generator_config())
    split_group_disjoint(samples, seed=3)
    path = str(tmp_path_factory.mktemp("data") / "data.jsonl")
    save_jsonl(samples, path)
    return path


def _probe_exits_3(content, data_path):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "wb") as fh:
            fh.write(content if isinstance(content, bytes) else content.encode())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["probe", "--model", path, "--data", data_path, "--target", "gender",
                             "--out-dir", os.path.join(tmp, "report")])
    assert code == 3, err.getvalue()
    assert path in err.getvalue()
    return err.getvalue()


def test_the_unmutated_file_loads(tmp_path):
    (tmp_path / "model.json").write_text(TEXT)
    assert load_model(tmp_path / "model.json").variant == "supervised-gender"


@SETTINGS
@given(data_mutation())
def test_malformed_data_exits_3(data_path, content):
    _probe_exits_3(content, data_path)


@SETTINGS
@given(entry_mutation())
def test_malformed_parameter_entry_exits_3(data_path, content):
    _probe_exits_3(content, data_path)


@SETTINGS
@given(dims_mutation())
def test_malformed_dims_exits_3(data_path, content):
    _probe_exits_3(content, data_path)


@SETTINGS
@given(document_mutation())
def test_malformed_document_exits_3(data_path, content):
    _probe_exits_3(content, data_path)


@pytest.mark.parametrize("key", ["gru_width", "att_proj", "trunk_width", "adv_hidden",
                                 "input_dims.video"])
def test_a_width_past_memory_exits_3_before_the_model_is_built(data_path, key):
    """Each stored shape is compared with the one the dims give before any
    array is made, so a width no allocation could hold (2**40; the GRU's
    half width 2**39) fails as a file fault that names a parameter."""
    doc = _copy()
    outer, _, inner = key.partition(".")
    (doc["dims"][outer] if inner else doc["dims"])[inner or outer] = 2 ** 40
    err = _probe_exits_3(json.dumps(doc), data_path)
    assert re.search(rf": [\w.]+ has shape \[[\d, ]+\], expected \[[\d, ]*"
                     rf"({2 ** 40}|{2 ** 39})", err), err


def test_an_odd_gru_width_exits_3_at_load(data_path):
    """param_shapes halves gru_width, so a file can hold parameters whose
    shapes match an odd width's dims (the constructor refuses such dims, so
    only a hand-made file does); the width itself is refused before the
    model is built, where numpy's matmul would fail later."""
    doc = _copy()
    doc["dims"]["gru_width"] = 3
    shapes = param_shapes("multimodal", "supervised-gender",
                          dataclasses.replace(tiny_dims(), gru_width=3), 2)
    doc["params"] = {name: {"shape": list(shape), "data": ["0x0.0p+0"] * math.prod(shape)}
                     for name, shape in shapes.items()}
    err = _probe_exits_3(json.dumps(doc), data_path)
    assert "dims.gru_width must be a positive even int, got 3" in err


@pytest.mark.parametrize("k", [1, 0, -7])
def test_a_k_below_2_exits_3_naming_the_file_and_k(data_path, k):
    """Training needs k >= 2 negative-sampling candidates (TrainConfig), and a
    model file is held to the same range."""
    doc = _copy()
    doc["k"] = k
    err = _probe_exits_3(json.dumps(doc), data_path)
    assert f"k must be an int of at least 2, got {k}" in err
