"""Property tests for the --face-targets file: any one malformed part of a
valid file makes `fairavi train` exit 3 with the file's path in its
message, before any epoch, and never exit 1."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from fairavi import cli
from fairavi.data import generate_synthetic, save_jsonl, split_group_disjoint
from tests.conftest import tiny_generator_config

SETTINGS = settings(max_examples=30, deadline=None)
_samples = generate_synthetic(tiny_generator_config())
split_group_disjoint(_samples, seed=3)
TARGETS = {s.video_id: [float(v) for v in s.face[:2]] for s in _samples}
VIDEOS = sorted(TARGETS)
# Training reads face targets for the train and val clips only; a test clip may be absent.
TRAINED = sorted({s.video_id for s in _samples if s.split in ("train", "val")})
TEXT = json.dumps(TARGETS) + "\n"

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NOT_A_NUMBER = (st.text() | st.booleans() | st.none() | st.lists(FINITE, max_size=2)
                | st.dictionaries(st.text(), FINITE, max_size=2))
NOT_AN_OBJECT = st.lists(FINITE, max_size=2) | st.text() | st.integers() | FINITE | st.none()


@st.composite
def mutation(draw):
    """One fault: not JSON, not an object, a vector of another length, a
    non-number, a non-finite token, a dropped train or val video, a cut or a
    non-UTF-8 byte."""
    kind = draw(st.sampled_from(["not-json", "not-an-object", "length", "not-a-number",
                                 "non-finite", "drop", "cut", "bad-byte"]))
    if kind == "not-json":
        return draw(st.text().filter(lambda t: not t.strip().startswith("{")))
    if kind == "cut":
        return TEXT[:draw(st.integers(0, len(TEXT) - 2))]   # the last char is a newline
    if kind == "bad-byte":
        i = draw(st.integers(0, len(TEXT)))
        return TEXT.encode()[:i] + b"\xff" + TEXT.encode()[i:]
    if kind == "not-an-object":
        return json.dumps(draw(NOT_AN_OBJECT | st.just({})))
    doc = json.loads(TEXT)
    vid = draw(st.sampled_from(VIDEOS))
    if kind == "length":
        doc[vid] = draw(st.lists(FINITE, max_size=5).filter(lambda v: len(v) != 2))
    elif kind == "not-a-number":
        if draw(st.booleans()):
            doc[vid][draw(st.integers(0, 1))] = draw(NOT_A_NUMBER)
        else:
            doc[vid] = draw(NOT_A_NUMBER.filter(lambda v: not isinstance(v, list)))
    elif kind == "non-finite":
        doc[vid][draw(st.integers(0, 1))] = "@"
        token = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e999"]))
        return json.dumps(doc).replace('"@"', token)
    else:
        del doc[draw(st.sampled_from(TRAINED))]
    return json.dumps(doc)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("inputs")
    save_jsonl(_samples, tmp / "data.jsonl")
    (tmp / "train.json").write_text(json.dumps(
        {"batch_size": 16, "max_epochs_pretrain": 1, "patience_pretrain": 1,
         "max_epochs_adv": 1, "patience_adv": 1, "max_outer": 1, "seed": 5}))
    return str(tmp / "data.jsonl"), str(tmp / "train.json")


def _train(content, files):
    data, config = files
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "faces.json")
        with open(path, "wb") as fh:
            fh.write(content if isinstance(content, bytes) else content.encode())
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", "--data", data, "--variant", "static-faces",
                             "--modality", "language", "--face-dim", "2",
                             "--face-targets", path, "--config", config,
                             "--out", os.path.join(tmp, "model.json")])
    return code, err.getvalue(), path


def test_the_unmutated_file_trains(files):
    code, err, _ = _train(TEXT, files)
    assert code == 0, err


@SETTINGS
@given(mutation())
def test_malformed_face_targets_exit_3(files, content):
    code, err, path = _train(content, files)
    assert code == 3, err
    assert path in err


@pytest.mark.parametrize("value", ["0.5", True, None, 10 ** 400],
                         ids=["numeric-string", "bool", "null", "int-past-float-range"])
def test_value_numpy_would_coerce_exits_3(files, value):
    """A string, bool or null is no coordinate, though numpy would make a
    float of it; an int past float range overflows."""
    doc = json.loads(TEXT)
    doc[VIDEOS[0]][1] = value
    code, err, path = _train(json.dumps(doc), files)
    assert code == 3 and path in err, err


@pytest.mark.parametrize("value", [0.5, {"a": 0.5}, "0.5", None],
                         ids=["number", "object", "string", "null"])
def test_embedding_that_is_no_array_exits_3(files, value):
    doc = json.loads(TEXT)
    doc[VIDEOS[0]] = value
    code, err, path = _train(json.dumps(doc), files)
    assert code == 3 and path in err, err
