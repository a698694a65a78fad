"""Property tests for the JSONL corpus format: save_jsonl -> load_jsonl is
exact, and a row with any one malformed field is rejected at its line."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fairavi import data as dt
from fairavi.errors import ContractError
from tests.conftest import tiny_generator_config

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def datasets(draw):
    """1-4 samples with unique ids and one random (T, d) shape per modality."""
    shapes = {f: (draw(st.integers(1, 4)), draw(st.integers(1, 3))) for f in dt.SEQ_FIELDS}
    ids = draw(st.lists(st.text(max_size=8), min_size=1, max_size=4, unique=True))
    return [dt.InterviewSample(
        id=sample_id, video_id=draw(st.text(max_size=6)),
        **{f: draw(arrays(np.float64, shapes[f], elements=FINITE)) for f in dt.SEQ_FIELDS},
        face=draw(arrays(np.float64, (dt.FACE_DIM,), elements=FINITE)),
        y=draw(st.sampled_from([0, 1])), z=draw(st.none() | st.integers(0, 2 ** 40)),
        split=draw(st.sampled_from(dt.SPLITS))) for sample_id in ids]


@SETTINGS
@given(datasets())
def test_round_trip_is_exact(samples):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.jsonl")
        dt.save_jsonl(samples, path)
        loaded = dt.load_jsonl(path)
    assert len(loaded) == len(samples)
    for a, b in zip(samples, loaded):
        assert (a.id, a.video_id, a.y, a.z, a.split) == (b.id, b.video_id, b.y, b.z, b.split)
        for f in (*dt.SEQ_FIELDS, "face"):
            assert getattr(b, f).shape == getattr(a, f).shape, f
            assert getattr(b, f).tobytes() == getattr(a, f).tobytes(), f   # -0.0 included


def _valid_rows():
    samples = dt.generate_synthetic(tiny_generator_config(n=2))
    for s in samples:
        s.split = "train"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.jsonl")
        dt.save_jsonl(samples, path)
        with open(path) as fh:
            return [json.loads(line) for line in fh]


ROWS = _valid_rows()


@st.composite
def bad_sequence(draw, field):
    seq = [list(row) for row in ROWS[1][field]]
    if draw(st.booleans()):   # a non-finite entry
        i, j = draw(st.integers(0, len(seq) - 1)), draw(st.integers(0, len(seq[0]) - 1))
        seq[i][j] = draw(NON_FINITE)
    else:                     # a shape that differs from the first row's
        T, d = draw(st.tuples(st.integers(1, 5), st.integers(1, 4)).filter(
            lambda shape: shape != (len(seq), len(seq[0]))))
        seq = [[0.0] * d for _ in range(T)]
    return seq


@st.composite
def bad_face(draw):
    if draw(st.booleans()):
        face = list(ROWS[1]["face"])
        face[draw(st.integers(0, dt.FACE_DIM - 1))] = draw(NON_FINITE)
        return face
    return [0.0] * draw(st.integers(0, 2 * dt.FACE_DIM).filter(lambda n: n != dt.FACE_DIM))


NOT_A_STRING = st.integers() | st.none() | st.booleans() | FINITE | st.lists(st.text(), max_size=2)

# field -> (strategy for a malformed value, message at line 2)
MALFORMED = {
    "id": (NOT_A_STRING | st.just(ROWS[0]["id"]), r"id must be a string|duplicate id"),
    "video_id": (NOT_A_STRING, "video_id must be a string"),
    **{f: (bad_sequence(f), f"{f} (has a non-finite value|has shape)") for f in dt.SEQ_FIELDS},
    "face": (bad_face(), "face (has a non-finite value|must have length)"),
    "y": (st.integers().filter(lambda y: y not in (0, 1)) | FINITE | st.booleans()
          | st.none() | st.text(), "y must be 0 or 1"),
    "z": (st.integers(max_value=-1) | FINITE | st.booleans() | st.text(),
          "z must be null or a non-negative integer"),
    "split": (st.text().filter(lambda t: t not in dt.SPLITS) | st.none() | st.integers(),
              "split must be one of"),
}


@pytest.mark.parametrize("field", sorted(MALFORMED))
def test_malformed_field_is_rejected_at_its_line(field):
    strategy, message = MALFORMED[field]

    @SETTINGS
    @given(strategy)
    def check(value):
        row = dict(ROWS[1], **{field: value})
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.jsonl")
            with open(path, "w") as fh:
                fh.write(json.dumps(ROWS[0]) + "\n" + json.dumps(row) + "\n")
            with pytest.raises(ContractError, match=rf"d\.jsonl:2: ({message})"):
                dt.load_jsonl(path)

    check()
