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


IN_RANGE = (st.floats(1e-4, 1e16, exclude_max=True) | st.floats(-1e16, -1e-4, exclude_min=True)
            | st.sampled_from([0.0, -0.0]))
# dtype and elements of the arrays the writer may meet
WRITTEN_ARRAYS = {
    "in-range": (np.float64, IN_RANGE),         # save_jsonl's orjson case
    "float64": (np.float64, st.floats()),       # NaN, +-inf, subnormals, 1e16 and up
    "big-endian": (np.dtype(">f8"), st.floats()),
    "float32": (np.float32, st.floats(width=32)),
    "int64": (np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
}
ODD_IDS = st.sampled_from(["naïve", 'say "hi"', "back\\slash", "日本\u2028", "tab\there"])


@st.composite
def written_array(draw, shape):
    """An array of any kind in WRITTEN_ARRAYS, a 2-D one sometimes as a
    transposed (non-contiguous) view."""
    dtype, elements = WRITTEN_ARRAYS[draw(st.sampled_from(sorted(WRITTEN_ARRAYS)))]
    if len(shape) == 2 and draw(st.booleans()):
        return draw(arrays(dtype, shape[::-1], elements=elements)).T
    return draw(arrays(dtype, shape, elements=elements))


@st.composite
def datasets(draw, odd=False):
    """1-4 samples with unique ids and one random (T, d) shape per modality.

    ``odd`` adds what the writer must handle though the loader rejects or
    converts it: the arrays of written_array, d = 0, and ids with quotes,
    backslashes or non-ASCII text."""
    shapes = {f: (draw(st.integers(1, 4)), draw(st.integers(0 if odd else 1, 3)))
              for f in dt.SEQ_FIELDS}
    ids = draw(st.lists(st.text(max_size=8) | ODD_IDS if odd else st.text(max_size=8),
                        min_size=1, max_size=4, unique=True))
    array = written_array if odd else lambda shape: arrays(np.float64, shape, elements=FINITE)
    return [dt.InterviewSample(
        id=sample_id, video_id=draw(st.text(max_size=6)),
        **{f: draw(array(shapes[f])) for f in dt.SEQ_FIELDS},
        face=draw(array((dt.FACE_DIM,))),
        y=draw(st.sampled_from([0, 1])), z=draw(st.none() | st.integers(0, 2 ** 40)),
        split=draw(st.sampled_from(dt.SPLITS))) for sample_id in ids]


def stdlib_rows(samples) -> bytes:
    """The oracle: the rows save_jsonl wrote when every value went through
    the stdlib ``json``."""
    lines = []
    for s in samples:
        doc = {
            "id": s.id,
            "video_id": s.video_id,
            "seq_language": np.asarray(s.seq_language).tolist(),
            "seq_audio": np.asarray(s.seq_audio).tolist(),
            "seq_video": np.asarray(s.seq_video).tolist(),
            "face": np.asarray(s.face).tolist(),
            "y": int(s.y),
            "z": None if s.z is None else int(s.z),
            "split": s.split,
        }
        lines.append(json.dumps(doc) + "\n")
    return "".join(lines).encode()


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


@settings(max_examples=100, deadline=None)
@given(datasets(odd=True) | datasets())
def test_written_bytes_are_the_stdlib_writers(samples):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.jsonl")
        dt.save_jsonl(samples, path)
        with open(path, "rb") as fh:
            assert fh.read() == stdlib_rows(samples)


def test_fast_case_tokens_match_float_repr(monkeypatch):
    """A million doubles, log-uniform over 1e-4 <= |x| < 1e16, both signs:
    orjson writes each as json.dumps(float(x))."""
    rng = np.random.default_rng(1509)
    mag = np.exp(rng.uniform(np.log(1e-4), np.log(1e16), 1_000_000))
    mag = mag[(mag >= 1e-4) & (mag < 1e16)]     # exp may round past either end
    values = np.where(rng.random(mag.size) < 0.5, -mag, mag)
    expected = [json.dumps(float(x)) for x in values]
    monkeypatch.setattr(dt.json, "dumps", None)     # so the stdlib path would raise
    tokens = dt._array_json(values)[1:-1].split(", ")
    monkeypatch.undo()
    assert len(tokens) == len(expected) > 999_000
    assert [(t, e) for t, e in zip(tokens, expected) if t != e] == []


@pytest.mark.parametrize("value", [1e16, 9.999999999999999e-05, 5e-324, 1.5e300, -1.234e-7,
                                   float("nan"), float("inf"), float("-inf")])
def test_value_outside_the_fast_range_is_written_as_the_stdlib_writes_it(value):
    # orjson writes these as 1e16, 0.00009999999999999999, 5e-324, 1.5e300,
    # -1.234e-7 and null: the whole array takes the stdlib path
    a = np.array([[0.5, value], [1e-4, 9999999999999998.0]])
    assert dt._array_json(a) == json.dumps(a.tolist())


def test_zero_d_array_is_written_as_a_scalar():
    # orjson writes a 0-d array as [1.5] or refuses it, by version
    assert dt._array_json(np.array(1.5)) == "1.5"


def test_big_endian_array_is_written_by_value():
    # orjson reads >f8 bytes as native ones: [1.0] came out as [3.03865e-319]
    assert dt._array_json(np.array([1.0, -0.25], dtype=">f8")) == "[1.0, -0.25]"


def test_views_and_empty_arrays_are_written_as_the_stdlib_writes_them():
    a = np.arange(6.0).reshape(2, 3)
    assert dt._array_json(a.T) == "[[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]]"
    assert dt._array_json(np.zeros((3, 0))) == "[[], [], []]"
    assert dt._array_json(np.arange(3)) == "[0, 1, 2]"


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


# ------------------------------------------------- parser equivalence

def _load_rows(tmp_path, *rows, raw=None):
    """Write ROWS-shaped rows (dicts are dumped with json.dumps) and load them."""
    path = tmp_path / "d.jsonl"
    lines = [r if isinstance(r, str) else json.dumps(r) for r in rows]
    path.write_bytes(raw if raw is not None else ("\n".join(lines) + "\n").encode())
    return dt.load_jsonl(path)


def _row_with(field, text, row=ROWS[1]):
    """A row as JSON text with one field's value replaced by raw JSON text."""
    return json.dumps(dict(row, **{field: "@"})).replace('"@"', text)


def test_special_floats_load_as_the_stdlib_parses_them(tmp_path):
    tokens = ["-0.0", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
              "1e-05", "1e+16", "0", "-0", "3", str(2 ** 53 + 1), str(2 ** 64 - 1),
              "-9223372036854775808", "1E5", "-0e0", "1e-400"]
    line = _row_with("seq_audio", "[[" + ",".join(tokens) + "]]", ROWS[0])
    loaded = _load_rows(tmp_path, line)
    expected = np.asarray(json.loads(line)["seq_audio"], np.float64)
    assert loaded[0].seq_audio.tobytes() == expected.tobytes()
    assert loaded[0].seq_audio[0, 0].hex() == "-0x0.0p+0"


@SETTINGS
@given(st.lists(FINITE | st.floats(width=32, allow_nan=False, allow_infinity=False)
                | st.integers(-2 ** 63, 2 ** 64 - 1), min_size=1, max_size=64))
def test_any_finite_value_loads_as_the_stdlib_parses_it(values):
    line = json.dumps(dict(ROWS[0], seq_language=[values]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.jsonl")
        with open(path, "w") as fh:
            fh.write(line + "\n")
        seq = dt.load_jsonl(path)[0].seq_language
    assert seq.tobytes() == np.asarray(json.loads(line)["seq_language"], np.float64).tobytes()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_non_finite_token_is_rejected_at_its_line(tmp_path, token):
    with pytest.raises(ContractError, match=r"d\.jsonl:2: seq_video has a non-finite value"):
        _load_rows(tmp_path, ROWS[0], _row_with("seq_video", f"[[{token}, 0.5]]"))


NOT_A_NUMBER = st.booleans() | st.none() | st.text() | FINITE.map(repr)


@pytest.mark.parametrize("field", [*dt.SEQ_FIELDS, "face"])
def test_element_that_is_not_a_number_is_rejected_at_its_line(field):
    """A bool, null, string or numeric string in one place or in every
    place; numpy alone reads [true, 1.0] as floats and ["0.25"] as text."""

    @SETTINGS
    @given(NOT_A_NUMBER, st.data())
    def check(value, data):
        seq = np.array(ROWS[1][field], dtype=object)
        if data.draw(st.booleans()):
            seq[...] = value
        else:
            seq.flat[data.draw(st.integers(0, seq.size - 1))] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.jsonl")
            with open(path, "w") as fh:
                row = dict(ROWS[1], **{field: seq.tolist()})
                fh.write(json.dumps(ROWS[0]) + "\n" + json.dumps(row) + "\n")
            with pytest.raises(ContractError, match=rf"d\.jsonl:2: {field} is not a numeric array"):
                dt.load_jsonl(path)

    check()


def test_true_outside_the_arrays_loads_the_same(tmp_path):
    plain = _load_rows(tmp_path, ROWS[0], ROWS[1])
    worded = _load_rows(tmp_path, dict(ROWS[0], id="true"), dict(ROWS[1], video_id="false"))
    for a, b in zip(plain, worded):
        for f in (*dt.SEQ_FIELDS, "face"):
            assert getattr(a, f).tobytes() == getattr(b, f).tobytes()


@pytest.mark.parametrize("worded", [False, True], ids=["no-literal", "true-in-id"])
def test_zeros_and_ones_load_as_numbers(tmp_path, worded):
    """Zero padding and one-hot columns are 0/1 numbers, not bools, whether
    or not a true/false literal elsewhere in the line turns the check on."""
    rows = []
    for row in ROWS[:2]:
        row = dict(row, id="true" if worded else row["id"])
        for f in dt.SEQ_FIELDS:
            seq = np.array(row[f], dtype=np.float64)
            seq[len(seq) // 2:] = 0.0
            seq[0] = np.eye(1, seq.shape[1]).ravel()
            row[f] = seq.tolist()
        rows.append(dict(row, face=[0, 1, 0.0, 1.0] * (dt.FACE_DIM // 4)))
        worded = False      # one row carries the literal, the other not
    for want, got in zip(rows, _load_rows(tmp_path, *rows)):
        for f in (*dt.SEQ_FIELDS, "face"):
            assert getattr(got, f).tobytes() == np.asarray(want[f], np.float64).tobytes()


def test_integer_past_float_range_is_rejected_at_its_line(tmp_path):
    with pytest.raises(ContractError, match=r"d\.jsonl:2: face is not a numeric array"):
        _load_rows(tmp_path, ROWS[0], _row_with("face", "[" + "9" * 400 + "]"))


def test_z_past_the_64_bit_range_is_rejected(tmp_path):
    # orjson reads an integer outside [-2**63, 2**64) as a float, so such a z,
    # which the stdlib parser would keep as an int, fails the integer check
    loaded = _load_rows(tmp_path, dict(ROWS[0], z=2 ** 64 - 1))
    assert loaded[0].z == 2 ** 64 - 1 and type(loaded[0].z) is int
    with pytest.raises(ContractError,
                       match=r"d\.jsonl:2: z must be null or a non-negative integer, "
                             r"got 1e\+30"):
        _load_rows(tmp_path, ROWS[0], dict(ROWS[1], z=10 ** 30))


def test_lone_surrogate_escape_loads_as_the_stdlib_parses_it(tmp_path):
    loaded = _load_rows(tmp_path, dict(ROWS[0], id="a\ud800"))
    assert loaded[0].id == "a\ud800"


def test_non_utf8_byte_is_rejected_at_its_line(tmp_path):
    good = [json.dumps(r).encode() for r in (ROWS[0], ROWS[1])]
    bad = json.dumps(dict(ROWS[1], id="row@")).encode().replace(b"@", b"\xff")
    with pytest.raises(ContractError, match=r"d\.jsonl:3: not UTF-8 text \(.*0xff"):
        _load_rows(tmp_path, raw=good[0] + b"\n\n" + bad + b"\n" + good[1] + b"\n")


def test_utf8_bom_is_rejected(tmp_path):
    raw = b"\xef\xbb\xbf" + json.dumps(ROWS[0]).encode() + b"\n"
    with pytest.raises(ContractError, match=r"d\.jsonl:1: malformed JSON \(Unexpected UTF-8 BOM"):
        _load_rows(tmp_path, raw=raw)


@pytest.mark.parametrize("row", ["null", "5", "[]", '"id"'])
def test_row_that_is_not_an_object_is_rejected_at_its_line(tmp_path, row):
    with pytest.raises(ContractError, match=r"d\.jsonl:2: a row must be a JSON object"):
        _load_rows(tmp_path, ROWS[0], row)


def test_lines_end_as_in_text_mode(tmp_path):
    """LF, CRLF and CR all end a line, and a line of Unicode whitespace is blank."""
    rows = [json.dumps(r).encode() for r in (ROWS[0], ROWS[1])]
    raw = rows[0] + b"\r\n\xc2\xa0\r" + rows[1] + b"\r"
    loaded = _load_rows(tmp_path, raw=raw)
    assert [s.id for s in loaded] == [ROWS[0]["id"], ROWS[1]["id"]]
    dup = rows[0] + b"\r" + rows[0] + b"\n"
    with pytest.raises(ContractError, match=r"d\.jsonl:2: duplicate id .* \(first on line 1\)"):
        _load_rows(tmp_path, raw=dup)
