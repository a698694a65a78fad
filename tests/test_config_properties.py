"""Property tests for config files: any one malformed field of a valid
`gen --config` or `train --config` file exits 2 with the file and the
field named, before any work and never with 0 or 1, and every config that
`gen` accepts writes a corpus that `load_jsonl` reads."""

import contextlib
import io
import json
import math
import os
import re
import string
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fairavi import cli
from fairavi.data import GeneratorConfig, load_jsonl
from fairavi.errors import RULES, ConfigError
from fairavi.model import FACE_DIMS, MODALITIES, VARIANTS
from fairavi.training import TrainConfig
from tests.conftest import TINY_DIM, TINY_SEQ

SETTINGS = settings(max_examples=60, deadline=None)
GEN = {"n": 40, "seq_len": TINY_SEQ, "feat_dim": TINY_DIM, "skill_scale": 3.0,
       "noise_scale": 0.2, "seed": 11}
TRAIN = {"batch_size": 16, "max_epochs_pretrain": 1, "patience_pretrain": 1,
         "max_epochs_adv": 1, "patience_adv": 1, "max_outer": 1, "patience_outer": 1,
         "seed": 5}

SCALES = ("skill_scale", "leak_scale", "protected_scale", "identity_scale", "noise_scale",
          "face_separation", "face_noise")
GEN_KINDS = {"n": "int", "max_clips": "int", "n_classes": "int", "seed": "int",
             "bias": "float", **dict.fromkeys(SCALES, "float"), "seq_len": "modalities",
             "feat_dim": "modalities", "class_priors": "priors", "split_ratios": "ratios"}
TRAIN_KINDS = {"variant": "str", "modality": "str", "lam": "float", "k": "int", "q": "int",
               "batch_size": "int", "lr_joint": "float", "lr_adv": "float", "l2": "float",
               "dropout": "float", "clip": "float", "patience_pretrain": "int",
               "patience_adv": "int", "patience_outer": "int", "max_epochs_pretrain": "int",
               "max_epochs_adv": "int", "max_outer": "int", "face_targets": "path",
               "seed": "int"}

SOME_LIST = st.lists(st.integers(), max_size=2)
SOME_OBJECT = st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)
TEXT = st.text(max_size=4)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_A_NUMBER = TEXT | st.none() | SOME_LIST | SOME_OBJECT
BAD_ELEMENT = TEXT | st.none() | st.booleans() | NON_FINITE | SOME_LIST
WRONG_TYPE = {
    "int": st.floats() | NOT_A_NUMBER,      # 3.0 is a float, not an int
    "float": NOT_A_NUMBER,
    "str": st.integers() | st.floats() | st.none() | st.booleans() | SOME_LIST | SOME_OBJECT,
    "path": st.integers() | st.floats() | st.booleans() | SOME_LIST | SOME_OBJECT,
    "modalities": (SOME_LIST | TEXT | st.integers() | st.none() | st.booleans()
                   | st.builds(lambda m, v: {**TINY_SEQ, m: v}, st.sampled_from(MODALITIES),
                               st.floats() | NOT_A_NUMBER | st.booleans())),
    "priors": (TEXT | st.floats() | st.booleans() | SOME_OBJECT
               | st.builds(lambda v: [0.5, v], BAD_ELEMENT)),
    "ratios": (TEXT | st.floats() | st.booleans() | st.none() | SOME_OBJECT
               | st.builds(lambda v: [0.7, 0.2, v], BAD_ELEMENT)),
}
NEGATIVE = st.floats(max_value=-5e-324, allow_infinity=False)
NOT_POSITIVE = NEGATIVE | st.just(0)
BAD_PRIORS = st.lists(st.floats(-1, 2), max_size=4).filter(
    lambda p: len(p) != 2 or min(p) < 0 or abs(sum(p) - 1) > 1e-6)
BAD_RATIOS = st.lists(st.floats(-1, 2), max_size=4).filter(
    lambda r: len(r) != 3 or min(r) < 0 or abs(sum(r) - 1) > 1e-6)
OUT_OF_RANGE = {
    "n": st.integers(max_value=0) | st.integers(10 ** 9, 10 ** 30),    # 10**9: past MAX_FLOATS
    "max_clips": st.integers(max_value=0) | st.integers(min_value=2 ** 63),
    "n_classes": st.integers(max_value=1) | st.integers(10 ** 6, 10 ** 9),
    "seed": st.integers(max_value=-1),
    "bias": NEGATIVE | st.floats(min_value=1, exclude_min=True, allow_infinity=False),
    **dict.fromkeys(SCALES, NEGATIVE | st.floats(min_value=1e6, exclude_min=True,
                                                 allow_infinity=False)),
    "seq_len": st.builds(lambda m, v: {**TINY_SEQ, m: v}, st.sampled_from(MODALITIES),
                         st.integers(max_value=0) | st.integers(10 ** 8, 10 ** 20)),
    "feat_dim": st.builds(lambda m, v: {**TINY_DIM, m: v}, st.sampled_from(MODALITIES),
                          st.integers(max_value=0) | st.integers(10 ** 8, 10 ** 20)),
    "class_priors": BAD_PRIORS,
    "split_ratios": BAD_RATIOS,
    "variant": TEXT.filter(lambda v: v not in VARIANTS),
    "modality": TEXT.filter(lambda v: v not in MODALITIES + ("multimodal",)),
    "lam": NEGATIVE, "l2": NEGATIVE, "lr_joint": NOT_POSITIVE, "lr_adv": NOT_POSITIVE,
    "clip": NOT_POSITIVE,
    "dropout": NEGATIVE | st.floats(min_value=1, allow_infinity=False),
    "k": st.integers(max_value=1),
    "max_outer": st.integers(max_value=-1),
    "q": st.integers().filter(lambda q: q not in FACE_DIMS),
    **dict.fromkeys(("batch_size", "patience_pretrain", "patience_adv", "patience_outer",
                     "max_epochs_pretrain", "max_epochs_adv"), st.integers(max_value=0)),
}
UNKNOWN_KEY = st.text(string.ascii_lowercase + "_", min_size=1, max_size=12)


@st.composite
def mutation(draw, base, kinds):
    """(config object, the field it names): one field of `base` of the wrong
    type, a bool for a number, a float that is not finite, out of its range,
    a modality key missing or added, or one key unknown."""
    doc = json.loads(json.dumps(base))
    maps = [f for f, k in kinds.items() if k == "modalities"]
    kind = draw(st.sampled_from(["type", "bool", "non-finite", "range", "unknown"]
                                + ["modality-key"] * bool(maps)))
    if kind == "unknown":
        key = draw(UNKNOWN_KEY.filter(lambda k: k not in kinds))
        doc[key] = draw(st.integers() | TEXT)
        return doc, key
    if kind == "type":
        field = draw(st.sampled_from(sorted(kinds)))
        doc[field] = draw(WRONG_TYPE[kinds[field]])
    elif kind == "bool":
        field = draw(st.sampled_from([f for f, k in kinds.items() if k in ("int", "float")]))
        doc[field] = draw(st.booleans())
    elif kind == "non-finite":
        field = draw(st.sampled_from([f for f, k in kinds.items() if k == "float"]))
        doc[field] = draw(NON_FINITE)
    elif kind == "range":
        field = draw(st.sampled_from(sorted(set(kinds) & set(OUT_OF_RANGE))))
        doc[field] = draw(OUT_OF_RANGE[field])
    else:
        field = draw(st.sampled_from(maps))
        widths = doc[field]
        if draw(st.booleans()):
            del widths[draw(st.sampled_from(MODALITIES))]
        else:
            widths[draw(UNKNOWN_KEY.filter(lambda k: k not in MODALITIES))] = 3
    return doc, field


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


def _exits_2(command, doc, field, data_path):
    """Run gen or train on a config file holding `doc`: exit 2, naming the
    file and `field`, and no output written."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = (["gen", "--config", path, "--out", out] if command == "gen" else
                ["train", "--data", data_path, "--config", path, "--out", out])
        code, err = _run(argv)
        assert code == 2, err
        assert path in err and re.search(rf"\b{re.escape(field)}\b", err), err
        assert not os.path.exists(out)
    return err


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    (tmp / "gen.json").write_text(json.dumps(GEN))
    path = str(tmp / "data.jsonl")
    assert _run(["gen", "--config", str(tmp / "gen.json"), "--out", path])[0] == 0
    return path


@SETTINGS
@given(mutation(GEN, GEN_KINDS))
def test_a_malformed_gen_config_exits_2_naming_the_field(data_path, case):
    _exits_2("gen", *case, data_path)


@SETTINGS
@given(mutation(TRAIN, TRAIN_KINDS))
def test_a_malformed_train_config_exits_2_naming_the_field(data_path, case):
    _exits_2("train", *case, data_path)


def test_no_rule_takes_a_non_finite_number():
    for annotation, (test, _) in RULES.items():
        for value in (math.nan, math.inf, -math.inf):
            assert not test(value), (annotation, value)


def test_the_field_kinds_cover_every_config_field():
    for cls, kinds in ((GeneratorConfig, GEN_KINDS), (TrainConfig, TRAIN_KINDS)):
        assert set(kinds) == set(cls.__dataclass_fields__)


@st.composite
def valid_gen_config(draw):
    """A gen config from every field's accepted range; sizes are kept small
    so that each run is quick."""
    widths = st.fixed_dictionaries({m: st.integers(1, 3) for m in MODALITIES})
    doc = {"n": draw(st.integers(1, 30)), "seq_len": draw(widths), "feat_dim": draw(widths),
           "seed": draw(st.integers(0, 2 ** 70))}
    n_classes = draw(st.integers(2, 4))
    optional = {
        "max_clips": st.integers(1, 2 ** 63 - 1),
        "n_classes": st.just(n_classes),
        "bias": st.floats(0, 1),
        **dict.fromkeys(SCALES, st.floats(0, 1e6) | st.integers(0, 10 ** 6)),
        "class_priors": st.lists(st.floats(0.01, 1), min_size=n_classes, max_size=n_classes)
        .map(lambda w: [x / sum(w) for x in w]),
        "split_ratios": st.tuples(st.floats(0, 1), st.floats(0, 1))
        .map(lambda ab: (ab[0], (1 - ab[0]) * ab[1]))
        .map(lambda ab: [ab[0], ab[1], 1 - ab[0] - ab[1]]),
    }
    for name in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        doc[name] = draw(optional[name])
    if "class_priors" in doc:
        doc["n_classes"] = n_classes
    return doc


@settings(max_examples=30, deadline=None)
@given(valid_gen_config())
def test_every_config_gen_accepts_writes_a_corpus_load_jsonl_reads(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "d.jsonl")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, err = _run(["gen", "--config", path, "--out", out])
        assert code == 0, err
        assert len(load_jsonl(out)) == doc["n"]
        with open(out + ".manifest.json") as fh:
            config = json.load(fh)["config"]
    for name, value in doc.items():    # checked, never coerced
        assert config[name] == value and type(config[name]) is type(value), name


def test_gen_refuses_a_corpus_past_the_float_limit_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"n, n_classes, seq_len and feat_dim ask for "
                                              r"[\d,]+ floats, over the limit of 100,000,000"):
            GeneratorConfig(n=10 ** 9).validate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --------------------------------------------------------- the listed cases

DROP = object()


def _set(base, key, value):
    doc = json.loads(json.dumps(base))
    outer, _, inner = key.partition(".")
    holder, key = (doc[outer], inner) if inner else (doc, outer)
    if value is DROP:
        del holder[key]
    else:
        holder[key] = value
    return doc


@pytest.mark.parametrize("command, key, value", [
    ("gen", "n", 20.5), ("gen", "n", "20"), ("gen", "bias", "0.5"),
    ("gen", "seq_len.audio", -3), ("gen", "seq_len.audio", DROP), ("gen", "n", True),
    ("gen", "max_clips", 2.5), ("gen", "noise_scale", -1), ("gen", "face_noise", math.nan),
    ("gen", "class_priors", [0.5, "0.5"]), ("gen", "seq_len.audio", 0),
    ("gen", "seq_len.smell", 2), ("gen", "seed", -1), ("gen", "n", 10 ** 9),
    ("gen", "split_ratios", [0.7, 0.2, "0.1"]), ("gen", "split_ratios", [1.0, 0.0]),
    ("train", "batch_size", "32"), ("train", "batch_size", 2.5), ("train", "lr_joint", "0.1"),
    ("train", "dropout", "0.2"), ("train", "clip", "1"), ("train", "max_epochs_pretrain", 1.5),
    ("train", "seed", 1.5), ("train", "patience_pretrain", True), ("train", "batch_size", True),
    ("train", "k", 2.5), ("train", "face_targets", 3), ("train", "seed", -1),
])
def test_listed_config_case_exits_2(data_path, command, key, value):
    doc = _set(GEN if command == "gen" else TRAIN, key, value)
    _exits_2(command, doc, key.partition(".")[0], data_path)


@pytest.mark.parametrize("command", ["gen", "train"])
def test_a_config_that_is_not_an_object_exits_2(data_path, command):
    err = _exits_2(command, [1, 2], "config", data_path)
    assert "a config must be a JSON object" in err


@pytest.mark.parametrize("command", ["gen", "train"])
@pytest.mark.parametrize("source, value", [("--seed", "-1"), ("FAIRAVI_SEED", "-2"),
                                           ("FAIRAVI_SEED", "1.5")])
def test_a_bad_seed_from_flag_or_environment_exits_2_naming_it(data_path, tmp_path,
                                                               monkeypatch, command, source,
                                                               value):
    base = {k: v for k, v in (GEN if command == "gen" else TRAIN).items() if k != "seed"}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base))
    argv = (["gen", "--config", str(config), "--out", str(tmp_path / "d.jsonl")]
            if command == "gen" else
            ["train", "--data", data_path, "--config", str(config), "--out",
             str(tmp_path / "m.json")])
    if source == "--seed":
        argv += ["--seed", value]
    else:
        monkeypatch.setenv(source, value)
    code, err = _run(argv)
    assert code == 2 and f"{source} must be a non-negative integer, got" in err, err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_a_config_seed_beats_fairavi_seed(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GEN))
    monkeypatch.setenv("FAIRAVI_SEED", "not a seed")    # never read: the file has a seed
    assert _run(["gen", "--config", str(config), "--out", str(tmp_path / "d.jsonl")])[0] == 0
