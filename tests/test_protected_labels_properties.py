"""The one rule on protected labels, model.protected_labels, and the two
commands that apply it: `train` (through _AdversaryTask, on train and val)
and `probe` (through cli.build_report, on train, val and test).

A corpus fits a target with n classes when every z lies in range(n), the
train split holds all n classes and every other split at least two.  The
property draws a label list per split and checks that both commands
accept exactly the corpora the rule accepts, and that each refusal is a
ContractError naming the split."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairavi import cli
from fairavi import training as tr
from fairavi.data import SPLITS, InterviewSample
from fairavi.errors import ContractError
from fairavi.model import PROTECTED_CLASSES, protected_labels

ODD = (None, 3, 2 ** 63, 2 ** 64 - 1)       # labels outside every target's range


def samples(split, labels):
    empty = np.zeros((1, 1))
    return [InterviewSample(f"{split}{i}", f"{split}{i}", empty, empty, empty, np.zeros(2),
                            y=i % 2, z=z, split=split) for i, z in enumerate(labels)]


def refused_split(labels: dict, target: str):
    """The first split, in SPLITS order, whose labels break the rule."""
    n = PROTECTED_CLASSES[target]
    for split, zs in labels.items():
        if not set(zs) <= set(range(n)) or len(set(zs)) < (n if split == "train" else 2):
            return split
    return None


class Reached(Exception):
    """build_report got past its label check to the model."""


class StubModel:
    trained, active_modalities = True, ()

    def forward_base(self, batch):
        raise Reached


def label_lists(target):
    n = PROTECTED_CLASSES[target]
    fitting = st.lists(st.sampled_from(range(n)), max_size=4).map(lambda more: [*range(n), *more])
    anything = st.lists(st.sampled_from((0, 1, 2) + ODD), min_size=1, max_size=6)
    return st.one_of(fitting, fitting, anything)   # two draws in three hold every class


@st.composite
def corpora(draw):
    target = draw(st.sampled_from(sorted(PROTECTED_CLASSES)))
    return target, {split: draw(label_lists(target)) for split in SPLITS}


@settings(max_examples=150, deadline=None)
@given(corpora())
def test_train_and_probe_accept_exactly_what_the_rule_accepts(corpus):
    target, labels = corpus
    parts = {split: samples(split, zs) for split, zs in labels.items()}
    cfg = tr.TrainConfig(variant=f"supervised-{target}")

    def outcome(run):
        try:
            run()
        except ContractError as e:
            return str(e)
        except Reached:
            pass
        return None

    for scope, run in (
            (("train", "val"), lambda: tr._AdversaryTask(cfg, parts["train"], parts["val"], 0)),
            (SPLITS, lambda: cli.build_report(StubModel(), sum(parts.values(), []), target))):
        split = refused_split({s: labels[s] for s in scope}, target)
        message = outcome(run)
        if split is None:
            assert message is None
        else:
            assert message is not None and f"z in the {split!r} split" in message
            assert f"protected target {target!r}" in message


@pytest.mark.parametrize("target, labels, split", [
    ("gender", {"train": [0, 1], "val": [1, 0, 1]}, None),
    ("ethnicity", {"train": [2, 0, 1], "val": [0, 2], "test": [1, 2]}, None),
    ("gender", {"train": [1, 1]}, "train"),
    ("ethnicity", {"train": [0, 1, 1]}, "train"),
    ("gender", {"train": [0, 1], "val": [0, 0]}, "val"),
    ("gender", {"train": [0, 1], "test": [1, 5]}, "test"),
    ("gender", {"train": [0, 1, None]}, "train"),
    ("gender", {"train": [0, 2 ** 64 - 1]}, "train"),
])
def test_protected_labels(target, labels, split):
    parts = {s: samples(s, zs) for s, zs in labels.items()}
    if split is None:
        z = protected_labels(parts, target)
        assert {s: v.tolist() for s, v in z.items()} == labels
        assert all(v.dtype == int for v in z.values())
        return
    with pytest.raises(ContractError) as err:
        protected_labels(parts, target)
    found = sorted(set(labels[split]), key=str)
    assert str(err.value).startswith(
        f"protected target {target!r}: z in the {split!r} split holds {found}; every z must "
        f"lie in range({PROTECTED_CLASSES[target]})")
