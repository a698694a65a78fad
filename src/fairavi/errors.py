"""Shared exception types, mapped to CLI exit codes 2 and 3, and the one
check of a JSON object's fields against a dataclass's declarations, whose
annotations carry each field's range (a model kind's choices included:
Modality, Variant, FaceDim); RULES holds the one test of each."""

import dataclasses
import sys

MODALITIES = ("language", "audio", "video")
VARIANTS = ("unprotected", "supervised-gender", "supervised-ethnicity",
            "static-faces", "negative-sampling")
FACE_DIMS = (2, 16)
NonNegativeInt = PositiveInt = PositiveEvenInt = AtLeastTwoInt = PositiveInt64 = FaceDim = int
NonNegative = Positive = Fraction = Probability = Scale = float   # field annotations
Modality = Variant = str                                          # that carry a range
SplitRatios = tuple


class ConfigError(ValueError):
    """Invalid configuration value; CLI exit code 2."""


class ContractError(RuntimeError):
    """Data or variant contract violation; CLI exit code 3."""


_finite = lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max   # bools fail
_ints = lambda low, step=1: lambda v: type(v) is int and v >= low and v % step == 0
_numbers = lambda v: type(v) in (list, tuple) and all(map(_finite, v))
RULES = {   # annotation -> (test, what a value must be)
    "NonNegativeInt": (_ints(0), "a non-negative int"),
    "PositiveInt": (_ints(1), "a positive int"),
    "PositiveEvenInt": (_ints(2, 2), "a positive even int"),
    "AtLeastTwoInt": (_ints(2), "an int of at least 2"),
    "PositiveInt64": (lambda v: _ints(1)(v) and v < 2 ** 63, "an int in [1, 2**63)"),
    "FaceDim": (lambda v: type(v) is int and v in FACE_DIMS, f"one of {FACE_DIMS}"),
    "Modality": (lambda v: v in (*MODALITIES, "multimodal"),
                 f"one of {', '.join(MODALITIES)}, multimodal"),
    "Variant": (lambda v: v in VARIANTS, f"one of {', '.join(VARIANTS)}"),
    "NonNegative": (lambda v: _finite(v) and v >= 0, "a finite number of at least 0"),
    "Positive": (lambda v: _finite(v) and v > 0, "a finite number above 0"),
    "Fraction": (lambda v: _finite(v) and 0 <= v < 1, "a finite number in [0, 1)"),
    "Probability": (lambda v: _finite(v) and 0 <= v <= 1, "a finite number in [0, 1]"),
    "Scale": (lambda v: _finite(v) and 0 <= v <= 1e6, "a number in [0, 1e6]"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "str": (lambda v: type(v) is str, "a string"),
    "str | None": (lambda v: v is None or type(v) is str, "a string or null"),
    "tuple | None": (lambda v: v is None or _numbers(v), "null or a list of finite numbers"),
    "SplitRatios": (lambda v: _numbers(v) and len(v) == 3 and min(v) >= 0
                    and abs(sum(v) - 1) <= 1e-9, "3 finite numbers of at least 0 summing to 1"),
    "dict": (lambda v: isinstance(v, dict) and set(v) == set(MODALITIES)
             and all(map(_ints(1), v.values())), "positive ints keyed language, audio and video"),
    "object": (lambda v: isinstance(v, dict), "a JSON object"),
}


def check_fields(cls, doc: dict, error=ConfigError, part: str = "", complete=False) -> dict:
    """Return JSON object `doc`, uncoerced, if each value passes the RULES of its
    field's annotation in dataclass `cls`; else raise `error` naming the field
    (after `part`) that is unknown, missing when `complete`, or refused."""
    declared = {f.name: f.type for f in dataclasses.fields(cls)}
    for what, keys in (("unknown", set(doc) - set(declared)),
                       ("missing", complete and set(declared) - set(doc))):
        if keys:
            raise error(f"{what} fields {sorted(part + k for k in keys)}")
    for name, value in doc.items():
        test, rule = RULES[declared[name]]
        if not test(value):
            raise error(f"{part}{name} must be {rule}, got {value!r}")
    return doc
