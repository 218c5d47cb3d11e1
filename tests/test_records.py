"""The immutable records: value equality within one class, hashing, repr and
closed fields, for each of the nine record types."""

from fractions import Fraction

import pytest

from gwone.acceptance import CriterionResult
from gwone.calabi_yau import CyRow, LambdaForm, QuinticReport
from gwone.correlators import CIModel
from gwone.mirror import MirrorData, MirrorReport
from gwone.relative import SchubertInput
from gwone.rings import RingSpec


def _lam():
    return LambdaForm(Fraction(-5, 2), Fraction(7))


def _row():
    return CyRow(1, _lam(), Fraction(2875), Fraction(-5750))


def _mirror():
    return MirrorData({1: Fraction(770)}, {1: Fraction(-5, 3)}, 1)


# (build a value, its field names in order, an optional call that fills a cache
# the value keeps but that is not part of it)
RECORDS = [
    (
        lambda: RingSpec(2, (("s1", 1),), 2, ((2, (1,), Fraction(-1)),)),
        ("n", "base", "base_cutoff", "h_rule"),
        lambda spec: spec.basis,
    ),
    (
        lambda: CIModel(2, (1, 1, 1), base_cutoff=3),
        ("n", "degrees", "base_cutoff"),
        lambda model: model.spec,
    ),
    (_lam, ("alpha", "beta"), None),
    (_row, ("degree", "lam", "n_d", "m_d"), None),
    (
        lambda: QuinticReport(CIModel(4, (5,)), (_row(),), {1: Fraction(2875)}),
        ("model", "rows", "immersed_counts"),
        None,
    ),
    (_mirror, ("a", "b", "order"), None),
    (
        lambda: MirrorReport(True, None, 1, _mirror(), {1: _lam()}),
        ("holds", "first_failing_degree", "order", "mirror", "lambdas"),
        None,
    ),
    (lambda: SchubertInput.product_power(2), ("coefficients",), None),
    (lambda: CriterionResult(1, "quintic counts", True), ("number", "name", "passed", "detail"), None),
]


def _hash_or_none(value):
    try:
        return hash(value)
    except TypeError:  # a record with a dict field hashes as its field tuple would: not at all
        return None


@pytest.mark.parametrize(
    "build, fields, warm", RECORDS, ids=[type(build()).__name__ for build, _, _ in RECORDS]
)
def test_a_record_is_an_immutable_value_of_its_own_class(build, fields, warm):
    a, b = build(), build()
    if warm is not None:
        warm(a)
    values = tuple(getattr(a, name) for name in fields)
    assert a == b and not a != b and a is not b
    assert _hash_or_none(a) == _hash_or_none(b)
    if _hash_or_none(a) is not None:
        assert hash(a) == hash(values)
    others = [other for other_build, _, _ in RECORDS if type(other := other_build()) is not type(a)]
    assert len(others) == len(RECORDS) - 1
    assert a != values and values != a
    assert all(a != other for other in others)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(a) == f"{type(a).__name__}({shown})"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert tuple(getattr(a, name) for name in fields) == values and a == b


def test_a_model_repr_names_every_field():
    # `gw cy` and `gw mirror` print it on their first line.
    assert repr(CIModel(4, (5,))) == "CIModel(n=4, degrees=(5,), base_cutoff=0)"


def test_a_record_keeps_its_defaults():
    assert RingSpec(3) == RingSpec(3, (), 0, ())
    assert CIModel(3) == CIModel(3, (), base_cutoff=0)
    assert CriterionResult(2, "x", False).detail == ""
