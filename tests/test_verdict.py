"""The one verdict type: ordered facts, attribute reads, equality, copy and pickle."""

import copy
import dataclasses
import pickle

import pytest
from mpmath import mpf

from primebounds.verdict import Verdict


def sample() -> Verdict:
    return Verdict(True, z_lo=43.0, min_margin=mpf("2.5"), first_failure=None,
                   steps_checked=7, warning="", exact=False)


def test_to_dict_keeps_order_and_gives_floats():
    d = sample().to_dict()
    assert list(d) == ["z_lo", "min_margin", "first_failure", "steps_checked",
                       "warning", "exact", "passed"]
    assert type(d["min_margin"]) is float and d["min_margin"] == 2.5
    assert d["first_failure"] is None
    assert d["steps_checked"] == 7 and d["warning"] == "" and d["exact"] is False
    assert d["passed"] is True


def test_facts_read_as_attributes():
    v = sample()
    assert v.min_margin == mpf("2.5") and v.steps_checked == 7 and v.first_failure is None
    assert v and v.passed is True
    assert not Verdict(0, x=1) and Verdict(0, x=1).passed is False


def test_missing_fact_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_fact"):
        sample().no_such_fact
    assert not hasattr(sample(), "no_such_fact")


def test_equality_compares_facts():
    assert sample() == sample()
    assert Verdict(True, x=1) != Verdict(True, x=2)
    assert Verdict(True, x=1) != Verdict(True, y=1)
    assert Verdict(True, x=1) != Verdict(False, x=1)


def test_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        sample().passed = False


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_round_trip(clone):
    v = sample()
    w = clone(v)
    assert w == v
    assert w.to_dict() == v.to_dict()
    assert w.min_margin == mpf("2.5")
