"""The record contract: every value type the library hands out is
immutable, validates on construction with a stable message, compares and
hashes by value within its type, and survives pickle and deepcopy."""

import copy
import pickle
from fractions import Fraction

import pytest

from plusforms.census import CensusReport
from plusforms.class_numbers import Discriminant
from plusforms.cohen_eisenstein import PlusConditionError, PlusForm
from plusforms.congruence_engine import CongruenceReport, SturmPlan
from plusforms.constructions import NamedForm
from plusforms.level_one_forms import Form, FormMeta
from plusforms.operators import Character, OperatorTrace
from plusforms.qseries import QSeries, RATIONAL, RingTag


def _series():
    # a weight 3/2 plus form row: zero on n = 1, 2 mod 4
    return QSeries.rational([Fraction(1, 2), 0, 0, 3, 4])


def _meta():
    return FormMeta(3, 4)


# name -> (builder of a fresh record, its fields); each call of a builder
# gives an equal but distinct object
RECORDS = {
    "RingTag": (lambda: RingTag(3), ("modulus",)),
    "QSeries over Q": (_series, ("ring", "nums", "den")),
    "QSeries over Z/3": (lambda: QSeries.modular(3, [1, 2, 4, 0]),
                         ("ring", "nums", "den")),
    "Discriminant": (lambda: Discriminant.of(-23),
                     ("value", "is_fundamental")),
    "PlusForm": (lambda: PlusForm(_series(), _meta(), 1),
                 ("series", "meta", "k")),
    "NamedForm": (lambda: NamedForm("g", _series(), _meta(),
                                    OperatorTrace(("theta",), 4)),
                  ("name", "series", "meta", "trace")),
    "SturmPlan": (lambda: SturmPlan("theta_integralize", 6, (0, 6), 20, 36),
                  ("strategy", "t", "r_weights", "twice_weight", "level")),
    "CongruenceReport": (
        lambda: CongruenceReport("F", "G", 3, 7, 6, "theta_integralize",
                                 "mismatch", first_n=5, lhs_value=1,
                                 rhs_value=2),
        ("lhs_name", "rhs_name", "modulus", "bound_used",
         "weight_equalizer", "strategy", "status", "unit", "first_n",
         "lhs_value", "rhs_value", "required", "available")),
    "CensusReport": (
        lambda: CensusReport(100, 20, Fraction(1, 5), 12, Fraction(3, 25),
                             Fraction(3, 5)),
        ("x", "n2minus_count", "n2minus_density", "nonvanishing_count",
         "nonvanishing_density", "ratio_nonvanishing_to_n2minus")),
    "FormMeta": (_meta, ("twice_weight", "level_bound", "character")),
    "Form": (lambda: Form(_series(), _meta()), ("series", "meta")),
    "OperatorTrace": (lambda: OperatorTrace(("delta|V_4", "theta"), 12),
                      ("description", "level_bound_out")),
    "Character": (lambda: Character.kronecker(-3),
                  ("modulus", "values", "label")),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_fields_cannot_be_assigned_or_deleted(record):
    build, fields = record
    value = build()
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_equal_inputs_give_equal_values_and_hashes(record):
    build, fields = record
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert [getattr(a, name) for name in fields] == \
        [getattr(b, name) for name in fields]


def test_pickle_and_deepcopy_round_trip(record):
    build, _ = record
    value = build()
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                  copy.copy(value)):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)


def test_series_over_q_and_z3_stay_apart_after_a_round_trip():
    over_q = QSeries.rational([1, 2, 4, 0])
    over_z3 = QSeries.modular(3, [1, 2, 4, 0])
    assert over_q != over_z3
    for value in (over_q, over_z3):
        clone = pickle.loads(pickle.dumps(value))
        assert clone.ring == value.ring
        assert clone.coeffs == value.coeffs
        assert copy.deepcopy(value) * value == value * value


def test_repr_text():
    assert repr(RATIONAL) == "RingTag(modulus=None)"
    assert repr(RingTag(3)) == "RingTag(modulus=3)"
    assert repr(_series()) == \
        "QSeries(ring=RingTag(modulus=None), nums=(1, 0, 0, 6, 8), den=2)"
    assert repr(QSeries.modular(3, [1, 2, 4])) == \
        "QSeries(ring=RingTag(modulus=3), nums=(1, 2, 1), den=1)"


@pytest.mark.parametrize("build, error, message", [
    (lambda: RingTag(1), ValueError, "modulus must be >= 2, got 1"),
    (lambda: FormMeta(-2, 4), ValueError, "negative weight"),
    (lambda: FormMeta(2, 0), ValueError, "level bound must be >= 1"),
    (lambda: Character(3, (0, 1), "short"), ValueError,
     "value table must have length = modulus"),
    (lambda: Discriminant(-9, True), ValueError,
     "inconsistent fundamentality flag for -9"),
    (lambda: PlusForm(_series(), FormMeta(5, 4), 1), ValueError,
     "meta weight disagrees with k"),
    (lambda: PlusForm(QSeries.rational([1, 0, Fraction(5, 2)]), _meta(), 1),
     PlusConditionError, "nonzero coefficient 5/2 at q^2 (n = 2 mod 4)"),
], ids=["RingTag(1)", "FormMeta(-2, 4)", "FormMeta(2, 0)",
        "Character wrong length", "Discriminant(-9, True)",
        "PlusForm wrong weight", "PlusForm forbidden residue"])
def test_invalid_input_keeps_its_exception_and_message(build, error,
                                                       message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message
