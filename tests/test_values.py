"""The value classes: equal and hashed by their field tuples, immutable.

Every class that a run hashes or compares is a ``curalg.value.Value``.  Its
hash is the hash of its field tuple, in the field order pinned here, so set
and dict orders, and with them the report bytes, depend on the field values
alone.
"""

from fractions import Fraction

import pytest

import curalg.cli  # noqa: F401  (loads every module, so every Value subclass)
from curalg.boson.atoms import ParamLin
from curalg.boson.currents import BosonCurrent
from curalg.liealg import CartanData
from curalg.params import ParamTower
from curalg.trigcalc import DeltaAtom, ShiftExpr, TrigFactor
from curalg.value import Value


def _shift(q=Fraction(-3, 4), name="u"):
    return ShiftExpr(((name, 1),), q, ((1, 2),))


_HALF = ((Fraction(1), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(1)))

# class -> (field names in hash order, constructor arguments, and per
# constructor argument one replacement that changes a field)
CASES = {
    ParamTower: (("hbar", "eta", "levels", "_inv_etas"),
                 lambda: (0.1, 1.0, (1.0, 0.5)),
                 (0.13, 1.9, (1.0, 1.0))),
    CartanData: (("series", "rank", "a", "b"),
                 lambda: ("A", 2, ((2, -1), (-1, 2)), _HALF),
                 ("D", 3, ((2, 0), (0, 2)), ((Fraction(1), 0), (0, Fraction(1))))),
    ShiftExpr: (("vars", "q", "lattice"),
                lambda: ((("u", 1),), Fraction(-3, 4), ((1, 2),)),
                ((("v", 1),), Fraction(1, 4), ((0, 2),))),
    TrigFactor: (("period", "arg", "exponent"),
                 lambda: (1, _shift(), -1),
                 (0, _shift(name="v"), 1)),
    DeltaAtom: (("arg",),
                lambda: (_shift(),),
                (_shift(Fraction(1, 2)),)),
    ParamLin: (("h", "e"),
               lambda: (Fraction(1, 2), Fraction(-1, 4)),
               (Fraction(1, 4), Fraction(1, 2))),
    BosonCurrent: (("kind", "j", "arg", "slot"),
                   lambda: ("E", 1, _shift(), 0),
                   ("F", 2, _shift(name="v"), 1)),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_has_a_contract_case():
    assert {cls for cls in _subclasses(Value) if cls.__module__.startswith("curalg.")} \
        == set(CASES)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_a_value_hashes_and_compares_by_its_field_tuple(cls):
    names, args, others = CASES[cls]
    x = cls(*args())
    fields = tuple(getattr(x, name) for name in names)
    assert hash(x) == hash(fields)
    # equal arguments built afresh: equal, one hash
    y = cls(*args())
    assert x == y and not x != y and hash(x) == hash(y)
    # one argument changed: unequal
    for k, other in enumerate(others):
        changed = list(args())
        changed[k] = other
        z = cls(*changed)
        assert x != z and not x == z, (names, k)
    # equal fields in another class: unequal, either way round
    same_fields = type("Other", (cls,), {})(*args())
    assert x != same_fields and same_fields != x
    assert x != fields


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_assigning_a_field_of_a_value_raises(cls):
    names, args, _others = CASES[cls]
    x = cls(*args())
    before = hash(x)
    for name in names:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, None)
    assert hash(x) == before and x == cls(*args())
