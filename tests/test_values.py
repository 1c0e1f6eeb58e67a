"""The value types: immutable, compared as documented, and cheap to import."""

import os
import subprocess
import sys

import pytest

import openpoint
from openpoint.invariants import invariant_report
from openpoint.products import product
from openpoint.space import from_preorder
from openpoint.strategies import OrderedPiBase

from .conftest import make_discrete, make_sierpinski


def test_importing_the_package_loads_no_code_generator():
    # the value types are NamedTuples and slotted classes, not dataclasses,
    # whose import pulls in inspect and generates each class's code; -S
    # keeps site hooks from importing either before the package does
    src = os.path.dirname(os.path.dirname(openpoint.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import openpoint, openpoint.cli, openpoint.enumeration; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _values():
    space = make_sierpinski()
    return {
        "FiniteSpace": (space, "name"),
        "ProductSpace": (product([space, make_discrete(2)]), "space"),
        "OrderedPiBase": (OrderedPiBase(space, (0b10,)), "members"),
        "InvariantReport": (invariant_report(space), "gd"),
    }


@pytest.mark.parametrize("kind", list(_values()))
def test_a_field_cannot_be_assigned_or_deleted(kind):
    value, field = _values()[kind]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


def test_a_pi_base_is_equal_by_space_and_members():
    d = make_discrete(3)
    base = OrderedPiBase(d, (0b001, 0b010, 0b100))
    same = OrderedPiBase(make_discrete(3, name="E3"), (0b001, 0b010, 0b100))
    assert base == same and hash(base) == hash(same) and len({base, same}) == 1
    assert base != OrderedPiBase(d, (0b100, 0b010, 0b001))  # the order is part of the base
    assert base != (d, (0b001, 0b010, 0b100))
    # one member, {0}, under two spaces whose rows differ at point 2
    fan, chain = from_preorder([0b001, 0b011, 0b101]), from_preorder([0b001, 0b011, 0b111])
    assert OrderedPiBase(fan, (0b001,)) != OrderedPiBase(chain, (0b001,))
    assert repr(base) == f"OrderedPiBase(space={d!r}, members=(1, 2, 4))"


def test_products_are_equal_only_to_themselves():
    s, d2 = make_sierpinski(), make_discrete(2)
    first, second = product([s, d2]), product([make_sierpinski(), make_discrete(2)])
    assert first.space == second.space
    assert first != second and first == first
    assert len({first, second}) == 2
