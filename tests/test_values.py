"""Construction and hashing of the value types, across modules.

Every constructor validates its fields: an integer field is an `int`, never
a `bool` or a `float`, and a bad field raises DomainError. Equal values
hash equal, so they collapse in a set.
"""

import pytest

from quadgenus.arith import Discriminant, DomainError, QuadInt
from quadgenus.forms import BinaryForm
from quadgenus.ideals import OrderIdeal
from quadgenus.lattice import GenTuple, hnf_basis
from quadgenus.normforms import MultiQuadraticForm

D23 = Discriminant(-23)


@pytest.mark.parametrize(
    "build",
    [
        lambda: QuadInt(1.0, 1, D23),
        lambda: QuadInt(True, 1, D23),
        lambda: BinaryForm(True, 1, 6, D23),
        lambda: BinaryForm(2.0, 1, 3, D23),
        lambda: OrderIdeal(2.0, 1, D23),
        lambda: MultiQuadraticForm(0, {}, D23),
        lambda: GenTuple([1, 2], D23),
    ],
    ids=[
        "quadint-float",
        "quadint-bool",
        "binaryform-bool",
        "binaryform-float",
        "orderideal-float",
        "multiform-zero-variables",
        "gentuple-of-ints",
    ],
)
def test_constructor_rejects_bad_integer_fields(build):
    with pytest.raises(DomainError):
        build()


def _tuple(d=D23):
    return GenTuple([QuadInt.from_int(4, d), QuadInt(1, -1, d)], d)


@pytest.mark.parametrize(
    "x,y",
    [
        (Discriminant(-23), Discriminant(-23)),
        (QuadInt(3, 1, D23), QuadInt(3, 1, D23)),
        (QuadInt.from_int(3, D23), 3),
        (BinaryForm(2, 1, 3, D23), BinaryForm(2, 1, 3, D23)),
        (OrderIdeal(4, 5, D23), OrderIdeal(4, -19, D23)),
        (
            MultiQuadraticForm(2, {(0, 0): 4, (0, 1): 2, (1, 1): 6}, D23),
            MultiQuadraticForm(2, {(1, 1): 6, (0, 1): 2, (0, 0): 4}, D23),
        ),
        (_tuple(), _tuple()),
        (hnf_basis(_tuple()), hnf_basis(_tuple())),
    ],
    ids=[
        "discriminant",
        "quadint",
        "quadint-int",
        "binaryform",
        "orderideal-b-mod-2a",
        "multiform-key-order",
        "gentuple",
        "zmodulebasis",
    ],
)
def test_equal_values_hash_equal(x, y):
    assert x == y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


def test_fundamental_read_before_conductor():
    disc = Discriminant(-12)
    assert disc.fundamental == -3
    assert disc.conductor == 2
