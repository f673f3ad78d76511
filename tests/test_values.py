"""Construction, equality, hashing and printing of the value types, across
modules.

Every constructor validates its fields: an integer field is an `int`, never
a `bool` or a `float`, and a bad field raises DomainError. Values are equal
when their types and keys are, and equal values hash equal, so they
collapse in a set.
"""

import pytest

from quadgenus.arith import Discriminant, DomainError, QuadInt
from quadgenus.forms import BinaryForm
from quadgenus.ideals import OrderIdeal
from quadgenus.lattice import GenTuple, hnf_basis
from quadgenus.normforms import MultiQuadraticForm, integral_tuple

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


@pytest.mark.parametrize(
    "value,text,rep",
    [
        (D23, "Discriminant(-23)", "Discriminant(-23)"),
        (QuadInt.from_int(-3, D23), "-3", "QuadInt(p=-6, q=0, d=-23)"),
        (QuadInt(1, 1, D23), "(1+sqrt(-23))/2", "QuadInt(p=1, q=1, d=-23)"),
        (QuadInt(1, -1, D23), "(1-sqrt(-23))/2", "QuadInt(p=1, q=-1, d=-23)"),
        (QuadInt(3, -3, D23), "(3-3*sqrt(-23))/2", "QuadInt(p=3, q=-3, d=-23)"),
        (QuadInt(0, 2, D23), "(0+2*sqrt(-23))/2", "QuadInt(p=0, q=2, d=-23)"),
        (BinaryForm(2, -1, 3, D23), "(2,-1,3)", "BinaryForm(2, -1, 3)"),
        (OrderIdeal(2, -3, D23), "[2, (3+sqrt(-23))/2]", "OrderIdeal(a=2, b=-3, d=-23)"),
        (_tuple(), "GenTuple[4, (1-sqrt(-23))/2; d=-23]", "GenTuple[4, (1-sqrt(-23))/2; d=-23]"),
        (
            hnf_basis(_tuple()),
            "ZModuleBasis[4, (-23-sqrt(-23))/2; d=-23]",
            "ZModuleBasis[4, (-23-sqrt(-23))/2; d=-23]",
        ),
        (
            MultiQuadraticForm(3, {(1, 2): -5, (0, 0): 4}, D23),
            "+4*z1^2 -5*z2*z3",
            "MultiQuadraticForm(3, +4*z1^2 -5*z2*z3, d=-23)",
        ),
        (MultiQuadraticForm(2, {}, D23), "0", "MultiQuadraticForm(2, 0, d=-23)"),
    ],
    ids=[
        "discriminant",
        "quadint-int",
        "quadint-plus-sqrt",
        "quadint-minus-sqrt",
        "quadint-k-sqrt",
        "quadint-zero-k-sqrt",
        "binaryform",
        "orderideal",
        "gentuple",
        "zmodulebasis",
        "multiform",
        "multiform-zero",
    ],
)
def test_str_and_repr(value, text, rep):
    assert str(value) == text
    assert repr(value) == rep


@pytest.mark.parametrize(
    "x,y",
    [
        (BinaryForm(2, 1, 3, D23), BinaryForm(2, -1, 3, D23)),
        (OrderIdeal(2, 1, D23), OrderIdeal(2, -1, D23)),
        (Discriminant(-23), -23),
        (BinaryForm(1, 1, 6, D23), OrderIdeal(1, 1, D23)),
        (
            MultiQuadraticForm(2, {(0, 0): 1}, D23),
            MultiQuadraticForm(2, {(0, 0): 1}, Discriminant(-4)),
        ),
    ],
    ids=["binaryform", "orderideal", "discriminant-int", "form-vs-ideal", "multiform-disc"],
)
def test_unequal_values(x, y):
    assert x != y
    assert len({x, y}) == 2


@pytest.mark.parametrize(
    "call,expected",
    [
        (lambda: GenTuple([]), DomainError("generator tuple needs at least one coefficient")),
        (lambda: _tuple().padded(1), DomainError("cannot pad 2 generators down to 1")),
        (
            lambda: GenTuple([QuadInt(1, 1, D23)]).padded(2.0),
            DomainError("variable count must be an integer >= 1, got 2.0"),
        ),
        (
            lambda: GenTuple([QuadInt(1, 1, D23)]).padded(1.0),
            DomainError("variable count must be an integer >= 1, got 1.0"),
        ),
        (
            lambda: GenTuple([QuadInt(1, 1, D23)]).padded(True),
            DomainError("variable count must be an integer >= 1, got True"),
        ),
        (
            lambda: MultiQuadraticForm(3, {}, D23).binary_triple(),
            DomainError("need a binary form, this one has 3 variables"),
        ),
        (lambda: integral_tuple(D23, 1), DomainError("the order needs at least two generators")),
        (
            lambda: integral_tuple(D23, 2.0),
            DomainError("variable count must be an integer >= 1, got 2.0"),
        ),
        (lambda: OrderIdeal(3, 1, D23).norm(), 3),
        (lambda: list(_tuple()), [QuadInt.from_int(4, D23), QuadInt(1, -1, D23)]),
        (lambda: QuadInt(0, 0, D23).is_zero(), True),
        (lambda: QuadInt(1, 1, D23).is_zero(), False),
        (lambda: bool(QuadInt(0, 0, D23)), False),
        (lambda: bool(QuadInt(2, 0, D23)), True),
        (lambda: BinaryForm(2, 1, 3, D23).inverse(), BinaryForm(2, -1, 3, D23)),
        (lambda: BinaryForm(4, 5, 3, D23).inverse(), BinaryForm(2, 1, 3, D23)),
    ],
    ids=[
        "gentuple-empty",
        "gentuple-pad-down",
        "gentuple-pad-float",
        "gentuple-pad-float-same",
        "gentuple-pad-bool",
        "binary-triple-of-ternary",
        "integral-tuple-one-variable",
        "integral-tuple-float",
        "ideal-norm",
        "gentuple-iter",
        "quadint-zero",
        "quadint-nonzero",
        "quadint-bool-zero",
        "quadint-bool-nonzero",
        "form-inverse",
        "form-inverse-reduces",
    ],
)
def test_public_paths(call, expected):
    if isinstance(expected, DomainError):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == str(expected)
    else:
        assert call() == expected
