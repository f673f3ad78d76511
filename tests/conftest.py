"""Fixtures shared by the test modules: objects that cost enough to build
that several sweeps read one copy of them."""

import pytest

from quadgenus.arith import Discriminant
from quadgenus.classgroup import class_group

from oracles import discs


@pytest.fixture(scope="session")
def class_groups():
    """class_group(d) for every d in [-6000, -3], from -3 down, built once
    with nothing patched. Readers must not change them."""
    return [class_group(Discriminant(dv)) for dv in discs(6000)]
