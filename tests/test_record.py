"""params.Record, the base of every value object: frozen, compared and
hashed by type and values, bound like keyword arguments, checked on every
build."""

import re

import pytest

from qhydro.config import IntegratorConfig, IntegratorSection
from qhydro.errors import ValidationError
from qhydro.params import Grid, Record


class Pair(Record):
    a: float
    b: int = 2


class OtherPair(Record):
    a: float
    b: int = 2


def test_fields_bind_positionally_by_keyword_and_by_default():
    assert Pair.fields == {"a": float, "b": int}
    assert Pair(1.0).as_dict() == {"a": 1.0, "b": 2}
    assert Pair(1.0, 3) == Pair(b=3, a=1.0)
    assert repr(Pair(1.0, 3)) == "Pair(a=1.0, b=3)"


@pytest.mark.parametrize("args, kwargs, message", [
    ((1.0,), {"c": 3}, "Pair has no field 'c'"),
    ((1.0,), {"a": 2.0}, "Pair got field 'a' twice"),
    ((), {"b": 3}, "Pair is missing field 'a'"),
    ((1.0, 2, 3), {}, "Pair takes 2 fields, not 3"),
])
def test_unknown_repeated_missing_and_extra_fields_raise(args, kwargs, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        Pair(*args, **kwargs)


def test_assignment_and_deletion_raise():
    grid = Grid(0.0, 1.0, 11)
    with pytest.raises(AttributeError):
        grid.n_points = 12
    with pytest.raises(AttributeError):
        grid.extra = 1
    with pytest.raises(AttributeError):
        del grid.q_min
    assert grid.n_points == 11


def test_equality_and_hash_go_by_type_and_values():
    grid = Grid(0.0, 1.0, 11)
    assert grid == Grid(0.0, 1.0, 11) and hash(grid) == hash(Grid(0.0, 1.0, 11))
    assert grid != Grid(0.0, 1.0, 12)
    assert grid != (0.0, 1.0, 11, False)
    assert len({grid, Grid(0.0, 1.0, 11), Grid(0.0, 1.0, 12)}) == 2
    # equal values under another Record type are not equal
    assert Pair(1.0) != OtherPair(1.0)
    assert IntegratorConfig(1e-16) != IntegratorSection()


def test_fields_come_base_first_with_the_subclass_default():
    assert list(IntegratorSection.fields) == ["dt", "scheme", "t_end",
                                              "output_stride"]
    assert IntegratorSection().dt == 1e-16
    with pytest.raises(TypeError, match="missing field 'dt'"):
        IntegratorConfig()


class Deferred(type):
    """Computes a class's annotations when they are read and keeps none in
    its __dict__, as a class with deferred annotations (PEP 649) does."""

    @property
    def __annotations__(cls):
        return dict(vars(cls).get("deferred", {}))


class DeferredPair(Record, metaclass=Deferred):
    deferred = {"a": float, "b": int}
    b = 2


class SamePair(Pair):
    pass


def test_fields_are_read_through_each_class_annotations():
    assert DeferredPair.fields == {"a": float, "b": int}
    assert DeferredPair(1.0).as_dict() == {"a": 1.0, "b": 2}
    # a subclass that annotates nothing has its base's fields, once
    assert SamePair.fields == Pair.fields
    assert SamePair(1.0, 3).as_dict() == {"a": 1.0, "b": 3}


def test_replace_runs_the_checks_again():
    grid = Grid(0.0, 1.0, 11)
    assert grid.replace(n_points=21) == Grid(0.0, 1.0, 21)
    assert grid.replace(periodic=True).periodic
    with pytest.raises(ValidationError, match="n_points must be at least 8"):
        grid.replace(n_points=3)
    with pytest.raises(TypeError, match="Grid has no field 'spacing'"):
        grid.replace(spacing=0.1)


def test_a_check_patched_on_after_definition_runs(monkeypatch):
    built = []
    post_init = Grid.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Grid, "__post_init__", counting)
    grid = Grid(0.0, 1.0, 11)
    assert built == [grid]
    with pytest.raises(ValidationError):
        Grid(0.0, 1.0, 3)
    assert len(built) == 2
