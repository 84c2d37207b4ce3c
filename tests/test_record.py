"""The frozen record helper behind every result type of the package."""

from dataclasses import dataclass, field

import pytest

from surface_lab._record import HIDDEN, record

from oracles import replace


@record
class Pair:
    x: int
    y: int = 0
    note: object = HIDDEN

    def __post_init__(self) -> None:
        if self.x < 0:
            raise ValueError("negative x")
        # normalisation through object.__setattr__, as orbifold_covers does
        object.__setattr__(self, "y", abs(self.y))


@record
class Single:
    signs: tuple[int, ...]


@record
class Twin:
    x: int
    y: int = 0
    note: object = HIDDEN


@dataclass(frozen=True)
class StdPair:
    x: int
    y: int = 0
    note: object = field(default=None, compare=False, repr=False)


def test_record_semantics():
    p = Pair(1, -2, "a")
    assert (p.x, p.y, p.note) == (1, 2, "a")
    assert vars(p) == {"x": 1, "y": 2, "note": "a"}
    # == needs the same class and ignores the hidden field
    assert p == Pair(1, 2, "b") and p != Pair(1, 3, "a")
    assert p != Twin(1, 2, "a") and Pair.__eq__(p, Twin(1, 2, "a")) is NotImplemented
    # hash of the compared-field tuple, also for a single field
    assert hash(p) == hash((1, 2))
    assert hash(Single((1, -1))) == hash(((1, -1),))
    assert repr(p) == "Pair(x=1, y=2)"
    assert repr(Single((1, -1))) == "Single(signs=(1, -1))"
    # keywords and defaults bind like a signature (x, y=0, note)
    assert Pair(x=1, note=None) == Pair(1, 0, None) == Pair(1, note=None)
    for args, kwargs in (((1, 2, 3, 4), {}), ((1,), {"z": 2, "note": 0}),
                         ((1,), {"x": 1, "note": 0}), ((), {"y": 1, "note": 0}), ((1,), {})):
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)
    with pytest.raises(AttributeError):
        p.x = 3
    with pytest.raises(AttributeError):
        del p.y
    with pytest.raises(AttributeError):
        p.extra = 0
    # replace keeps the other fields and runs __post_init__ again
    q = replace(p, y=-5)
    assert (q.x, q.y, q.note) == (1, 5, "a")
    with pytest.raises(ValueError, match="negative x"):
        replace(p, x=-1)
    with pytest.raises(TypeError):
        replace(p, z=1)


def test_record_matches_the_stdlib_dataclass():
    values = [(0, 0), (1, 2), (2, 1), (-3, 7), (10**30, -1)]
    for x, y in values:
        ours, theirs = Twin(x, y, object()), StdPair(x, y, object())
        assert hash(ours) == hash(theirs)
        assert repr(ours).replace("Twin", "StdPair") == repr(theirs)
    # set order follows the hash, so it matches too
    assert [(t.x, t.y) for t in {Twin(x, y, None) for x, y in values}] == [
        (t.x, t.y) for t in {StdPair(x, y) for x, y in values}
    ]
