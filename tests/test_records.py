"""The contract of the public records, swept over field values.

Thirteen records are named tuples; SquareComplexPresentation, AntiTorusQuery,
Word and PeriodicWord are small classes, because they cache properties or
define their own ``__len__``.  Both kinds keep what the frozen dataclasses
they replace gave: fields in a fixed order, no assignment, equality and hash
over the fields, ``Name(field=value, ...)`` as ``repr``, ``to_dict`` and the
validation messages.
"""

import pytest
from hypothesis import assume, given, strategies as st

from cscwalls.antitorus import AntiTorusQuery, GammaResult
from cscwalls.complexes import (
    HORIZONTAL,
    VERTICAL,
    CornerTables,
    EdgeLabel,
    OrientedEdge,
    Square,
    SquareComplexPresentation,
    ValidationReport,
)
from cscwalls.develop import Cell, PeriodicWord, Rectangle, Word
from cscwalls.errors import InvalidParams, UnsupportedComplexError, WordError
from cscwalls.obstruction import ObstructionTable, ProjectionResult, WellSeparationResult
from cscwalls.staircase import NonAcylCertificate, StairParams, WindowSquare

#: Each named-tuple record and its fields, in the order the tuple holds them.
TUPLE_RECORDS = {
    EdgeLabel: ("name", "klass", "origin", "terminus"),
    OrientedEdge: ("label", "sign"),
    Square: ("bottom", "right", "top", "left"),
    ValidationReport: ("is_csc", "violations", "corner_count"),
    CornerTables: ("nh", "nv", "top", "right", "square", "corner"),
    Cell: ("square", "corner", "bottom", "right", "top", "left"),
    Rectangle: ("width", "height", "bottom", "top", "left", "right", "cells"),
    GammaResult: ("n", "j", "left_len", "right_len", "total_len", "y_offset"),
    ProjectionResult: ("n", "gamma", "diam", "contains_basepoint"),
    ObstructionTable: ("rows", "failures", "bounds_used"),
    WellSeparationResult: ("n", "L", "crossing_set_size", "facing_triple_free"),
    NonAcylCertificate: (
        "params", "p", "crossing_bound", "family", "family_distances", "witness_wall", "witnesses",
        "crossing_counts", "max_crossing", "max_crossing_walls", "lower_bound", "bfs_distance", "bounds_note",
    ),
    StairParams: ("overlap_len", "shift", "steps", "margin"),
    WindowSquare: ("sw", "se", "nw", "ne"),
}

values = st.one_of(st.integers(-3, 3), st.text("ab", max_size=2), st.booleans(), st.none())


def labels(klass):
    return st.builds(EdgeLabel, st.sampled_from("abc" if klass == HORIZONTAL else "xyz"), st.just(klass))


def edges(klass):
    return st.builds(OrientedEdge, labels(klass), st.sampled_from((1, -1)))


@st.composite
def words(draw, klass):
    """A reduced word: each letter drawn that cancels the one before is skipped."""
    letters = []
    for e in draw(st.lists(edges(klass), max_size=5)):
        if not letters or e != letters[-1].inverse():
            letters.append(e)
    return Word(tuple(letters), klass)


@st.composite
def periodic_words(draw, klass):
    try:
        return PeriodicWord(draw(words(klass)))
    except WordError:
        assume(False)


presentations = st.builds(
    SquareComplexPresentation,
    st.just(("*",)),
    st.lists(labels(HORIZONTAL), min_size=1, max_size=2).map(tuple),
    st.lists(labels(VERTICAL), min_size=1, max_size=2).map(tuple),
    st.lists(st.builds(Square, edges(HORIZONTAL), edges(VERTICAL), edges(HORIZONTAL), edges(VERTICAL)), max_size=3)
    .map(tuple),
)

#: Each small-class record and a strategy for its field values, in field order.
CLASS_RECORDS = {
    Word: (
        ("letters", "klass"),
        st.sampled_from((HORIZONTAL, VERTICAL)).flatmap(words).map(lambda w: (w.letters, w.klass)),
    ),
    PeriodicWord: (("period",), periodic_words(HORIZONTAL).map(lambda w: (w.period,))),
    SquareComplexPresentation: (
        ("vertices", "hedges", "vedges", "squares"),
        presentations.map(lambda p: (p.vertices, p.hedges, p.vedges, p.squares)),
    ),
    AntiTorusQuery: (
        ("complex", "hword", "vword"),
        st.tuples(presentations, periodic_words(HORIZONTAL), periodic_words(VERTICAL)),
    ),
}


def check_record(cls, fields, args):
    """Two records built from equal field values are equal, hash alike, read
    back their fields, show them in repr and refuse assignment."""
    a, b = cls(*args), cls(*args)
    assert a == b and hash(a) == hash(b)
    assert [getattr(a, f) for f in fields] == list(args)
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, args))
    if cls is not OrientedEdge:
        assert repr(a) == f"{cls.__name__}({shown})"
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    with pytest.raises(AttributeError):
        delattr(a, fields[0])
    return a


@pytest.mark.parametrize("cls", list(TUPLE_RECORDS), ids=lambda c: c.__name__)
@given(data=st.data())
def test_tuple_records(cls, data):
    """A named-tuple record is also the plain tuple of its fields."""
    fields = TUPLE_RECORDS[cls]
    if cls is StairParams:
        shape = data.draw(st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.integers(1, 3)))
        args = (max(shape[:2]), min(shape[:2]), *shape[2:])
    else:
        args = data.draw(st.tuples(*[values] * len(fields)))
    record = check_record(cls, fields, args)
    assert cls._fields == fields and record == args and tuple(record) == args and record[0] == args[0]


@pytest.mark.parametrize("cls", list(CLASS_RECORDS), ids=lambda c: c.__name__)
@given(data=st.data())
def test_class_records(cls, data):
    """A small-class record equals only records of its class, never a tuple."""
    fields, strategy = CLASS_RECORDS[cls]
    args = data.draw(strategy)
    assert check_record(cls, fields, args) != args


def test_oriented_edge_repr():
    a = EdgeLabel("a", HORIZONTAL)
    assert repr(OrientedEdge(a)) == "OrientedEdge('a')" and repr(OrientedEdge(a, -1)) == "OrientedEdge('-a')"


@given(ints=st.lists(st.integers(0, 10**6), min_size=10, max_size=10), flag=st.booleans())
def test_to_dict_is_the_field_dict(ints, flag):
    """to_dict gives what dataclasses.asdict gave: every field by name, with
    a nested record as its own dict."""
    gamma = GammaResult(*ints[:6])
    gamma_dict = dict(zip(TUPLE_RECORDS[GammaResult], ints[:6]))
    assert gamma.to_dict() == gamma_dict
    assert ProjectionResult(ints[6], gamma, ints[7], flag).to_dict() == {
        "n": ints[6], "gamma": gamma_dict, "diam": ints[7], "contains_basepoint": flag,
    }
    assert WellSeparationResult(*ints[6:9], flag).to_dict() == {
        "n": ints[6], "L": ints[7], "crossing_set_size": ints[8], "facing_triple_free": flag,
    }
    params = StairParams(ints[0] + 1, 1, ints[1] + 1, ints[2] + 1)
    assert params.to_dict() == {
        "overlap_len": ints[0] + 1, "shift": 1, "steps": ints[1] + 1, "margin": ints[2] + 1,
    }


@given(shape=st.tuples(st.integers(-3, 6), st.integers(-3, 6), st.integers(-3, 3), st.integers(-3, 3)))
def test_stair_params_messages(shape):
    L, r, steps, margin = shape
    if r <= 0:
        message = "shift must be positive"
    elif r > L:
        message = f"shift {r} exceeds overlap length {L}: not a staircase"
    elif steps < 1:
        message = "need at least one level"
    elif margin < 1:
        message = "margin must be at least 1"
    else:
        assert StairParams(L, r, steps, margin) == StairParams(L, r, steps)._replace(margin=margin)
        return
    with pytest.raises(InvalidParams) as exc:
        StairParams(L, r, steps, margin=margin)
    assert str(exc.value) == message


@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3), st.integers(1, 3)),
    field=st.sampled_from(TUPLE_RECORDS[StairParams]),
    value=st.integers(-3, 6),
)
def test_stair_params_replace_and_make_validate(shape, field, value):
    """_replace and _make go through the constructor: a field value it
    refuses raises its exact message, and any other gives its record."""
    L, r, steps, margin = shape
    params = StairParams(max(L, r), min(L, r), steps, margin)
    fields = {**params._asdict(), field: value}
    builds = (lambda: params._replace(**{field: value}), lambda: StairParams._make(fields.values()))
    try:
        want = StairParams(**fields)
    except InvalidParams as exc:
        for build in builds:
            with pytest.raises(InvalidParams) as got:
                build()
            assert str(got.value) == str(exc)
    else:
        assert all(build() == want and type(build()) is StairParams for build in builds)


@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3), st.integers(1, 3)),
    field=st.sampled_from(TUPLE_RECORDS[StairParams]),
    value=st.one_of(st.floats(allow_nan=False), st.text(max_size=3), st.none(), st.booleans()),
)
def test_stair_params_refuse_non_integers(shape, field, value):
    """A float, string, None or bool in any field raises InvalidParams
    naming the field, from the constructor, _replace and _make alike, even
    where its value equals a valid integer (3.0, True)."""
    L, r, steps, margin = shape
    params = StairParams(max(L, r), min(L, r), steps, margin)
    fields = {**params._asdict(), field: value}
    builds = (
        lambda: StairParams(**fields),
        lambda: params._replace(**{field: value}),
        lambda: StairParams._make(fields.values()),
    )
    for build in builds:
        with pytest.raises(InvalidParams) as got:
            build()
        assert str(got.value) == f"{field} must be an integer, got {value!r}"


A, B = EdgeLabel("a", HORIZONTAL), EdgeLabel("b", HORIZONTAL)
X = EdgeLabel("x", VERTICAL)
a, b, x = OrientedEdge(A), OrientedEdge(B), OrientedEdge(X)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Word((a,), "diagonal"), "bad word class 'diagonal'"),
        (lambda: Word((a, x), HORIZONTAL), "vertical letter 'x' in a horizontal word"),
        (lambda: Word((a, b, b.inverse()), HORIZONTAL), "word not reduced at 'b' '-b'"),
        (lambda: PeriodicWord(Word((), HORIZONTAL)), "periodic word must be nonempty"),
        (lambda: PeriodicWord(Word((a, b, a.inverse()), HORIZONTAL)), "'ab-a' is not cyclically reduced"),
        (lambda: PeriodicWord(Word((a, b) * 3, HORIZONTAL)), "'ababab' is a proper power (cyclic period 2)"),
        (lambda: AntiTorusQuery(TORUS, PeriodicWord(Word((x,), VERTICAL)), X1), "hword must be horizontal"),
        (lambda: AntiTorusQuery(TORUS, A1, A1), "vword must be vertical"),
        (lambda: AntiTorusQuery(TWO_VERTEX, A1, X1), "queries require a one-vertex complex"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises((WordError, UnsupportedComplexError)) as exc:
        build()
    assert str(exc.value) == message


TORUS = SquareComplexPresentation(("*",), (A,), (X,), (Square(a, x, a, x),))
TWO_VERTEX = SquareComplexPresentation(("P", "Q"), (A,), (X,), ())
A1, X1 = PeriodicWord(Word((a,), HORIZONTAL)), PeriodicWord(Word((x,), VERTICAL))


@given(presentations)
def test_mirror_reflects_every_square(p):
    """perfbench's set-up probe builds mirrored.tables through flip_h."""
    assert p.mirrored == SquareComplexPresentation(
        p.vertices, p.hedges, p.vedges, tuple(sq.flip_h() for sq in p.squares)
    )
    assert all(type(sq.flip_h()) is Square and sq.flip_h().flip_h() == sq for sq in p.squares)
