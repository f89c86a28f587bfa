"""Parsing, validation, serialization, and the census."""

import functools
import hashlib

import pytest

import cscwalls as cw
from cscwalls.complexes import BASE_VERTEX, OrientedEdge, Square
from cscwalls.errors import (
    BudgetExceeded,
    ClassError,
    DuplicateLabel,
    NotCSCError,
    ParseError,
)

from .oracles import census_by_filtering, census_count_by_burnside, presentation_canonical_form


class TestParse:
    def test_torus(self, torus):
        assert len(torus.squares) == 1
        assert torus.vertices == (BASE_VERTEX,)
        assert [e.name for e in torus.hedges] == ["a"]
        assert [e.name for e in torus.vedges] == ["x"]

    def test_two_plus_two_has_16_corner_entries(self, shipped):
        # one vertex, four edges, four squares
        p = shipped.complex
        assert len(p.hedges) == 2 and len(p.vedges) == 2 and len(p.squares) == 4
        assert p.validation.corner_count == 16

    def test_class_mismatch(self):
        with pytest.raises(ClassError):
            cw.parse_complex("hedges: a b\nvedges: x\nsquare: a b a x\n")

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            cw.parse_complex("hedges: a\nvedges: a\n")

    def test_unknown_label(self):
        with pytest.raises(ParseError):
            cw.parse_complex("hedges: a\nvedges: x\nsquare: a x a z\n")

    def test_square_arity(self):
        with pytest.raises(ParseError):
            cw.parse_complex("hedges: a\nvedges: x\nsquare: a x a\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            cw.parse_complex("squares: a x a x\n")

    def test_comments_and_blanks(self, torus):
        text = "# header\n\nhedges: a  # trailing\nvedges: x\nsquare: a x a x\n"
        assert cw.parse_complex(text) == torus

    def test_multi_vertex(self, two_vertex):
        assert two_vertex.vertices == ("P", "Q")
        assert two_vertex.is_csc
        assert two_vertex.validation.corner_count == 8

    def test_multi_vertex_square_must_close(self):
        text = "vertex: P Q\nhedges: a=P:Q\nvedges: x=P:P y=Q:Q\nsquare: a x a x\n"
        with pytest.raises(ParseError):
            cw.parse_complex(text)

    def test_endpoints_require_vertices(self):
        with pytest.raises(ParseError):
            cw.parse_complex("hedges: a=P:Q\n")


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", ["torus", "klein", "two_vertex"])
    def test_parse_serialize(self, fixture, request):
        p = request.getfixturevalue(fixture)
        assert cw.parse_complex(cw.serialize_complex(p)) == p

    def test_census_sample(self, census22):
        for p in census22[::10]:
            assert cw.parse_complex(cw.serialize_complex(p)) == p


class TestValidate:
    def test_torus(self, torus):
        report = cw.validate_csc(torus)
        assert report.is_csc and report.corner_count == 4 and not report.violations

    def test_two_plus_two_brute_force(self, shipped):
        """Exhaustively count, for every ordered germ pair, the square
        orientations having that pair at their SW corner."""
        p = shipped.complex
        seen = {}
        for sq in p.squares:
            for version in (sq, sq.flip_h(), sq.flip_v(), sq.flip_h().flip_v()):
                pair = (p.germ_id(version.bottom), p.germ_id(version.left))
                seen[pair] = seen.get(pair, 0) + 1
        assert len(seen) == 16 and set(seen.values()) == {1}
        assert p.validation.is_csc

    def test_doubled_and_missing_square(self, shipped):
        p = shipped.complex
        broken = cw.SquareComplexPresentation(
            vertices=p.vertices,
            hedges=p.hedges,
            vedges=p.vedges,
            squares=(p.squares[0], p.squares[0]) + p.squares[2:],  # one doubled, one omitted
        )
        report = cw.validate_csc(broken)
        assert not report.is_csc
        assert len(report.violations) == 8  # 4 doubled pairs + 4 missing pairs
        doubled = [v for v in report.violations if v[2] == 2]
        missing = [v for v in report.violations if v[2] == 0]
        assert len(doubled) == 4 and len(missing) == 4

    def test_tables_raise_when_invalid(self, shipped):
        p = shipped.complex
        broken = cw.SquareComplexPresentation(
            vertices=p.vertices, hedges=p.hedges, vedges=p.vedges, squares=p.squares[:3]
        )
        with pytest.raises(NotCSCError):
            broken.tables


class TestCornerTableProperties:
    def test_lookup_total_and_consistent(
        self, shipped, torus, klein, two_vertex, census22, census13, census31
    ):
        """Every germ pair resolves to a square actually having that pair at
        the resolved corner type, and the mirrored complex has the same top
        and right tables, which the westward overlap stream relies on."""
        for p in (shipped.complex,) + census22[:5]:
            t = p.tables
            for h in range(t.nh):
                for v in range(t.nv):
                    s = t.square[h][v]
                    assert s >= 0
                    sq = p.squares[s]
                    versions = (sq, sq.flip_h(), sq.flip_v(), sq.flip_h().flip_v())
                    version = versions[t.corner[h][v]]
                    assert p.germ_id(version.bottom) == h
                    assert p.germ_id(version.left) == v
                    assert p.germ_id(version.top) == t.top[h][v]
                    assert p.germ_id(version.right) == t.right[h][v]
        for p in (shipped.complex, torus, klein, two_vertex) + census22 + census13 + census31:
            assert p.mirrored.tables.top == p.tables.top
            assert p.mirrored.tables.right == p.tables.right

    def test_corner_count_identity(self, torus, shipped, census22):
        for p in (torus, shipped.complex) + census22[:5]:
            assert 4 * len(p.squares) == (2 * len(p.hedges)) * (2 * len(p.vedges))


#: SHA-256 of the concatenated serialized census entries, per (h, v).
CENSUS_SHA256 = {
    (2, 2): "3791d8f862b6a0d779c836784bb18b5d785f3ad61287936ebb1a2678a3b1b1f2",
    (1, 3): "0735f9ad8965a3102021b2dfd6db9d894b4b8edc2e45804b69b4590fe3281589",
    (3, 1): "9bd6276bc9e443304fb4cb387c5f109648a44063268eb294e090aba5ac574bad",
    (2, 3): "a17997d925b67e78f4d5e7ae2380bb958c5d6962954633bb60bdc60b8e204f72",
}


@functools.cache
def census_of(h_count, v_count):
    return tuple(cw.enumerate_csc(h_count, v_count))


class TestCensus:
    def test_1_1_against_filtering_oracle(self):
        census = list(cw.enumerate_csc(1, 1))
        oracle = census_by_filtering(1, 1)
        assert len(census) == len(oracle) == 3  # torus + two Klein-type twists
        assert [presentation_canonical_form(p) for p in census] == sorted(oracle)
        torus_form = presentation_canonical_form(cw.parse_complex("hedges: a\nvedges: x\nsquare: a x a x\n"))
        assert torus_form in oracle

    @pytest.mark.parametrize("h, v", [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2)])
    def test_against_filtering_oracle(self, h, v):
        """Each class in its least relabeling, in sorted order."""
        forms = [presentation_canonical_form(p) for p in census_of(h, v)]
        assert forms == sorted(census_by_filtering(h, v))

    @pytest.mark.parametrize(
        "h, v, classes",
        [(1, 1, 3), (1, 2, 9), (2, 1, 9), (2, 2, 98), (1, 3, 22), (3, 1, 22), (2, 3, 1001), (3, 2, 1001)],
    )
    def test_class_count_by_burnside(self, h, v, classes):
        assert census_count_by_burnside(h, v) == classes
        assert len(census_of(h, v)) == classes

    @pytest.mark.parametrize("h, v", sorted(CENSUS_SHA256))
    def test_census_bytes_are_pinned(self, h, v):
        text = "".join(cw.serialize_complex(p) for p in census_of(h, v))
        assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_SHA256[h, v]

    def test_2_2_census_is_valid_and_duplicate_free(self, census22):
        forms = {presentation_canonical_form(p) for p in census22}
        assert len(forms) == len(census22)
        for p in census22:
            assert p.is_csc
            assert len(p.squares) == 4

    def test_2_2_census_admits_anti_torus_candidate(self, census22, shipped):
        """At least one census entry admits a pair with no commuting powers up
        to (8, 8); the shipped complex is that entry."""
        from cscwalls.antitorus import commuting_powers_search

        assert commuting_powers_search(shipped, 8, 8) is None
        forms = {presentation_canonical_form(p) for p in census22}
        assert presentation_canonical_form(shipped.complex) in forms

    def test_empty_class_gives_empty_stream(self):
        assert list(cw.enumerate_csc(0, 1)) == []
        assert list(cw.enumerate_csc(2, 0)) == []

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            list(cw.enumerate_csc(4, 1))
        # The node budget: (h, v) -> (nodes the search needs, classes).
        for (h, v), (need, classes) in {(2, 2): (947, 98), (1, 3): (168, 22)}.items():
            with pytest.raises(BudgetExceeded, match=f"census search exceeded {need - 1} nodes"):
                list(cw.enumerate_csc(h, v, max_nodes=need - 1))
            assert len(list(cw.enumerate_csc(h, v, max_nodes=need))) == classes

    def test_determinism(self):
        a = [cw.serialize_complex(p) for p in cw.enumerate_csc(2, 2)]
        b = [cw.serialize_complex(p) for p in cw.enumerate_csc(2, 2)]
        assert a == b


class TestOrientedEdges:
    def test_double_inverse(self, torus):
        e = OrientedEdge(torus.hedges[0], 1)
        assert e.inverse().inverse() == e

    def test_square_reflections_are_involutions(self, shipped):
        for sq in shipped.complex.squares:
            assert sq.flip_h().flip_h() == sq
            assert sq.flip_v().flip_v() == sq
            assert sq.flip_h().flip_v() == sq.flip_v().flip_h()
