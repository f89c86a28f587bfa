"""Staircase windows, walls, contact graphs, and certificates."""

import hashlib
import json
import tracemalloc
from itertools import combinations, pairwise

import pytest
from hypothesis import assume, given, settings, strategies as st

from cscwalls.errors import CscwallsError, InvalidParams, UnknownWall
from cscwalls.staircase import (
    FLAT_ROWS,
    ContactGraph,
    StairParams,
    WindowSquare,
    _layout,
    _overlap_span,
    build_staircase,
    check_certifiable,
    contact_distance,
    contact_distances,
    contact_graph,
    contact_graph_dot,
    nonacyl_certificate,
    walls,
)

from .oracles import (
    contact_distance_by_search,
    contact_distances_by_search,
    contact_graph_by_tuples,
    contact_graph_dot_by_names,
    counts_by_tuples,
    crossing_counts_by_scan,
    edges_by_tuples,
    unit_square,
    validate_by_tuples,
    vertices_by_tuples,
    walls_by_tuples,
    window_of,
)


@st.composite
def certifiable(draw):
    """(L, r, steps, p) of a small staircase whose certificate exists:
    steps >= crossing_bound - 1 and 1 <= p <= steps."""
    L = draw(st.integers(1, 8))
    r = draw(st.integers(1, L))
    m = -(-L // r) + 1
    steps = draw(st.integers(m - 1, m + 5))
    p = draw(st.integers(1, steps))
    return L, r, steps, p


@st.composite
def short_shapes(draw):
    """StairParams with L <= 10, r <= L, steps <= crossing_bound and margin <= 3."""
    L = draw(st.integers(1, 10))
    r = draw(st.integers(1, L))
    m = -(-L // r) + 1
    return StairParams(L, r, draw(st.integers(1, m)), draw(st.integers(1, 3)))


@st.composite
def stair_shapes(draw):
    """StairParams of a small staircase, any step count up to crossing_bound + 5."""
    L = draw(st.integers(1, 8))
    r = draw(st.integers(1, L))
    m = -(-L // r) + 1
    return StairParams(L, r, draw(st.integers(1, m + 5)), draw(st.integers(1, 4)))


@st.composite
def large_shapes(draw):
    """StairParams with L, steps <= 10**6 and margin <= 1000, r <= L."""
    L = draw(st.integers(1, 10**6))
    return StairParams(L, draw(st.integers(1, L)), draw(st.integers(1, 10**6)), draw(st.integers(1, 1000)))


#: Unit squares on a 5x5 grid, all four corners tagged at random, so that two
#: squares can lie in one place without sharing a vertex; repeats allowed.
unit_square_lists = st.lists(
    st.builds(unit_square, st.integers(0, 4), st.integers(0, 4), *[st.integers(0, 1)] * 4),
    min_size=1,
    max_size=12,
)


@st.composite
def run_rows(draw):
    """Unit squares laid out as rows: up to 6 rows of 1-15 squares at heights
    0..5, each with its own bottom and top tags switching along the row.
    Rows may overlap, and a row may repeat an earlier one or lie in its place
    with every tag flipped, sharing no vertex with it; the squares come row
    by row or shuffled."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if rows and draw(st.integers(0, 3)) == 0:
            x, y, bottom, top = draw(st.sampled_from(rows))
            if draw(st.booleans()):
                bottom, top = [1 - t for t in bottom], [1 - t for t in top]
            rows.append((x, y, bottom, top))
            continue
        width = draw(st.integers(1, 15))
        tags = st.lists(st.integers(0, 1), min_size=width + 1, max_size=width + 1)
        bottom = draw(tags)
        top = draw(tags)
        rows.append((draw(st.integers(-3, 8)), draw(st.integers(0, 5)), bottom, top))
    squares = [
        WindowSquare((c, y, bottom[i]), (c + 1, y, bottom[i + 1]), (c, y + 1, top[i]), (c + 1, y + 1, top[i + 1]))
        for x, y, bottom, top in rows
        for i, c in enumerate(range(x, x + len(bottom) - 1))
    ]
    return draw(st.permutations(squares)) if draw(st.booleans()) else squares


def link_holds(squares):
    """Whether squares satisfy the link condition, by the tuple oracle's
    square-by-square scan, whatever else validation finds."""
    try:
        validate_by_tuples(squares)
    except CscwallsError as exc:
        return not str(exc).startswith("link condition fails")
    return True


def under_link(squares):
    """The squares, less each one that would take a vertex quadrant that a
    square kept before it holds: corner i of every square fills the same
    quadrant of its vertex, so the kept squares satisfy the link condition."""
    held, kept = set(), []
    for square in squares:
        quadrants = list(enumerate(square))
        if held.isdisjoint(quadrants):
            held.update(quadrants)
            kept.append(square)
    return kept


def wall_number_of_edge(graph, edge):
    """The wall number of an edge given as its (lesser, greater) vertex
    tuples, read off the window's runs and the graph's row walls; None if
    the window has no such edge.  A horizontal edge is a side of a run's
    square, whose vertical wall is the run's crossing at its column, which
    the crossing list of the run's bottom row wall holds, and a vertical
    edge is a side of one row of a run, whose wall is that row's.  A band's
    interior vertex rows carry its one tag."""
    (x, y, t), (x2, y2, t2) = edge
    rows = graph._row_walls
    first = 0
    for y0, a, b, bottom, top, h in graph.window._runs:
        tb, tt = ([tag for x0, x1, tag in segments for _ in range(x0, x1 + 1)] for segments in (bottom, top))
        if (x2, y2) == (x + 1, y) and a <= x < b and y0 <= y <= y0 + h:
            tags = tb if y == y0 else tt
            if (tags[x - a], tags[x + 1 - a]) == (t, t2):
                return graph._across[rows[first]][x - a]
        if (x2, y2) == (x, y + 1) and a <= x <= b and y0 <= y < y0 + h:
            if ((tb if y == y0 else tt)[x - a], tt[x - a]) == (t, t2):
                return rows[first + y - y0]
        first += h
    return None


def dual_edges(graph):
    """The dual edges of each wall, by wall number, as vertex-tuple pairs:
    the oracle's edges grouped by the engine's per-edge wall lookup."""
    members = [set() for _ in graph.walls]
    for edge in edges_by_tuples(graph.window.squares):
        members[wall_number_of_edge(graph, edge)].add(edge)
    return list(map(frozenset, members))


def wall_of_edge(graph, edge):
    """The id of the wall dual to an edge given as its vertex tuples."""
    return graph.walls[wall_number_of_edge(graph, edge)]


def strip_wall_edge(params, i):
    """Strip i's westmost vertical edge, from the shape alone.  Strip i's
    squares sit at height 4i, one strip row above three flat rows per level;
    it spans the flats below and above it, so its west end is flat
    max(i - 1, 0)'s, and there its bottom hangs beyond the overlap (tag 1)."""
    x = max(i - 1, 0) * params.shift - params.margin
    return (x, 4 * i, 1), (x, 4 * i + 1, 0)


def base_axis_edge(params):
    """The easternmost edge of the level-0 overlap segment, on the base axis."""
    L = params.overlap_len
    return (L - 1, 1, 0), (L, 1, 0)


def assert_graph_matches_oracle(window):
    """Walls and contact graph of the run engine equal the tuple-keyed oracle,
    its per-wall lists hold what the engine assumes of them, and so does its
    layout's touching list."""
    assert_rows_through_a_corner_touch(window)
    graph = contact_graph(window)
    oracle = contact_graph_by_tuples(window)
    assert graph.walls == walls(window) == [w.id for w in oracle.walls]
    assert dual_edges(graph) == [w.dual_edges for w in oracle.walls]
    assert graph.neighbors == oracle.neighbors
    assert graph.crossings == oracle.crossings
    assert contact_graph_dot(graph) == contact_graph_dot_by_names(oracle)
    assert_lists_match_oracle(graph, oracle)


def assert_rows_through_a_corner_touch(window):
    """Rows through one vertex overlap in that vertex row, so the layout lists
    each two of them as touching, and the contact graph pairs them with no
    help from the corner rule."""
    layout = _layout(window._runs)
    touching = set(zip(*layout.touching))
    for corner in layout.corners:
        for j, k in combinations(corner[::2], 2):
            assert (j, k) in touching or (k, j) in touching, (corner, j, k)


def assert_lists_match_oracle(graph, oracle):
    """Each square is one crossing entry on each side; no wall lists a wall
    twice, itself included, across its crossing list and its contact list;
    and one BFS over those lists gives the oracle's distances, in BFS order:
    from every wall of a window of at most 50 walls, from 8 walls spread
    over the walls of a larger one."""
    window = graph.window
    horizontal = set(graph._row_walls)
    entries = [0, 0]  # on the vertical side, on the horizontal side
    for k, (crossed, near) in enumerate(zip(graph._across, graph._contacts)):
        entries[k in horizontal] += len(crossed)
        listed = [*crossed, *near, k]
        assert len(set(listed)) == len(listed), graph.walls[k]
    assert entries == [len(window.squares)] * 2
    names = graph.walls
    sources = names if len(names) <= 50 else names[:: -(-len(names) // 8)]
    for source in sources:
        expected = contact_distances_by_search(oracle.neighbors, source)
        if len(expected) < len(names):
            with pytest.raises(CscwallsError, match="disconnected"):
                contact_distances(graph, source)
            continue
        found = contact_distances(graph, source)
        assert found == expected
        assert list(found.values()) == sorted(found.values())


def assert_rows_are_walls(graph):
    """What the walls take from the link condition: no two runs share a
    vertical edge, read off the runs' segments, so no two rows are one
    horizontal wall."""
    sides = []
    window = graph.window
    for y, a, b, bottom, top, h in window._runs:
        tb, tt = ([t for x0, x1, t in segments for _ in range(x0, x1 + 1)] for segments in (bottom, top))
        for z in range(y, y + h):
            sides += [(x, z, tb[x - a] if z == y else tt[x - a], tt[x - a]) for x in range(a, b + 1)]
    assert len(set(sides)) == len(sides)
    horizontal = graph._row_walls
    assert len(set(horizontal)) == len(horizontal) == sum(run[5] for run in window._runs)


def _annulus():
    """The 3x3 block of unit squares without its centre: Euler number 0."""
    return [unit_square(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]


class TestParams:
    def test_shift_exceeding_overlap(self):
        with pytest.raises(InvalidParams):
            StairParams(overlap_len=2, shift=3, steps=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(overlap_len=4, shift=0, steps=1),
            dict(overlap_len=4, shift=2, steps=0),
            dict(overlap_len=4, shift=2, steps=1, margin=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidParams):
            StairParams(**kwargs)

    @pytest.mark.parametrize(
        "L,r,m", [(4, 2, 3), (6, 2, 4), (10, 3, 5), (2, 1, 3), (5, 5, 2), (7, 3, 4)]
    )
    def test_crossing_bound_formula(self, L, r, m):
        assert StairParams(L, r, steps=1).crossing_bound == m

    @given(large_shapes())
    def test_counts_give_euler_characteristic_and_wall_count(self, params):
        """At sizes too large to build, as counts() states: Euler
        characteristic 1, and edges - 2 * squares walls in closed form."""
        L, r, s, m = params
        c = params.counts()
        assert c["vertices"] - c["edges"] + c["squares"] == 1
        assert c["edges"] - 2 * c["squares"] == L + 2 * m * (s + 1) + 3 * s + 2 + (s - 1) * (r + 1)


class TestGoldenWindow:
    """Hand-enumerated smallest staircase: L=2, r=1, one level, margin 1.

    Two strips of 4 squares and one 4x3 flat; the upper strip hangs beyond
    the overlap [0, 2] at both ends, detaching 2 of its bottom vertices.
    """

    def test_counts(self):
        params = StairParams(2, 1, steps=1, margin=1)
        counts = {"vertices": 32, "edges": 51, "squares": 20}
        assert params.counts() == counts_by_tuples(build_staircase(params).squares) == counts

    def test_detached_vertices(self):
        w = build_staircase(StairParams(2, 1, steps=1, margin=1))
        tagged = sorted(v for v in vertices_by_tuples(w.squares) if v[2] == 1)
        # strip 0's whole bottom row is free; strip 1 detaches x=-1 and x=3
        assert tagged == [(-1, 0, 1), (-1, 4, 1), (0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1), (3, 4, 1)]


class TestWindowValidation:
    def test_medium_window_validates(self):
        params = StairParams(4, 2, steps=4, margin=2)
        assert validate_by_tuples(build_staircase(params).squares) == params.counts()

    @settings(max_examples=100)
    @given(st.one_of(unit_square_lists, run_rows()))
    def test_under_link_keeps_the_link_condition(self, squares):
        """What under_link keeps passes the tuple oracle's link scan, and it
        keeps every square of a list that passes it already."""
        kept = under_link(squares)
        assert link_holds(kept)
        if link_holds(squares):
            assert kept == squares

    @settings(max_examples=300)
    @given(unit_square_lists.map(under_link))
    def test_validation_matches_tuple_oracle(self, squares):
        """Any unit squares under the link condition: the window's contact
        graph is disconnected exactly where the oracle's search finds it so,
        which is where the window is."""
        window = window_of(squares)
        assert_lists_match_oracle(contact_graph(window), contact_graph_by_tuples(window))

    @settings(max_examples=200)
    @given(run_rows().map(under_link))
    def test_run_rows_match_tuple_oracles(self, squares):
        """Long rows with tag switches, overlapping and repeated, under the
        link condition: the window has the tuple oracles' walls and contact
        graph, contractible and connected or not."""
        assert_graph_matches_oracle(window_of(squares))

    def test_benchmark_scale_counts(self):
        """The counts the layout of the wide benchmark window measured."""
        params = StairParams(110, 4, 100)
        assert params.counts() == {"vertices": 46418, "edges": 91725, "squares": 45308}
        assert len(walls(build_staircase(params))) == 1109 == 91725 - 2 * 45308

    @settings(max_examples=60)
    @given(stair_shapes())
    def test_staircases_validate_like_tuple_oracle(self, params):
        """The closed-form counts are the tuple oracle's, of a connected
        window with Euler characteristic 1, and edges - 2 * squares is the
        number of walls of the contact graph and of the tuple oracle."""
        window = build_staircase(params)
        c = params.counts()
        assert validate_by_tuples(window.squares) == counts_by_tuples(window.squares) == c
        assert c["vertices"] - c["edges"] + c["squares"] == 1
        assert len(contact_graph(window).walls) == len(walls_by_tuples(window)) == c["edges"] - 2 * c["squares"]

    def test_annulus_and_far_square_is_not_connected(self):
        """Euler number 1, so only the contact graph's search tells it apart
        from a contractible window."""
        squares = _annulus() + [unit_square(10, 10)]
        c = counts_by_tuples(squares)
        assert c["vertices"] - c["edges"] + c["squares"] == 1
        window = window_of(squares)
        with pytest.raises(CscwallsError, match="disconnected"):
            contact_distances(contact_graph(window), "w0000")

    def test_determinism(self):
        a = build_staircase(StairParams(6, 2, steps=5, margin=2))
        b = build_staircase(StairParams(6, 2, steps=5, margin=2))
        assert a.squares == b.squares and dual_edges(contact_graph(a)) == dual_edges(contact_graph(b))


class TestWalls:
    def test_single_square(self):
        window = window_of([unit_square(0, 0)])
        assert walls(window) == ["w0000", "w0001"]
        assert [len(edges) for edges in dual_edges(contact_graph(window))] == [2, 2]

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_strip_of_squares(self, k):
        """A 1xk strip: k vertical walls of 2 edges and 1 horizontal wall of
        k+1 edges (at k=1 this is the single-square count)."""
        window = window_of([unit_square(x, 0) for x in range(k)])
        assert len(walls(window)) == k + 1
        assert sorted(map(len, dual_edges(contact_graph(window)))) == [2] * k + [k + 1]

    def test_partition(self):
        window = build_staircase(StairParams(4, 2, steps=3, margin=1))
        union = set()
        total = 0
        for edges in dual_edges(contact_graph(window)):
            total += len(edges)
            union.update(edges)
        edges = edges_by_tuples(window.squares)
        assert union == edges and total == len(edges)

    def test_strip_walls_distinct_and_eventually_non_adjacent(self):
        params = StairParams(4, 2, steps=3, margin=1)
        window = build_staircase(params)
        graph = contact_graph(window)
        m = params.crossing_bound
        family = [wall_of_edge(graph, strip_wall_edge(params, i)) for i in range(4)]
        assert len(set(family)) == 4
        for i in range(4):
            for k in range(4):
                if abs(i - k) >= m:
                    assert family[k] not in graph.neighbors[family[i]]

    @settings(max_examples=60)
    @given(stair_shapes())
    def test_staircases_match_tuple_oracle(self, params):
        assert_graph_matches_oracle(build_staircase(params))

    @settings(max_examples=60)
    @given(stair_shapes())
    def test_consecutive_strip_walls_share_the_overlap_walls(self, params):
        """Exactly L walls cross both strip walls i and i+1: the walls of
        strip i+1's L overlap edges, the crossing set that well_separation
        sizes as L by definition.  The tuple oracle's crossings agree."""
        window = build_staircase(params)
        graph = contact_graph(window)
        oracle = contact_graph_by_tuples(window)
        names = graph.walls
        f = graph._row_walls[: params.steps + 1]
        for i in range(params.steps):
            both = set(graph._across[f[i]]) & set(graph._across[f[i + 1]])
            a, b = _overlap_span(params, i + 1)
            y = 4 * (i + 1)
            assert len(both) == params.overlap_len
            assert both == {wall_number_of_edge(graph, ((x, y, 0), (x + 1, y, 0))) for x in range(a, b)}
            assert {names[k] for k in both} == oracle.crossings[names[f[i]]] & oracle.crossings[names[f[i + 1]]]

    @settings(max_examples=40)
    @given(stair_shapes().filter(lambda params: params.overlap_len <= 6))
    def test_overlap_walls_have_no_facing_triple(self, params):
        """The halfspaces of a wall are the components of the window's
        1-skeleton without the wall's dual edges, from the tuple oracles
        alone.  Every wall has exactly two.  Of the L walls that cross strip
        walls i and i+1, all vertical and so ordered by column, the middle
        wall of every triple puts the outer two in different halfspaces:
        no three of them face each other, the facing_triple_free that
        well_separation states."""
        window = build_staircase(params)
        oracle = contact_graph_by_tuples(window)
        edges = edges_by_tuples(window.squares)
        dual = {w.id: w.dual_edges for w in oracle.walls}
        edge_wall = {e: w for w, es in dual.items() for e in es}

        def halfspaces(wall):
            """Vertex -> component number once wall's dual edges are gone,
            and the number of components."""
            around = {}
            for a, b in edges:
                if edge_wall[a, b] != wall:
                    around.setdefault(a, []).append(b)
                    around.setdefault(b, []).append(a)
            side, count = {}, 0
            for start in vertices:
                if start not in side:
                    side[start], stack = count, [start]
                    while stack:
                        for nxt in around.get(stack.pop(), ()):
                            if nxt not in side:
                                side[nxt] = count
                                stack.append(nxt)
                    count += 1
            return side, count

        vertices = vertices_by_tuples(window.squares)
        sides = {}
        for w in dual:
            sides[w], count = halfspaces(w)
            assert count == 2, w
        strip = [edge_wall[strip_wall_edge(params, i)] for i in range(params.steps + 1)]
        for i in range(params.steps):
            both = oracle.crossings[strip[i]] & oracle.crossings[strip[i + 1]]
            columns = {w: {a[0] for a, _ in dual[w]} for w in both}
            assert len(both) == params.overlap_len and all(len(xs) == 1 for xs in columns.values())
            ordered = sorted(both, key=lambda w: min(columns[w]))
            for a, b, c in combinations(ordered, 3):
                (sa,), (sc,) = ({sides[b][v] for e in dual[w] for v in e} for w in (a, c))
                assert sa != sc, (i, a, b, c)

    @settings(max_examples=150)
    @given(unit_square_lists.map(under_link))
    def test_unit_square_sets_match_tuple_oracle(self, squares):
        """Any set of unit squares under the link condition, tagged bottoms
        included: the window need not be a staircase, contractible or
        connected."""
        assert_graph_matches_oracle(window_of(squares))

    def test_a_square_continues_the_run_ending_at_its_west_side(self):
        """Square (1, 0) continues the run of square (0, 0), not of the square
        in the same place with all four tags 1 that sorts between them: two
        runs, whose rows are two distinct horizontal walls."""
        tagged = WindowSquare((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))
        window = window_of([unit_square(0, 0), tagged, unit_square(1, 0)])
        assert len(window._runs) == 2
        assert_rows_are_walls(contact_graph(window))

    @settings(max_examples=150)
    @given(unit_square_lists.map(under_link).map(window_of))
    def test_unit_square_rows_are_walls(self, window):
        assert_rows_are_walls(contact_graph(window))

    @settings(max_examples=150)
    @given(run_rows().map(under_link).map(window_of))
    def test_run_rows_are_walls(self, window):
        assert_rows_are_walls(contact_graph(window))

    @settings(max_examples=150)
    @given(
        st.one_of(
            stair_shapes().map(build_staircase),
            unit_square_lists.map(under_link).map(window_of),
            run_rows().map(under_link).map(window_of),
        )
    )
    def test_wall_count_is_edges_less_twice_squares(self, window):
        """Under the link condition the dual edges of a wall form one path,
        each of its squares linking two consecutive ones, and each square
        lies in two walls: that count from the tuple oracle's counts, the
        contact graph's partition and the tuple oracle's walls agree, and a
        staircase's closed-form counts are the oracle's."""
        c = counts_by_tuples(window.squares)
        if window.params is not None:
            assert window.params.counts() == c
        n = c["edges"] - 2 * c["squares"]
        assert len(walls(window)) == len(contact_graph(window)._across) == len(walls_by_tuples(window)) == n

    def test_wall_ids_sorted_as_strings_beyond_9999_walls(self):
        """Above w9999 string order is not numeric order ("w10000" < "w9999"):
        neighbour tuples and the DOT file follow string order."""
        graph = contact_graph(build_staircase(StairParams(3, 2, steps=1300)))
        assert len(graph.walls) > 10_000
        assert all(list(v) == sorted(v) for v in graph.neighbors.values())
        assert any(
            list(v) != sorted(v, key=lambda w: int(w[1:])) for v in graph.neighbors.values()
        )
        oracle = contact_graph_by_tuples(graph.window)
        assert contact_graph_dot(graph) == contact_graph_dot_by_names(oracle)
        assert_lists_match_oracle(graph, oracle)


class TestBands:
    @settings(max_examples=100)
    @given(stair_shapes())
    def test_bands_agree_with_rows(self, params):
        """A built window carries each flat as one band, and the window of its
        squares carries each row of squares as a run of its own: the two give
        the same squares, walls, neighbours, crossings, DOT text and distances
        from the base strip wall."""
        bands = build_staircase(params)
        rows = window_of(bands.squares)
        assert {run[5] for run in rows._runs} == {1}
        assert sorted(rows.squares) == sorted(bands.squares)
        assert walls(rows) == walls(bands)
        a, b = contact_graph(bands), contact_graph(rows)
        assert a.neighbors == b.neighbors and a.crossings == b.crossings
        assert contact_graph_dot(a) == contact_graph_dot(b)
        base = wall_of_edge(b, strip_wall_edge(params, 0))
        assert contact_distances(a, base) == contact_distances(b, base)

    @given(stair_shapes())
    def test_each_flat_is_one_band(self, params):
        """steps + 1 one-row strips, then steps bands of FLAT_ROWS rows."""
        window = build_staircase(params)
        assert len(window._runs) == 2 * params.steps + 1
        assert [run[5] for run in window._runs] == [1] * (params.steps + 1) + [FLAT_ROWS] * params.steps


class TestContactGraph:
    def test_crossing_walls_of_one_square(self):
        window = window_of([unit_square(0, 0)])
        graph = contact_graph(window)
        a, b = graph.walls
        assert contact_distance(graph, a, b) == 1
        assert graph.crossings == {a: {b}, b: {a}}

    def test_adjacency_symmetric_irreflexive(self):
        graph = contact_graph(build_staircase(StairParams(4, 2, steps=3, margin=1)))
        for w in graph.walls:
            assert w not in graph.neighbors[w]
            for other in graph.neighbors[w]:
                assert w in graph.neighbors[other]

    def test_distance_two_witnessed(self):
        params = StairParams(4, 2, steps=3, margin=1)  # crossing bound 3
        window = build_staircase(params)
        graph = contact_graph(window)
        base = wall_of_edge(graph, strip_wall_edge(params, 0))
        for i in (1, 2):
            other = wall_of_edge(graph, strip_wall_edge(params, i))
            assert contact_distance(graph, base, other) == 2

    def test_distance_at_twelve_steps(self):
        params = StairParams(4, 2, steps=12, margin=1)
        window = build_staircase(params)
        graph = contact_graph(window)
        base = wall_of_edge(graph, strip_wall_edge(params, 0))
        top = wall_of_edge(graph, strip_wall_edge(params, 12))
        d = contact_distance(graph, base, top)
        assert d >= 12 / 3
        assert d == 8  # frozen exact BFS value for this window

    def test_disconnected_graph(self):
        graph = contact_graph(window_of([unit_square(0, 0), unit_square(5, 0)]))
        near, far = graph.walls[0], graph.walls[-1]
        with pytest.raises(CscwallsError, match="disconnected"):
            contact_distance(graph, near, far)
        with pytest.raises(CscwallsError, match="disconnected"):
            contact_distances(graph, near)

    def test_unknown_wall(self):
        window = window_of([unit_square(0, 0)])
        graph = contact_graph(window)
        with pytest.raises(UnknownWall):
            contact_distance(graph, "w9999", graph.walls[0])
        with pytest.raises(UnknownWall):
            contact_distance(graph, graph.walls[0], "w9999")
        with pytest.raises(UnknownWall):
            contact_distances(graph, "w9999")
        assert wall_number_of_edge(graph, ((5, 5, 0), (6, 5, 0))) is None
        # a vertical edge in the square's column but above the window, then
        # the square's east edge
        assert wall_number_of_edge(graph, ((0, 2, 0), (0, 3, 0))) is None
        assert wall_number_of_edge(graph, ((1, 0, 0), (1, 1, 0))) is not None

    @pytest.mark.parametrize(
        "make",
        [build_staircase, lambda params: window_of(build_staircase(params).squares)],
        ids=["built", "squares"],
    )
    def test_contact_graph_drops_the_layout(self, make):
        """Once its contact graph is built a window holds no layout, no wall
        partition and no counts: only its parameters, its squares if made,
        and its runs."""
        window = make(StairParams(4, 2, steps=9))
        contact_graph(window)
        assert set(window.__dict__) <= {"params", "squares", "_runs"}

    def test_dot_export(self):
        """Two squares side by side: w0000 runs through both, w0001 and w0002
        cross it in one square each, and each pair of the three is in contact."""
        graph = contact_graph(window_of([unit_square(0, 0), unit_square(1, 0)]))
        assert contact_graph_dot(graph) == (
            "graph contact {\n"
            '  "w0000";\n  "w0001";\n  "w0002";\n'
            '  "w0000" -- "w0001";\n  "w0000" -- "w0002";\n  "w0001" -- "w0002";\n'
            "}\n"
        )


class TestCertificate:
    def test_crossing_bound_value(self):
        assert StairParams(4, 2, steps=1).crossing_bound == 3

    def test_full_certificate_4_2(self):
        params = StairParams(4, 2, steps=9, margin=1)
        cert = nonacyl_certificate(params, 9)
        assert cert.crossing_bound == 3
        assert float(cert.lower_bound) == 3.0
        assert [d for i, d in cert.family_distances if i < 3] == [2, 2]
        assert cert.bfs_distance == 6  # frozen exact BFS value
        assert cert.bfs_distance >= 3
        assert cert.max_crossing == 3
        assert cert.witness_wall in cert.max_crossing_walls
        assert all(c <= 3 for c in cert.crossing_counts.values())

    def test_margin_independence(self):
        """At (6, 2, 8) no certificate quantity depends on the margin; at
        (3, 2, 6) the window distances do, though the counting bound holds."""
        a = nonacyl_certificate(StairParams(6, 2, steps=8, margin=1), 8)
        b = nonacyl_certificate(StairParams(6, 2, steps=8, margin=3), 8)
        assert a.crossing_bound == b.crossing_bound == 4
        assert a.max_crossing == b.max_crossing
        assert [d for _, d in a.family_distances] == [d for _, d in b.family_distances]
        assert a.bfs_distance == b.bfs_distance
        narrow = nonacyl_certificate(StairParams(3, 2, steps=6, margin=1), 6)
        wide = nonacyl_certificate(StairParams(3, 2, steps=6, margin=2), 6)
        assert [d for _, d in narrow.family_distances] == [2, 2, 3, 4, 5, 6]
        assert [d for _, d in wide.family_distances] == [2, 2, 3, 4, 4, 6]

    @settings(max_examples=40)
    @given(certifiable())
    def test_margin_invariants_sweep(self, shape):
        """crossing_bound, max_crossing and p/M agree across margins, and the
        BFS distance meets p/M at every margin."""
        L, r, steps, p = shape
        certs = [nonacyl_certificate(StairParams(L, r, steps, margin), p) for margin in (1, 2, 4)]
        assert len({(c.crossing_bound, c.max_crossing, c.lower_bound) for c in certs}) == 1
        assert all(c.bfs_distance >= c.lower_bound for c in certs)

    @settings(max_examples=40)
    @given(certifiable())
    def test_family_distances_settle_at_margin_r(self, shape):
        """Window distances never increase with the margin, and margins r,
        r+1 and 2r+L give the same ones."""
        L, r, steps, p = shape
        margins = [*range(1, r + 2), 2 * r + L]
        distances = [
            [d for _, d in nonacyl_certificate(StairParams(L, r, steps, margin), p).family_distances]
            for margin in margins
        ]
        for wider, narrower in pairwise(distances):
            assert all(a >= b for a, b in zip(wider, narrower))
        assert distances[r - 1] == distances[r] == distances[-1]

    @settings(max_examples=60)
    @given(certifiable(), st.integers(1, 4))
    def test_fast_paths_match_oracles(self, shape, margin):
        """Crossing counts from the family side and distances from one BFS
        agree with the wall-by-wall scan and early-exit searches."""
        L, r, steps, p = shape
        params = StairParams(L, r, steps, margin)
        window = build_staircase(params)
        graph = contact_graph(window)
        cert = nonacyl_certificate(params, p, graph=graph)
        assert cert.crossing_counts == crossing_counts_by_scan(graph, cert.family)
        base = cert.family[0]
        assert cert.family_distances == tuple(
            (i, contact_distance_by_search(graph, base, cert.family[i])) for i in range(1, p + 1)
        )
        from_base = contact_distances(graph, base)
        assert from_base == {w: contact_distance_by_search(graph, base, w) for w in graph.walls}

    def test_growing_overlap_grows_bound(self):
        bounds = [
            nonacyl_certificate(StairParams(L, 2, steps=L // 2 + 2, margin=1), 2).crossing_bound
            for L in (4, 8, 12, 16)
        ]
        assert bounds == [3, 5, 7, 9]
        assert bounds == sorted(bounds) and len(set(bounds)) == len(bounds)

    @settings(max_examples=80)
    @given(short_shapes())
    def test_step_guard_is_exact(self, params):
        """check_certifiable's steps >= M - 1 guard rejects exactly the windows
        whose strip family no wall crosses M times, by the wall-by-wall scan."""
        m = params.crossing_bound
        window = build_staircase(params)
        graph = contact_graph(window)
        family = [wall_of_edge(graph, strip_wall_edge(params, i)) for i in range(params.steps + 1)]
        attained = max(crossing_counts_by_scan(graph, family).values(), default=0) == m
        assert attained == (params.steps >= m - 1)
        try:
            check_certifiable(params, 1)
        except InvalidParams:
            assert not attained
        else:
            assert attained

    @settings(max_examples=60)
    @given(stair_shapes())
    def test_family_and_witness_are_the_named_edges_walls(self, params):
        """The family the certificate reads off the build's runs, and its
        witness read off an edge row, are the walls of the strips' westmost
        edges and of the base axis's last overlap edge, located from the
        shape alone."""
        assume(params.steps >= params.crossing_bound - 1)
        graph = contact_graph(build_staircase(params))
        cert = nonacyl_certificate(params, params.steps, graph=graph)
        assert cert.family == tuple(
            wall_of_edge(graph, strip_wall_edge(params, i)) for i in range(params.steps + 1)
        )
        assert cert.witness_wall == wall_of_edge(graph, base_axis_edge(params))

    def test_benchmark_scale_certificate_scans_no_squares(self):
        """Walls, contact graph and certificate of a built window work on
        runs: none of them builds the window's 45,308 squares."""
        params = StairParams(110, 4, 100)
        window = build_staircase(params)
        graph = contact_graph(window)
        nonacyl_certificate(params, 100, graph)
        assert "squares" not in graph.window.__dict__

    @staticmethod
    def assert_heap_peak_below(params, p, mib):
        """Build, contact graph and certificate of params peak below mib MiB
        of traced heap."""
        tracemalloc.start()
        try:
            nonacyl_certificate(params, p, contact_graph(build_staircase(params)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20, f"traced heap peak {peak / 2**20:.2f} MiB"

    def test_benchmark_scale_heap_budget(self):
        """The wide benchmark window peaks below 6 MiB of traced heap: its
        45,308 crossings sit in plain lists, and no hashed set holds an entry
        per crossing."""
        self.assert_heap_peak_below(StairParams(110, 4, 100), 100, 6)

    def test_tall_benchmark_heap_budget(self):
        """The tall benchmark window, 3,364 walls over 841 runs, peaks below
        3 MiB of traced heap: each wall's contacts sit in one plain list, no
        wall holds a hashed set of them, the layout's edge rows and pieces
        are gone before the contact graph fills and the rest of the layout
        once it is built, and the certificate names only the walls it
        reports."""
        self.assert_heap_peak_below(StairParams(3, 2, 420), 420, 3)

    def test_graph_of_another_window_is_rejected(self):
        """A margin-1 graph with margin-2 parameters would certify distances
        [2, 2, 3, 4, 5, 6] where the margin-2 window has [2, 2, 3, 4, 4, 6]."""
        narrow = StairParams(3, 2, steps=6, margin=1)
        graph = contact_graph(build_staircase(narrow))
        cert = nonacyl_certificate(narrow, 6, graph=graph)
        assert [d for _, d in cert.family_distances] == [2, 2, 3, 4, 5, 6]
        with pytest.raises(InvalidParams, match="margin=1"):
            nonacyl_certificate(StairParams(3, 2, steps=6, margin=2), 6, graph=graph)
        with pytest.raises(InvalidParams):
            nonacyl_certificate(narrow, 6, graph=contact_graph(window_of([unit_square(0, 0)])))

    @pytest.mark.parametrize("p", [True, 2.0], ids=["bool", "float"])
    def test_p_must_be_an_int(self, p):
        """A bool p would print as true in the certificate's JSON, and a float
        one would reach range."""
        with pytest.raises(InvalidParams, match="p must be an integer"):
            nonacyl_certificate(StairParams(4, 2, steps=3, margin=1), p)

    def test_p_beyond_steps(self):
        with pytest.raises(InvalidParams):
            nonacyl_certificate(StairParams(4, 2, steps=3, margin=1), 4)

    def test_steps_too_small_for_bound(self):
        # crossing bound 11 cannot be attained with one strip pair
        with pytest.raises(InvalidParams):
            nonacyl_certificate(StairParams(overlap_len=10, shift=1, steps=1, margin=1), 1)

    def test_certificate_serializes(self):
        cert = nonacyl_certificate(StairParams(4, 2, steps=9, margin=1), 9)
        blob = json.dumps(cert.to_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["crossing_bound"] == 3
        assert back["lower_bound"]["value"] == 3.0

    def test_determinism(self):
        a = nonacyl_certificate(StairParams(10, 3, steps=15, margin=1), 15)
        b = nonacyl_certificate(StairParams(10, 3, steps=15, margin=1), 15)
        assert a.to_dict() == b.to_dict()


#: SHA-256 of the certificate JSON and of the contact-graph DOT text.  The
#: first four were frozen from the tuple-keyed implementation, the last three
#: (the benchmark's largest wide and tall jobs and a wide one at r = 6) from
#: the per-cell one that the run engine replaced.
PINNED_DIGESTS = {
    (10, 3, 15, 15, 1): (
        "c98308b6cc50a5fa8808f3400db4ef39985fe4d4f057862208159beb4199ee7c",
        "d552b31248083a471f767ebc6eae97549bcaf50157cdbece8b2de4b2ebc0fdd0",
    ),
    (10, 3, 15, 15, 2): (
        "3ac10f4c2addcb5eb0022459ca566a4f9e996a91c43ad863a9cdbb58a352de7c",
        "c37a10308c21d8832e5908f68207fa8bc0710a80fb400db6a15c94c32aab86b3",
    ),
    (3, 2, 6, 6, 1): (
        "1166e0f7d151d46c1cc0f4100ade42a52e2233000e23c841caff269c4025222b",
        "6092a57970a855a4ed840c34c777351bbec55b244a7c1b6828ada0d8b43d8fd4",
    ),
    (3, 2, 6, 6, 2): (
        "48837169e306090267c11dedeab132ba87510fbc9fc77b7118b00945a25219ac",
        "4441d3f3f684d46e2d6c0c0bfd8b71969e67df1b140980b783ec745ed075ff13",
    ),
    (110, 4, 100, 100, 1): (
        "8891850dd2f3687f90880b36b1cd3c9db26af579e2251faff3a149d351780b14",
        "d14db250315066ed645b93e9e8e47d592bced924b085d5c68c1d0643491b8829",
    ),
    (90, 6, 100, 100, 1): (
        "24caac281a76558414fdf77376f3f791ca5ea4242c0f25a725e108afabefa1bd",
        "b550ab13248d199961f3a1ec49a0605442dda4b031488bb6b4484af8a91508b1",
    ),
    (3, 2, 420, 420, 1): (
        "5b950b2cd24e4e20178bb33d32c4ef049207dfbc5b2125d211d911d6dd14f3a6",
        "2acc9dd2855596c07706222f6aab9bf8e9a7af50104d2c5c6c3fcf7021c8fd97",
    ),
}


@pytest.mark.parametrize("shape", sorted(PINNED_DIGESTS), ids=lambda s: "-".join(map(str, s)))
def test_pinned_artifact_digests(shape):
    L, r, steps, p, margin = shape
    params = StairParams(L, r, steps, margin)
    window = build_staircase(params)
    graph = contact_graph(window)
    cert = nonacyl_certificate(params, p, graph=graph)
    blob = json.dumps(cert.to_dict(), sort_keys=True)
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest() for text in (blob, contact_graph_dot(graph))
    )
    assert digests == PINNED_DIGESTS[shape]
