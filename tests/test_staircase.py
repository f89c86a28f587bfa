"""Staircase windows, walls, contact graphs, and certificates."""

import hashlib
import json
from itertools import pairwise

import pytest
from hypothesis import given, settings, strategies as st

from cscwalls.errors import CscwallsError, InvalidParams, UnknownWall
from cscwalls.staircase import (
    ContactGraph,
    CubeWindow,
    StairParams,
    WindowSquare,
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
    contact_graph_by_tuples,
    contact_graph_dot_by_names,
    counts_by_tuples,
    crossing_counts_by_scan,
    edges_by_tuples,
    unit_square,
    validate_by_tuples,
    vertices_by_tuples,
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


#: Unit squares on a 5x5 grid, bottom corners tagged at random; repeats allowed.
unit_square_lists = st.lists(
    st.builds(unit_square, st.integers(0, 4), st.integers(0, 4), st.integers(0, 1), st.integers(0, 1)),
    min_size=1,
    max_size=12,
)


@st.composite
def run_rows(draw):
    """Unit squares laid out as rows: up to 6 rows of 1-15 squares at heights
    0..5, each with its own bottom tags (and, now and then, top tags) switching
    along the row.  Rows may overlap, and a row may repeat an earlier one;
    the squares come row by row or shuffled."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if rows and draw(st.integers(0, 3)) == 0:
            rows.append(draw(st.sampled_from(rows)))
            continue
        width = draw(st.integers(1, 15))
        tags = st.lists(st.integers(0, 1), min_size=width + 1, max_size=width + 1)
        bottom = draw(tags)
        top = draw(tags) if draw(st.integers(0, 3)) == 0 else [0] * (width + 1)
        rows.append((draw(st.integers(-3, 8)), draw(st.integers(0, 5)), bottom, top))
    squares = [
        WindowSquare((c, y, bottom[i]), (c + 1, y, bottom[i + 1]), (c, y + 1, top[i]), (c + 1, y + 1, top[i + 1]))
        for x, y, bottom, top in rows
        for i, c in enumerate(range(x, x + len(bottom) - 1))
    ]
    return draw(st.permutations(squares)) if draw(st.booleans()) else squares


def dual_edges(window):
    """The dual edges of each wall, by wall number, as vertex-tuple pairs:
    the oracle's edges grouped by the engine's per-edge wall lookup."""
    members = [set() for _ in walls(window)]
    for edge in edges_by_tuples(window.squares):
        members[window._wall_of_edge(edge)].add(edge)
    return list(map(frozenset, members))


def wall_of_edge(graph, edge):
    """The id of the wall dual to an edge given as its vertex tuples."""
    return graph.walls[graph.window._wall_of_edge(edge)]


def assert_graph_matches_oracle(window):
    """Walls and contact graph of the run engine equal the tuple-keyed oracle."""
    graph = contact_graph(window)
    oracle = contact_graph_by_tuples(window)
    assert graph.walls == walls(window) == [w.id for w in oracle.walls]
    assert dual_edges(window) == [w.dual_edges for w in oracle.walls]
    assert graph.neighbors == oracle.neighbors
    assert graph.crossings == oracle.crossings
    assert contact_graph_dot(graph) == contact_graph_dot_by_names(oracle)


def assert_walls_match_oracle(window):
    """A window that fails the link condition, by the tuple oracle's scan, has
    no walls: validate, walls and contact_graph raise the oracle's message.
    Any other window, annulus and disconnected ones included, matches the
    oracle."""
    try:
        validate_by_tuples(window.squares)
        message = ""
    except CscwallsError as exc:
        message = str(exc)
    if not message.startswith("link condition fails"):
        assert_graph_matches_oracle(window)
        return
    for check in (CubeWindow.validate, walls, contact_graph):
        with pytest.raises(CscwallsError) as err:
            check(window)
        assert str(err.value) == message


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


class TestGoldenWindow:
    """Hand-enumerated smallest staircase: L=2, r=1, one level, margin 1.

    Two strips of 4 squares and one 4x3 flat; the upper strip hangs beyond
    the overlap [0, 2] at both ends, detaching 2 of its bottom vertices.
    """

    def test_counts(self):
        w = build_staircase(StairParams(2, 1, steps=1, margin=1))
        assert w.counts() == {"vertices": 32, "edges": 51, "squares": 20}
        assert w.euler_characteristic() == 1

    def test_detached_vertices(self):
        w = build_staircase(StairParams(2, 1, steps=1, margin=1))
        tagged = sorted(v for v in vertices_by_tuples(w.squares) if v[2] == 1)
        # strip 0's whole bottom row is free; strip 1 detaches x=-1 and x=3
        assert tagged == [(-1, 0, 1), (-1, 4, 1), (0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1), (3, 4, 1)]


class TestWindowValidation:
    def test_medium_window_validates(self):
        w = build_staircase(StairParams(4, 2, steps=4, margin=2))
        assert w.validate()["squares"] == len(w.squares)

    def test_link_condition_scan_catches_doubled_square(self):
        sq = unit_square(0, 0)
        window = CubeWindow([sq, unit_square(0, 0)])
        with pytest.raises(CscwallsError) as err:
            window.validate()
        assert str(err.value) == "link condition fails at (0, 0, 0): quadrant NE held by squares 0 and 1"

    @settings(max_examples=300)
    @given(unit_square_lists)
    def test_validation_matches_tuple_oracle(self, squares):
        """Same verdict and same message as the scan on vertex tuples, for any
        set of unit squares: the link check on integer corner lists names its
        failure through the square-by-square scan."""
        try:
            expected = validate_by_tuples(squares)
        except CscwallsError as exc:
            with pytest.raises(CscwallsError) as err:
                CubeWindow(squares).validate()
            assert str(err.value) == str(exc)
        else:
            assert CubeWindow(squares).validate() == expected

    @settings(max_examples=200)
    @given(run_rows())
    def test_run_rows_match_tuple_oracles(self, squares):
        """Long rows with tag switches, overlapping and repeated: the counts
        and the verdict with its message equal the tuple oracles', valid
        window or not, and so do the walls and the contact graph wherever the
        link condition holds."""
        window = CubeWindow(squares)
        assert window.counts() == counts_by_tuples(squares)
        try:
            expected = validate_by_tuples(squares)
        except CscwallsError as exc:
            with pytest.raises(CscwallsError) as err:
                window.validate()
            assert str(err.value) == str(exc)
        else:
            assert window.validate() == expected
        assert_walls_match_oracle(window)

    @pytest.mark.parametrize(
        "square",
        [
            ((0, 0, 0), (2, 0, 0), (0, 1, 0), (2, 1, 0)),  # two columns wide
            ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)),  # corners out of order
            ((0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 2, 0)),  # two rows high
            ((0.5, 0, 0), (1.5, 0, 0), (0.5, 1, 0), (1.5, 1, 0)),  # not on the integer grid
            ((0, 0, 0), (1, 0, 0), (0, 1, 0)),  # three corners
            ((0, 0), (1, 0), (0, 1), (1, 1)),  # corners without tags
        ],
    )
    def test_non_unit_square_is_rejected(self, square):
        with pytest.raises(CscwallsError) as err:
            CubeWindow([unit_square(0, 0), square])
        assert str(err.value) == f"square 1 is not a unit square: {square!r}"

    def test_benchmark_scale_counts(self):
        window = build_staircase(StairParams(110, 4, 100))
        assert window.counts() == {"vertices": 46418, "edges": 91725, "squares": 45308}
        assert len(walls(window)) == 1109

    @settings(max_examples=40)
    @given(stair_shapes())
    def test_staircases_validate_like_tuple_oracle(self, params):
        window = build_staircase(params)
        assert validate_by_tuples(window.squares) == window.validate() == window.counts()

    def test_annulus_is_not_contractible(self):
        window = CubeWindow(_annulus())
        assert window.euler_characteristic() == 0
        with pytest.raises(CscwallsError, match="not contractible"):
            window.validate()

    def test_annulus_and_far_square_is_not_connected(self):
        """Euler number 1, so only the connectivity check catches it."""
        window = CubeWindow(_annulus() + [unit_square(10, 10)])
        assert window.euler_characteristic() == 1
        with pytest.raises(CscwallsError, match="not connected"):
            window.validate()

    def test_determinism(self):
        a = build_staircase(StairParams(6, 2, steps=5, margin=2))
        b = build_staircase(StairParams(6, 2, steps=5, margin=2))
        assert a.squares == b.squares and dual_edges(a) == dual_edges(b)


class TestWalls:
    def test_single_square(self):
        window = CubeWindow([unit_square(0, 0)])
        assert walls(window) == ["w0000", "w0001"]
        assert [len(edges) for edges in dual_edges(window)] == [2, 2]

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_strip_of_squares(self, k):
        """A 1xk strip: k vertical walls of 2 edges and 1 horizontal wall of
        k+1 edges (at k=1 this is the single-square count)."""
        window = CubeWindow([unit_square(x, 0) for x in range(k)])
        assert len(walls(window)) == k + 1
        assert sorted(map(len, dual_edges(window))) == [2] * k + [k + 1]

    def test_partition(self):
        window = build_staircase(StairParams(4, 2, steps=3, margin=1))
        union = set()
        total = 0
        for edges in dual_edges(window):
            total += len(edges)
            union.update(edges)
        edges = edges_by_tuples(window.squares)
        assert union == edges and total == len(edges)

    def test_strip_walls_distinct_and_eventually_non_adjacent(self):
        params = StairParams(4, 2, steps=3, margin=1)
        window = build_staircase(params)
        graph = contact_graph(window)
        m = params.crossing_bound
        family = [wall_of_edge(graph, window.strip_wall_edge(i)) for i in range(4)]
        assert len(set(family)) == 4
        for i in range(4):
            for k in range(4):
                if abs(i - k) >= m:
                    assert family[k] not in graph.neighbors[family[i]]

    @settings(max_examples=60)
    @given(stair_shapes())
    def test_staircases_match_tuple_oracle(self, params):
        assert_graph_matches_oracle(build_staircase(params))

    @settings(max_examples=150)
    @given(unit_square_lists)
    def test_unit_square_sets_match_tuple_oracle(self, squares):
        """Any set of unit squares, tagged bottoms and repeats included, and
        not validated: the window need not be a staircase, contractible or
        connected, and without the link condition it has no walls."""
        assert_walls_match_oracle(CubeWindow(squares))

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


class TestContactGraph:
    def test_crossing_walls_of_one_square(self):
        window = CubeWindow([unit_square(0, 0)])
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
        base = wall_of_edge(graph, window.strip_wall_edge(0))
        for i in (1, 2):
            other = wall_of_edge(graph, window.strip_wall_edge(i))
            assert contact_distance(graph, base, other) == 2

    def test_distance_at_twelve_steps(self):
        params = StairParams(4, 2, steps=12, margin=1)
        window = build_staircase(params)
        graph = contact_graph(window)
        base = wall_of_edge(graph, window.strip_wall_edge(0))
        top = wall_of_edge(graph, window.strip_wall_edge(12))
        d = contact_distance(graph, base, top)
        assert d >= 12 / 3
        assert d == 8  # frozen exact BFS value for this window

    def test_disconnected_graph(self):
        graph = contact_graph(CubeWindow([unit_square(0, 0), unit_square(5, 0)]))
        near, far = graph.walls[0], graph.walls[-1]
        with pytest.raises(CscwallsError, match="disconnected"):
            contact_distance(graph, near, far)
        with pytest.raises(CscwallsError, match="disconnected"):
            contact_distances(graph, near)

    def test_unknown_wall(self):
        window = CubeWindow([unit_square(0, 0)])
        graph = contact_graph(window)
        with pytest.raises(UnknownWall):
            contact_distance(graph, "w9999", graph.walls[0])
        with pytest.raises(UnknownWall):
            contact_distance(graph, graph.walls[0], "w9999")
        with pytest.raises(UnknownWall):
            contact_distances(graph, "w9999")
        assert window._wall_of_edge(((5, 5, 0), (6, 5, 0))) is None
        # a vertical edge in the square's column but above the window, then
        # the square's east edge
        assert window._wall_of_edge(((0, 2, 0), (0, 3, 0))) is None
        assert window._wall_of_edge(((1, 0, 0), (1, 1, 0))) is not None

    def test_dot_export(self):
        """Two squares side by side: w0000 runs through both, w0001 and w0002
        cross it in one square each, and each pair of the three is in contact."""
        graph = contact_graph(CubeWindow([unit_square(0, 0), unit_square(1, 0)]))
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
        family = [wall_of_edge(graph, window.strip_wall_edge(i)) for i in range(params.steps + 1)]
        attained = max(crossing_counts_by_scan(graph, family).values(), default=0) == m
        assert attained == (params.steps >= m - 1)
        try:
            check_certifiable(params, 1)
        except InvalidParams:
            assert not attained
        else:
            assert attained

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
            nonacyl_certificate(narrow, 6, graph=contact_graph(CubeWindow([unit_square(0, 0)])))

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
