"""Finite staircase windows, wall partitions, contact graphs, certificates.

The window is an abstract square complex assembled from horizontal strips
alternating with 3-row flat blocks, each flat shifted right by the step
depth relative to the one below.  Strips model edge spaces glued along
periodic geodesics; a strip is glued to the flat *above* it along their
full common extent (its upper geodesic is the axis of that flat) but to
the flat *below* it only along the overlap segment of length L where its
lower geodesic runs inside that flat.  Beyond the overlap the strip's
bottom vertices carry a branch tag, keeping them distinct from same-
coordinate flat vertices: that finite branching is what stops vertical
walls after ceil(L/r)+1 strips.  It makes the crossing bound, the maximum
crossing count and the counting bound p/(ceil(L/r)+1) independent of the
margin, and the BFS distance of the p-th translate is at least that bound at
every margin.  The BFS distances themselves are window distances and can
depend on the margin.

Coordinates are deterministic functions of the parameters, so identical
parameters give byte-identical windows, walls and certificates.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain, count, islice, pairwise
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import CscwallsError, InvalidParams, UnknownWall

if TYPE_CHECKING:
    from fractions import Fraction

#: Rows of squares per flat block, as drawn between consecutive strips.
FLAT_ROWS = 3

_LEVEL_PITCH = FLAT_ROWS + 1  # one strip row plus one flat block per level


@dataclass(frozen=True)
class StairParams:
    """Staircase shape: overlap length L, step depth r, level count, margin.

    steps is the number of flat levels; strips are indexed 0..steps, so the
    wall family has steps+1 members.  margin is extra flat width beyond the
    overlap on each side; crossing_bound, the certificate's max_crossing and
    lower_bound do not depend on it, but its BFS distances can.
    """

    overlap_len: int
    shift: int
    steps: int
    margin: int = 1

    def __post_init__(self):
        if self.shift <= 0:
            raise InvalidParams("shift must be positive")
        if self.shift > self.overlap_len:
            raise InvalidParams(
                f"shift {self.shift} exceeds overlap length {self.overlap_len}: not a staircase"
            )
        if self.steps < 1:
            raise InvalidParams("need at least one level")
        if self.margin < 1:
            raise InvalidParams("margin must be at least 1")

    @property
    def crossing_bound(self):
        """ceil(L/r) + 1: the exact maximum number of strip walls any one wall crosses."""
        return -(-self.overlap_len // self.shift) + 1

    def to_dict(self):
        return asdict(self)


# A window is carried as row runs.  A run (y, a, b, bottom, top) is a row of
# unit squares at height y, one per column x = a .. b-1, each sharing its
# vertical sides with its neighbours; bottom and top are its two vertex rows
# as tuples of constant-tag segments (x0, x1, tag) covering a .. b.  Vertices
# are (x, y, tag) triples: tag 0 on the main sheet, tag 1 on a strip bottom
# hanging beyond the overlap with the flat below.  build_staircase emits its
# bands directly as runs; CubeWindow(squares) groups the squares it is given.
#
# Everything runs on runs, segments and per-row intervals (_layout):
#   - counts, the link condition and connectivity from the overlaps of the
#     segments in each vertex row (y, tag); the horizontal edges of a row are
#     its edge rows (y, tag, tag) and the edges between segments of two tags;
#   - horizontal walls: one per run, merged where runs share a vertical side;
#   - vertical walls: each edge row holds one label per column; the rows are
#     swept bottom-up, and each run's column pieces copy the labels of their
#     bottom edges onto their top edges as list slices (_walls); walls need
#     the link condition, under which each label is one wall;
#   - walls are numbered by the tuple of their least edge, so numbers follow
#     the order of edge tuples; a wall's one name is w0000, w0001, ...
#   - crossings are kept once, as the vertical walls each horizontal wall
#     crosses, read off each piece's labels; contacts add the pairs of walls
#     that meet at a vertex without crossing (ContactGraph).
# A window holds no vertex or edge tuples.  Its squares are the tuple it was
# given, or one built from its runs on first use; ContactGraph.neighbors and
# .crossings, keyed by wall id, are also built on first use.


class WindowSquare(NamedTuple):
    """A square by its four corner vertices."""

    sw: tuple
    se: tuple
    nw: tuple
    ne: tuple


def _edge(a, b):
    return (a, b) if a <= b else (b, a)


def _least_members(n, xs, ys):
    """For each of 0..n-1, the least element of its class once every pair
    (xs[k], ys[k]) is merged: union-find on a list, the smaller root always
    kept, with path halving."""
    parent = list(range(n))
    for a, b in zip(xs, ys):
        while a != parent[a]:
            parent[a] = a = parent[parent[a]]
        while b != parent[b]:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # parent[e] <= e throughout, so one ascending pass finishes every path
    for e in range(n):
        parent[e] = parent[parent[e]]
    return parent


def _sweep(spans):
    """Sort the inclusive ranges (lo, hi, ...) in spans by lo; return how many
    integers they cover together, in how many separate stretches, and the
    pairs of ranges that share an integer."""
    spans.sort(key=itemgetter(0))
    covered = stretches = 0
    end = None
    pairs = []
    for i, first in enumerate(spans):
        lo, hi = first[0], first[1]
        if end is None or lo > end:
            covered += hi - lo + 1
            stretches += 1
            end = hi
        elif hi > end:
            covered += hi - end
            end = hi
        for second in spans[i + 1:]:
            if second[0] > hi:
                break
            pairs.append((first, second))
    return covered, stretches, pairs


def _segments(a, tags):
    """The maximal constant-tag segments (x0, x1, tag) of tags at x = a, a+1, ..."""
    out = []
    x0 = a
    for x, (t, u) in enumerate(pairwise(tags), a):
        if t != u:
            out.append((x0, x, t))
            x0 = x + 1
    out.append((x0, a + len(tags) - 1, tags[-1]))
    return tuple(out)


def _tags(segments):
    """The tag of each vertex x0, x0+1, ... of a run's row of segments."""
    return [t for x0, x1, t in segments for _ in range(x1 - x0 + 1)]


def _unit_square(i, square):
    """square as a WindowSquare; CscwallsError unless its corners are
    (x, y, .), (x+1, y, .), (x, y+1, .) and (x+1, y+1, .) for integers x, y."""
    try:
        sq = WindowSquare(*square)
        (x, y, _), (x1, y1, _), (x2, y2, _), (x3, y3, _) = sq
        unit = isinstance(x, int) and isinstance(y, int)
        unit = unit and (x1, y1, x2, y2, x3, y3) == (x + 1, y, x, y + 1, x + 1, y + 1)
    except (TypeError, ValueError):
        unit = False
    if not unit:
        raise CscwallsError(f"square {i} is not a unit square: {square!r}")
    return sq


def _runs_of(squares):
    """Runs holding the given unit squares: sorted by row and column, each
    square extends the run before it when it continues that run's row."""
    runs = []
    y = b = None
    for (x, row, sw), (_, _, se), (_, _, nw), (_, _, ne) in sorted(squares, key=_row_major):
        if row == y and x == b and sw == bottom[-1] and nw == top[-1]:
            bottom.append(se)
            top.append(ne)
            b += 1
            continue
        if y is not None:
            runs.append((y, a, b, _segments(a, bottom), _segments(a, top)))
        y, a, b, bottom, top = row, x, x + 1, [sw, se], [nw, ne]
    if y is not None:
        runs.append((y, a, b, _segments(a, bottom), _segments(a, top)))
    return runs


def _row_major(sq):
    return sq.sw[1], sq.sw[0], sq.sw[2], sq.nw[2], sq.se[2], sq.ne[2]


def _squares_of(runs):
    for y, a, b, bottom, top in runs:
        tb, tt = _tags(bottom), _tags(top)
        for i, x in enumerate(range(a, b)):
            sw, se, nw, ne = tb[i], tb[i + 1], tt[i], tt[i + 1]
            yield WindowSquare((x, y, sw), (x + 1, y, se), (x, y + 1, nw), (x + 1, y + 1, ne))


_QUADRANTS = ("NE", "NW", "SE", "SW")  # the quadrant each corner sw, se, nw, ne fills


class _Layout(NamedTuple):
    """A window's cells as intervals per row, read off its runs."""

    vertex_rows: dict  # (y, tag) -> [(x0, x1, run, side, tag at x0-1, tag at x1+1)]; side 0 bottom, 1 top
    edge_rows: dict  # (y, tag, tag) -> (first, last) column of the horizontal edges in that row
    vertical_rows: dict  # (y, bottom tag, top tag) -> [(x0, x1, run)]: vertical edges at x0..x1
    pieces: list  # per run, [(c0, c1, bottom edge row, top edge row)] over columns c0 .. c1-1
    touching: list  # (run, run): pairs of runs that share a vertex
    shared_sides: list  # (run, run): pairs of runs that share a vertical edge
    corners: set  # ((y, tag), x): vertices whose walls are not all paired by the rules in ContactGraph
    counts: dict
    link_holds: bool
    connected: bool


def _layout(runs):
    vertex_rows, vertical_rows = defaultdict(list), defaultdict(list)
    switches = set()  # (y, tag, tag, column) of each horizontal edge whose ends have different tags
    pieces = []
    for k, (y, a, b, bottom, top) in enumerate(runs):
        for side, segments in ((0, bottom), (1, top)):
            before = None
            for i, (x0, x1, t) in enumerate(segments, 1):
                after = segments[i][2] if i < len(segments) else None
                if after is not None:
                    switches.add((y + side, t, after, x1))
                vertex_rows[y + side, t].append((x0, x1, k, side, before, after))
                before = t
        # vertex ranges of constant (bottom tag, top tag); the columns inside
        # one are a piece, and so is each column between two of them
        own = []
        i = j = 0
        x = a
        while True:
            s1, tb = bottom[i][1:]
            u1, tt = top[j][1:]
            e = s1 if s1 < u1 else u1
            vertical_rows[y, tb, tt].append((x, e, k))
            if x > a:
                own.append((x - 1, x, (y, pb, tb), (y + 1, pt, tt)))
            if e > x:
                own.append((x, e, (y, tb, tb), (y + 1, tt, tt)))
            if e == b:
                break
            i += e == s1
            j += e == u1
            x, pb, pt = e + 1, tb, tt
        pieces.append(own)

    # per vertex row: its vertices, its edges with both ends in the row's tag
    # (each stretch of overlapping segments has one fewer than vertices), the
    # runs sharing a vertex, and two segments on one side holding a square in
    # the same quadrant of some vertex
    touching, corners = [], set()
    edge_rows = {}
    link_holds = True
    n_vertices = n_edges = 0
    for (y, t), entries in vertex_rows.items():
        if len(entries) == 1:
            x0, x1 = entries[0][:2]
            covered, stretches, pairs = x1 - x0 + 1, 1, ()
            lo, hi = x0, x1
        else:
            covered, stretches, pairs = _sweep(entries)
            lo, hi = entries[0][0], max(map(itemgetter(1), entries))
        n_vertices += covered
        n_edges += covered - stretches
        if hi > lo:
            edge_rows[y, t, t] = (lo, hi - 1)
        # Crossings, runs sharing a vertex and neighbouring edges of one edge
        # row pair up the walls at a vertex, unless a segment has two edges
        # there not both in tag t (at an end next to a segment of another
        # tag), or two segments have different edges there (at an end of
        # their overlap).
        for x0, x1, _, _, before, after in entries:
            if before is not None and (x0 < x1 or after is not None):
                corners.add(((y, t), x0))
            if after is not None and (x0 < x1 or before is not None):
                corners.add(((y, t), x1))
        for e, f in pairs:
            touching.append((e[2], f[2]))
            if link_holds and e[3] == f[3] and _corners_meet(runs, e, f):
                link_holds = False
            if e[:2] != f[:2] or e[4:] != f[4:]:
                for x in (f[0], min(e[1], f[1])):
                    if _edges_at(e, t, x) != _edges_at(f, t, x):
                        corners.add(((y, t), x))
    for y, t1, t2, c in switches:
        lo, hi = edge_rows.get((y, t1, t2), (c, c))
        edge_rows[y, t1, t2] = (min(lo, c), max(hi, c))
    n_edges += len(switches)

    shared = []
    for spans in vertical_rows.values():
        if len(spans) == 1:
            n_edges += spans[0][1] - spans[0][0] + 1
        else:
            covered, _, pairs = _sweep(spans)
            n_edges += covered
            shared.extend((e[2], f[2]) for e, f in pairs)

    n = len(runs)
    classes = _least_members(n, [j for j, _ in touching], [k for _, k in touching])
    counts = {"vertices": n_vertices, "edges": n_edges, "squares": sum(b - a for _, a, b, _, _ in runs)}
    return _Layout(
        vertex_rows, edge_rows, vertical_rows, pieces, touching, shared, corners, counts,
        link_holds, not any(classes),
    )


def _edges_at(e, t, x):
    """The tags of the edges west and east of vertex x that the segment e of
    a vertex row in tag t has there, None where it has none."""
    return t if x > e[0] else e[4], t if x < e[1] else e[5]


def _corners_meet(runs, e, f):
    """Whether two overlapping segments on one side of a vertex row put a
    square in the same quadrant of a common vertex x: a run has a square east
    of x when x < b, and west of x when x > a."""
    (a1, b1), (a2, b2) = runs[e[2]][1:3], runs[f[2]][1:3]
    lo, hi = max(e[0], f[0]), min(e[1], f[1])
    return lo <= min(hi, b1 - 1, b2 - 1) or max(lo, a1 + 1, a2 + 1) <= hi


class _Walls(NamedTuple):
    """A window's wall partition, on numbers."""

    count: int
    labels: dict  # edge row (y, tag, tag) -> (c0, [label of the edge at column c0, c0+1, ...; -1 if none])
    vertical: list  # label -> wall number
    horizontal: list  # run -> wall number


def _walls(runs, layout):
    """Horizontal walls merge runs that share a vertical edge.  Vertical walls
    are labels: rows are swept bottom-up, a piece takes the labels of its
    bottom edges (fresh ones where there are none yet) and copies them onto
    its top edges.  The window must satisfy the link condition: then no other
    square lies below those top edges, so no two labels meet and each label
    is one wall, whose least edge is the one it was born at."""
    # one more -1 past the last column, so that no two rows chained end to end
    # make neighbours of their edges
    labels = {key: (lo, [-1] * (hi - lo + 2)) for key, (lo, hi) in layout.edge_rows.items()}
    keys = {}  # wall -> its least edge; a label's is the edge it was born at
    for k in sorted(range(len(runs)), key=lambda k: runs[k][0]):
        for c0, c1, kb, kt in layout.pieces[k]:
            lo, row = labels[kb]
            own = row[c0 - lo:c1 - lo]
            if -1 in own:
                y, t1, t2 = kb
                for i, label in enumerate(own):
                    if label < 0:
                        own[i] = n = len(keys)
                        keys[n] = ((c0 + i, y, t1), (c0 + i + 1, y, t2))
                row[c0 - lo:c1 - lo] = own
            lo, row = labels[kt]
            row[c0 - lo:c1 - lo] = own

    # a wall is a label, or n + the least run of a class of runs
    n = len(keys)
    shared = layout.shared_sides
    run_root = _least_members(len(runs), [j for j, _ in shared], [k for _, k in shared])
    for k, (y, a, _, bottom, top) in enumerate(runs):
        first = ((a, y, bottom[0][2]), (a, y + 1, top[0][2]))
        i = n + run_root[k]
        if i not in keys or first < keys[i]:
            keys[i] = first
    number = dict(zip(sorted(keys, key=keys.__getitem__), range(len(keys))))
    return _Walls(len(keys), labels, [number[i] for i in range(n)], [number[n + r] for r in run_root])


class CubeWindow:
    """A finite square complex of unit squares, carried as row runs.

    CubeWindow(squares) takes any unit squares (see _unit_square) and groups
    them into runs; build_staircase makes its runs directly.  squares is the
    tuple given, or for a built window one made run by run on first use.
    Counts, validate and euler_characteristic take any window; its walls, and
    so its contact graph, need the link condition and raise validate's error
    without it.
    """

    def __init__(self, squares, params=None):
        squares = tuple(map(_unit_square, count(), squares))
        self._init(params, _runs_of(squares))
        self.squares = squares

    @classmethod
    def _from_runs(cls, params, runs):
        window = cls.__new__(cls)
        window._init(params, runs)
        return window

    def _init(self, params, runs):
        self.params = params
        self._runs = runs

    @cached_property
    def _layout(self):
        return _layout(self._runs)

    @cached_property
    def _walls(self):
        if not self._layout.link_holds:
            self._link_failure()
        return _walls(self._runs, self._layout)

    @cached_property
    def squares(self):
        return tuple(_squares_of(self._runs))

    def counts(self):
        return dict(self._layout.counts)

    def euler_characteristic(self):
        c = self._layout.counts
        return c["vertices"] - c["edges"] + c["squares"]

    def validate(self):
        """Link condition: each quadrant of each vertex holds at most one square.

        Also checks the window is connected and contractible (Euler number 1),
        so it embeds in a CAT(0) square complex.  Raises CscwallsError on any
        failure; returns the count summary.
        """
        layout = self._layout
        if not layout.link_holds:
            self._link_failure()
        if self.euler_characteristic() != 1:
            raise CscwallsError(
                f"window is not contractible: Euler characteristic {self.euler_characteristic()}"
            )
        if not layout.connected:
            raise CscwallsError("window is not connected")
        return self.counts()

    def _link_failure(self):
        """Raise for the first corner, in square order, whose quadrant an
        earlier square already holds."""
        holder = {}
        for i, square in enumerate(self.squares):
            for q, vertex in zip(_QUADRANTS, square):
                if (vertex, q) in holder:
                    raise CscwallsError(
                        f"link condition fails at {vertex}: quadrant {q} "
                        f"held by squares {holder[vertex, q]} and {i}"
                    )
                holder[vertex, q] = i
        raise AssertionError("the corner intervals overlap but no quadrant is held twice")

    def _wall_of_edge(self, edge):
        """The wall number of an edge given as its (lesser, greater) vertex
        tuples, from its edge row or its run; None if the window has no such edge."""
        (x, y, t), (x2, y2, t2) = edge
        walls = self._walls
        if (x2, y2) == (x + 1, y):
            lo, row = walls.labels.get((y, t, t2), (0, ()))
            if 0 <= x - lo < len(row) and row[x - lo] >= 0:
                return walls.vertical[row[x - lo]]
        elif (x2, y2) == (x, y + 1):
            for x0, x1, k in self._layout.vertical_rows.get((y, t, t2), ()):
                if x0 <= x <= x1:
                    return walls.horizontal[k]
        return None

    # -- named cells of the staircase ------------------------------------

    def strip_wall_edge(self, i):
        """A vertical edge surely dual to strip i's wall: its westmost one."""
        p = self.params
        lo, _ = _strip_span(p, i)
        y = _LEVEL_PITCH * i  # the row of strip i's squares
        return _edge((lo, y, _strip_bottom_tag(p, i, lo)), (lo, y + 1, 0))

    def last_projection_edge(self):
        """The easternmost edge of the level-0 overlap segment, on the base axis."""
        p = self.params
        return _edge((p.overlap_len - 1, 1, 0), (p.overlap_len, 1, 0))


def _flat_span(params, i):
    """Vertex x-range [lo, hi] of flat level i."""
    lo = i * params.shift - params.margin
    return lo, lo + params.overlap_len + 2 * params.margin


def _strip_span(params, i):
    """Vertex x-range of strip i: the full width of both adjacent levels."""
    if i == 0:
        return _flat_span(params, 0)
    if i == params.steps:
        return _flat_span(params, params.steps - 1)
    return _flat_span(params, i - 1)[0], _flat_span(params, i)[1]


def _overlap_span(params, i):
    """x-range [a, b] where strip i >= 1 is glued to the flat below it."""
    a = (i - 1) * params.shift
    return a, a + params.overlap_len


def _strip_bottom_tag(params, i, x):
    """0 where strip i's bottom is glued to the flat below (the overlap), else 1."""
    if i >= 1:
        a, b = _overlap_span(params, i)
        if a <= x <= b:
            return 0
    return 1


def build_staircase(params):
    """Assemble and validate the staircase window for the given parameters:
    strips 0..steps, then each flat's rows, each one run.  A strip's bottom
    is tagged 1 outside its overlap with the flat below (all of strip 0's)."""
    runs = []
    for i in range(params.steps + 1):
        lo, hi = _strip_span(params, i)
        if i:
            a, b = _overlap_span(params, i)  # lo < a and b < hi: the flats reach margin >= 1 beyond
            bottom = ((lo, a - 1, 1), (a, b, 0), (b + 1, hi, 1))
        else:
            bottom = ((lo, hi, 1),)
        runs.append((_LEVEL_PITCH * i, lo, hi, bottom, ((lo, hi, 0),)))
    for i in range(params.steps):
        lo, hi = _flat_span(params, i)
        row = ((lo, hi, 0),)
        base = _LEVEL_PITCH * i + 1
        runs.extend((y, lo, hi, row, row) for y in range(base, base + FLAT_ROWS))
    window = CubeWindow._from_runs(params, runs)
    window.validate()
    return window


# ---------------------------------------------------------------------------
# Walls and the contact graph
# ---------------------------------------------------------------------------


def _wall_name(k):
    return f"w{k:04d}"


def walls(window):
    """The ids w0000, w0001, ... of the window's walls, in wall-number order.

    Walls are numbered by their least dual edge, in the order of edge tuples.
    """
    return list(map(_wall_name, range(window._walls.count)))


class ContactGraph:
    """Walls as nodes; edges between walls whose carriers share a vertex.

    crossings is the transversality subrelation: walls sharing a square.
    walls is the list of wall ids, and a wall's number is its position there.
    The graph is built on wall numbers: _adjacency holds one set of wall
    numbers per wall, and _across holds each crossing once, as the set of
    vertical walls each horizontal wall crosses.  neighbors and crossings
    keyed by wall id, each neighbour tuple sorted as strings, are built on
    first use.  The window must satisfy the link condition.
    """

    def __init__(self, window):
        self.window = window
        self.walls = walls(window)
        layout, part = window._layout, window._walls
        vertical, horizontal = part.vertical, part.horizontal

        # each square of a run: the run's wall crosses the wall of its bottom edge
        self._across = across = {h: set() for h in horizontal}
        for k, pieces in enumerate(layout.pieces):
            crossed = across[horizontal[k]]
            for c0, c1, kb, _ in pieces:
                lo, row = part.labels[kb]
                crossed.update(map(vertical.__getitem__, islice(row, c0 - lo, c1 - lo)))

        # The walls at a vertex are the walls of its edges.  Two walls that
        # cross meet at the square's corners; the other pairs are two runs
        # sharing a vertex, the walls of two neighbouring edges in one edge row,
        # and the walls at a vertex where the segments through it differ.
        self._adjacency = adjacency = [set() for _ in range(part.count)]
        for h, crossed in across.items():
            adjacency[h].update(crossed)
            for v in crossed:
                adjacency[v].add(h)
        for j, k in layout.touching:
            adjacency[horizontal[j]].add(horizontal[k])
            adjacency[horizontal[k]].add(horizontal[j])
        pure = [row for (_, t1, t2), (_, row) in part.labels.items() if t1 == t2]
        for a, b in set(zip(chain.from_iterable(pure), islice(chain.from_iterable(pure), 1, None))):
            if a >= 0 and b >= 0:
                adjacency[vertical[a]].add(vertical[b])
                adjacency[vertical[b]].add(vertical[a])
        rows = layout.vertex_rows
        for (y, t), x in layout.corners:
            met = _walls_at(part, y, t, x, rows[y, t])
            for w in met:
                adjacency[w].update(met)
        for k, adj in enumerate(adjacency):
            adj.discard(k)

    @cached_property
    def _numbers(self):
        return dict(zip(self.walls, range(len(self.walls))))

    def _number(self, wall):
        """The wall number of a wall id; UnknownWall if the graph has none."""
        k = self._numbers.get(wall)
        if k is None:
            raise UnknownWall(f"unknown wall {wall!r}")
        return k

    def _number_of_edge(self, edge):
        k = self.window._wall_of_edge(edge)
        if k is None:
            raise UnknownWall(f"no wall is dual to edge {edge}")
        return k

    @cached_property
    def neighbors(self):
        names = self.walls
        return {names[k]: tuple(sorted([names[j] for j in adj])) for k, adj in enumerate(self._adjacency)}

    @cached_property
    def crossings(self):
        crossed = [set() for _ in self.walls]
        for h, vertical in self._across.items():
            crossed[h].update(vertical)
            for v in vertical:
                crossed[v].add(h)
        names = self.walls
        return {names[k]: frozenset([names[j] for j in c]) for k, c in enumerate(crossed)}


def _walls_at(part, y, t, x, entries):
    """The walls at vertex (x, y, t), given the segments of its vertex row."""
    met = set()
    for e in entries:
        if e[0] <= x <= e[1]:
            met.add(part.horizontal[e[2]])
            west, east = _edges_at(e, t, x)
            if west is not None:
                lo, row = part.labels[y, west, t]
                met.add(part.vertical[row[x - 1 - lo]])
            if east is not None:
                lo, row = part.labels[y, t, east]
                met.add(part.vertical[row[x - lo]])
    return met


def contact_graph(window):
    return ContactGraph(window)


def _distances(graph, start):
    """BFS hop counts from wall number start to every wall number, and the wall
    numbers in the order the search reached them.  Raises CscwallsError when
    some wall is unreachable, i.e. when the contact graph is disconnected."""
    adjacency = graph._adjacency
    dist = [-1] * len(adjacency)
    dist[start] = 0
    order = [start]
    for cur in order:  # order grows as the search runs: it is the queue
        d = dist[cur] + 1
        for nxt in adjacency[cur]:
            if dist[nxt] < 0:
                dist[nxt] = d
                order.append(nxt)
    if len(order) != len(dist):
        raise CscwallsError("contact graph is disconnected; windows never produce this")
    return dist, order


def contact_distances(graph, source):
    """BFS hop counts from wall id source to every wall of the contact graph,
    keyed by wall id.

    Raises CscwallsError when some wall is unreachable, i.e. when the contact
    graph is disconnected.
    """
    dist, order = _distances(graph, graph._number(source))
    names = graph.walls
    return {names[k]: dist[k] for k in order}


def contact_distance(graph, a, b):
    """BFS hop count between wall ids a and b in the contact graph."""
    goal = graph._number(b)
    return _distances(graph, graph._number(a))[0][goal]


def contact_graph_dot(graph):
    """DOT rendering: the walls in number order, then each contact once, from
    its lower-numbered wall, that wall's partners in string order of their ids
    and the two ids of each line in string order."""
    names = graph.walls
    lines = ["graph contact {", *(f'  "{w}";' for w in names)]
    for k, adj in enumerate(graph._adjacency):
        w = names[k]
        for other in sorted([names[j] for j in adj if j > k]):
            a, b = (w, other) if w < other else (other, w)
            lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The non-acylindricity certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonAcylCertificate:
    """Self-validated contact-graph certificate over one staircase window.

    family holds the strip-wall ids 0..steps.  All of family_distances at
    indices below crossing_bound equal 2, witnessed by witness_wall crossing
    both ends; no wall crosses more than crossing_bound strip walls and
    witness_wall attains the bound; the p-th translate sits at BFS distance
    at least p/crossing_bound.
    """

    params: StairParams
    p: int
    crossing_bound: int
    family: tuple
    family_distances: tuple  # (i, distance)
    witness_wall: str
    witnesses: tuple  # (i, middle wall id) for 1 <= i < crossing_bound
    crossing_counts: dict  # wall id -> strip walls crossed (nonzero only)
    max_crossing: int
    max_crossing_walls: tuple
    lower_bound: Fraction
    bfs_distance: int
    bounds_note: str

    def to_dict(self):
        return {
            "params": self.params.to_dict(),
            "p": self.p,
            "crossing_bound": self.crossing_bound,
            "family": list(self.family),
            "family_distances": [list(t) for t in self.family_distances],
            "witness_wall": self.witness_wall,
            "witnesses": [list(t) for t in self.witnesses],
            "crossing_counts": dict(sorted(self.crossing_counts.items())),
            "max_crossing": self.max_crossing,
            "max_crossing_walls": list(self.max_crossing_walls),
            "lower_bound": {
                "numerator": self.lower_bound.numerator,
                "denominator": self.lower_bound.denominator,
                "value": float(self.lower_bound),
            },
            "bfs_distance": self.bfs_distance,
            "bounds_note": self.bounds_note,
        }


_BOUNDS_NOTE = (
    "Distances are computed inside a finite window and can only over-count the "
    "infinite model; the counting lower bound p/crossing_bound is window-"
    "independent once the crossing counts are verified."
)


def check_certifiable(params, p):
    """Raise InvalidParams unless a window of these parameters can certify the
    p-th translate: p must be in 1..steps (the window must contain strip p) and
    steps at least crossing_bound - 1 (otherwise the bound cannot be attained
    by any wall and the window is too short to certify anything)."""
    if p < 1 or p > params.steps:
        raise InvalidParams(f"p must be in 1..steps, got {p}")
    m = params.crossing_bound
    if params.steps < m - 1:
        raise InvalidParams(
            f"steps={params.steps} cannot attain the crossing bound {m}; need steps >= {m - 1}"
        )


def nonacyl_certificate(params, p, graph=None):
    """Assemble and self-validate the certificate for the p-th translate.

    The parameters must pass check_certifiable.  graph, when given, must be
    the contact graph of the window built for params; otherwise it is built
    here.  Walls are handled by number throughout and named once, in the
    certificate.
    """
    from fractions import Fraction  # here, so that importing the package loads neither it nor decimal

    check_certifiable(params, p)
    m = params.crossing_bound
    if graph is None:
        graph = contact_graph(build_staircase(params))
    elif graph.window.params != params:
        raise InvalidParams(f"the contact graph was built for {graph.window.params}, not for {params}")
    window = graph.window

    family = [graph._number_of_edge(window.strip_wall_edge(i)) for i in range(params.steps + 1)]
    if len(set(family)) != len(family):
        raise CscwallsError("strip walls are not pairwise distinct")
    witness = graph._number_of_edge(window.last_projection_edge())

    # family members are distinct horizontal walls, so each crossing of one
    # adds exactly one
    across = graph._across
    counts = Counter(chain.from_iterable(across[f] for f in family))
    max_crossing = max(counts.values(), default=0)

    if max_crossing != m:
        raise CscwallsError(f"max crossing count {max_crossing} != bound {m}")
    if counts.get(witness, 0) != m:
        raise CscwallsError("witness wall does not attain the crossing bound")

    base = family[0]
    from_base, _ = _distances(graph, base)
    distances = []
    for i in range(1, p + 1):
        d = from_base[family[i]]
        distances.append((i, d))
        if i < m:
            if not (witness in across[base] and witness in across[family[i]]):
                raise CscwallsError(f"witness wall misses translate {i}")
            if d != 2:
                raise CscwallsError(f"distance to translate {i} is {d}, expected 2")

    bfs_distance = distances[-1][1]  # the loop above ends at translate p
    bound = Fraction(p, m)
    if bfs_distance < bound:
        raise CscwallsError(
            f"BFS distance {bfs_distance} fell below the counting bound {bound}"
        )

    names = graph.walls
    return NonAcylCertificate(
        params=params,
        p=p,
        crossing_bound=m,
        family=tuple(names[k] for k in family),
        family_distances=tuple(distances),
        witness_wall=names[witness],
        witnesses=tuple((i, names[witness]) for i in range(1, min(p + 1, m))),
        crossing_counts={names[k]: c for k, c in counts.items()},
        max_crossing=max_crossing,
        max_crossing_walls=tuple(sorted(names[k] for k, c in counts.items() if c == max_crossing)),
        lower_bound=bound,
        bfs_distance=bfs_distance,
        bounds_note=_BOUNDS_NOTE,
    )
