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

from collections import Counter, defaultdict, namedtuple
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter

from .errors import CscwallsError, InvalidParams, UnknownWall

#: Rows of squares per flat block, as drawn between consecutive strips.
FLAT_ROWS = 3

_LEVEL_PITCH = FLAT_ROWS + 1  # one strip row plus one flat block per level


class StairParams(namedtuple("StairParams", "overlap_len shift steps margin")):
    """Staircase shape: overlap length L, step depth r, level count, margin.

    steps is the number of flat levels; strips are indexed 0..steps, so the
    wall family has steps+1 members.  margin is extra flat width beyond the
    overlap on each side; crossing_bound, the certificate's max_crossing and
    lower_bound do not depend on it, but its BFS distances can.  Every field
    must be an int, not a bool; the constructor, _make and _replace raise
    InvalidParams otherwise.
    """

    __slots__ = ()

    def __new__(cls, overlap_len, shift, steps, margin=1):
        for name, value in zip(cls._fields, (overlap_len, shift, steps, margin)):
            if type(value) is not int:
                raise InvalidParams(f"{name} must be an integer, got {value!r}")
        if shift <= 0:
            raise InvalidParams("shift must be positive")
        if shift > overlap_len:
            raise InvalidParams(f"shift {shift} exceeds overlap length {overlap_len}: not a staircase")
        if steps < 1:
            raise InvalidParams("need at least one level")
        if margin < 1:
            raise InvalidParams("margin must be at least 1")
        return super().__new__(cls, overlap_len, shift, steps, margin)

    @classmethod
    def _make(cls, iterable):
        """Through the constructor, so _make and _replace validate too."""
        return cls(*iterable)

    @property
    def crossing_bound(self):
        """ceil(L/r) + 1: the exact maximum number of strip walls any one wall crosses."""
        return -(-self.overlap_len // self.shift) + 1

    def counts(self):
        """Vertex, edge and square counts of the window build_staircase makes
        of this shape, in closed form.  Write W = L + 2 * margin and S = steps.
        Strips 0 and S and the FLAT_ROWS * S flat rows are W squares wide,
        strips 1 .. S-1 are W + r wide, and each of these 4S + 1 rows of k
        squares has k + 1 vertical edges.  The vertex rows W + 1 wide are
        strip 0's two, the three of each flat above its bottom and strip S's
        top; each inner strip's top is W + r + 1 wide; and each strip i >= 1
        hangs 2 * margin tag-1 bottom vertices beyond its overlap, an inner
        strip r more.  Each of these 4S + 2 vertex rows, tag-1 ends included,
        is a tree, with one horizontal edge fewer than vertices.  So the
        Euler characteristic is 1, and the wall count edges - 2 * squares is
        L + 2 * margin * (S + 1) + 3S + 2 + (S - 1)(r + 1)."""
        L, r, s, m = self
        w = L + 2 * m
        rows = FLAT_ROWS * s + 2  # the rows of squares W wide
        vertices = (rows + 1) * (w + 1) + (s - 1) * (w + 2 * r + 1) + 2 * m * s
        return {
            "vertices": vertices,
            "edges": rows * (w + 1) + (s - 1) * (w + r + 1) + vertices - (rows + s),
            "squares": rows * w + (s - 1) * (w + r),
        }

    def to_dict(self):
        return self._asdict()


# A window is carried as runs.  A run (y, a, b, bottom, top, h) is h rows of
# unit squares at heights y .. y+h-1, one square per row and column x = a ..
# b-1, each sharing its vertical sides with its neighbours in its row; bottom
# and top are its lowest and highest vertex rows, y and y+h, as tuples of
# constant-tag segments (x0, x1, tag) covering a .. b.  Vertices are (x, y,
# tag) triples, each tag 0 or 1: in a staircase, tag 0 on the main sheet and
# tag 1 on a strip bottom hanging beyond the overlap with the flat below.  A
# run of h > 1 rows is a band: its rows copy one another, each of its vertex
# rows is one segment of one tag, and no other run has a square in its rows.
# The runs of a window satisfy the link condition: no quadrant of a vertex
# holds two squares, so no two runs of either kind share a vertical edge.
# build_staircase emits each strip as a one-row run and each flat as one
# band, and its windows hold to all of this by construction; nothing checks
# it.  The rows of a window are numbered run by run, bottom to top, so
# one-row runs before the first band have their run's number.
#
# Everything runs on runs, segments and per-row intervals, in three phases,
# each passing on only what the next one reads:
#   - the layout (_layout): the overlaps of the segments in each vertex row
#     (y, tag); the horizontal edges of a row are its edge rows (y, tag, tag)
#     and the edges between segments of two tags; a band lists only its
#     bottom and top vertex rows.  It passes on each run's column pieces, the
#     edge rows they meet, the rows that touch, and the corners as rows and
#     places in them;
#   - the walls (_walls): each row is one horizontal wall, as no two rows
#     share a vertical edge; for vertical walls each edge row holds one label
#     per column, the rows are swept bottom-up, and each run's column pieces
#     copy the labels of their bottom edges onto their top edges as list
#     slices, a band's from its bottom edge row to its top one at once; under
#     the link condition each label is one wall; walls are numbered by their
#     least edge, one int per wall in the order of edge tuples, and each
#     run's labels, its crossings, are then rewritten to wall numbers; a
#     wall's one name is w0000, w0001, ...  It passes on the row walls and
#     each run's crossings, and drops the label rows;
#   - the contact graph (ContactGraph) runs the two phases before it and
#     keeps only the row walls: crossings sit in one list per wall, a
#     horizontal wall's being its run's crossings, a vertical wall's the
#     horizontal walls that cross it, so each square is one entry on each
#     side, and a band's row walls share one list; the contacts that are not
#     crossings (rows that touch, consecutive squares of one run, the corner
#     rule) sit in one more list per wall, each wall once.
# Nothing here counts cells: a staircase's counts are StairParams.counts, in
# closed form, so the window summary builds no window.  A window holds no
# vertex or edge tuples, and its graph no hashed entry per crossing.  Its
# squares are built from its runs on first use; wall ids, and
# ContactGraph.neighbors and .crossings, keyed by them, are also built on
# first use.


class WindowSquare(namedtuple("WindowSquare", "sw se nw ne")):
    """A square by its four corner vertices."""

    __slots__ = ()


def _sweep(spans):
    """Sort the inclusive ranges (lo, hi, ...) in spans by lo; return the
    pairs of ranges that share an integer."""
    spans.sort(key=itemgetter(0))
    pairs = []
    for i, first in enumerate(spans):
        hi = first[1]
        for second in spans[i + 1:]:
            if second[0] > hi:
                break
            pairs.append((first, second))
    return pairs


def _tags(segments):
    """The tag of each vertex x0, x0+1, ... of a run's row of segments."""
    return [t for x0, x1, t in segments for _ in range(x1 - x0 + 1)]


def _squares_of(runs):
    for y, a, b, bottom, top, h in runs:
        tb, tt = _tags(bottom), _tags(top)
        for row in range(y, y + h):
            for i, x in enumerate(range(a, b)):
                sw, se, nw, ne = tb[i], tb[i + 1], tt[i], tt[i + 1]
                yield WindowSquare((x, row, sw), (x + 1, row, se), (x, row + 1, nw), (x + 1, row + 1, ne))


class _Layout(namedtuple("_Layout", "edge_rows pieces touching corners")):
    """A window's cells as intervals per row, read off its runs; rows are
    numbered as in the run-layout comment above.  It is what _walls and
    ContactGraph read, and goes once the graph is built.

    edge_rows: (y, tag, tag) -> (first, last) column of the horizontal edges in that row
    pieces: per run, [(c0, c1, bottom edge row, top edge row)] over columns
        c0 .. c1-1, each edge row by its key in edge_rows
    touching: two lists of rows, the rows at each index sharing a vertex;
        every two rows through one vertex are listed
    corners: per vertex whose walls are not all paired by the rules in
        ContactGraph, a tuple (row, i, row, i, ...) of the rows through it,
        each with the vertex's column less its run's first one
    """

    __slots__ = ()


def _layout(runs):
    vertex_rows = defaultdict(list)
    shared = {}  # (y, tag, tag) -> the same tuple: one key per edge row for its pieces and edge_rows
    edge_rows = {}
    switches = set()  # (y, tag, tag, column) of each horizontal edge whose ends have different tags
    pieces, touching = [], ([], [])
    first = 0  # the number of the run's bottom row

    def edge_row(*key):
        return shared.setdefault(key, key)

    for y, a, b, bottom, top, h in runs:
        last = first + h - 1
        for vy, segments, row in ((y, bottom, first), (y + h, top, last)):
            before = None
            for i, (x0, x1, t) in enumerate(segments, 1):
                after = segments[i][2] if i < len(segments) else None
                if after is not None:
                    switches.add((vy, t, after, x1))
                vertex_rows[vy, t].append((x0, x1, row, before, after, a))
                before = t
        # a band is alone in its rows: between its bottom and top lie h - 1
        # vertex rows of one segment, each shared by two consecutive rows
        touching[0].extend(range(first, last))
        touching[1].extend(range(first + 1, last + 1))
        # vertex ranges of constant (bottom tag, top tag); the columns inside
        # one are a piece, and so is each column between two of them
        own = []
        i = j = 0
        x = a
        while True:
            s1, tb = bottom[i][1:]
            u1, tt = top[j][1:]
            e = s1 if s1 < u1 else u1
            if x > a:
                own.append((x - 1, x, edge_row(y, pb, tb), edge_row(y + h, pt, tt)))
            if e > x:
                own.append((x, e, edge_row(y, tb, tb), edge_row(y + h, tt, tt)))
            if e == b:
                break
            i += e == s1
            j += e == u1
            x, pb, pt = e + 1, tb, tt
        pieces.append(own)
        first = last + 1

    # per vertex row: the span of its edges with both ends in the row's tag,
    # and the rows sharing a vertex
    corners = []
    for (y, t), entries in vertex_rows.items():
        pairs = _sweep(entries)
        lo, hi = entries[0][0], max(map(itemgetter(1), entries))
        if hi > lo:
            edge_rows[edge_row(y, t, t)] = (lo, hi - 1)
        # Crossings, rows sharing a vertex and consecutive squares of one run
        # pair up the walls at a vertex, unless a segment has two edges there
        # not both in tag t (at an end next to a segment of another tag), or
        # two segments have different edges there (at an end of their
        # overlap).
        at = set()
        for x0, x1, _, before, after, _ in entries:
            if before is not None and (x0 < x1 or after is not None):
                at.add(x0)
            if after is not None and (x0 < x1 or before is not None):
                at.add(x1)
        for e, f in pairs:
            touching[0].append(e[2])
            touching[1].append(f[2])
            if e[:2] != f[:2] or e[3:5] != f[3:5]:
                for x in (f[0], min(e[1], f[1])):
                    if _edges_at(e, t, x) != _edges_at(f, t, x):
                        at.add(x)
        # a corner's walls are those of its rows and of their squares beside
        # it, at i - 1 and i in their runs' squares
        for x in at:
            corner = []
            for e in entries:
                if e[0] <= x <= e[1]:
                    corner += e[2], x - e[5]
            corners.append(tuple(corner))
    for y, t1, t2, c in switches:
        key = edge_row(y, t1, t2)
        lo, hi = edge_rows.get(key, (c, c))
        edge_rows[key] = (min(lo, c), max(hi, c))
    return _Layout(edge_rows, pieces, touching, corners)


def _edges_at(e, t, x):
    """The tags of the edges west and east of vertex x that the segment e of
    a vertex row in tag t has there, None where it has none."""
    return t if x > e[0] else e[3], t if x < e[1] else e[4]


def _edge_order(runs):
    """least(x, y, tag, east, tag2): one int for the edge from (x, y, tag) to
    (x + east, y + 1 - east, tag2) of a window of these runs.  The ints order
    edges as their tuples ((x, y, tag), (x2, y2, tag2)) do: by x, then y,
    tag, east (x2 = x before x2 = x + 1) and tag2, each tag 0 or 1."""
    y0 = min((run[0] for run in runs), default=0)
    step = (max((run[0] + run[5] for run in runs), default=y0) - y0 + 1) * 8  # all but x

    def least(x, y, tag, east, tag2):
        return x * step + (((y - y0) * 2 + tag) * 2 + east) * 2 + tag2

    return least


def _walls(runs, layout):
    """Each row is one horizontal wall.  Vertical walls are labels: each edge
    row holds one label per column, rows are swept bottom-up, a piece takes
    the labels of its bottom edges (fresh ones where there are none yet) and
    copies them onto its top edges, a band's past its interior edge rows,
    which carry the same labels and are not stored.  The window must satisfy
    the link condition: then no two runs share a vertical edge, so no two
    rows are one wall, and no other square lies below those top edges, so no
    two labels meet and each label is one wall, whose least edge is the one
    it was born at.  A run's labels are its crossings; once walls are
    numbered by least edge, they are rewritten to wall numbers in place and
    the label rows are dropped.  Returns the number of walls, each row's
    wall number, and per run its crossings: the walls of its squares in one
    row, by column, which are the vertical walls that each of its rows
    crosses."""
    labels = {key: (lo, [-1] * (hi - lo + 1)) for key, (lo, hi) in layout.edge_rows.items()}
    least = _edge_order(runs)
    keys = []  # per label, then per row, its wall's least edge
    crossings = [None] * len(runs)
    for k in sorted(range(len(runs)), key=lambda k: runs[k][0]):
        crossings[k] = crossed = []
        for c0, c1, kb, kt in layout.pieces[k]:
            lo, row = labels[kb]
            own = row[c0 - lo:c1 - lo]
            if -1 in own:
                y, t1, t2 = kb
                for i, label in enumerate(own):
                    if label < 0:
                        own[i] = len(keys)
                        keys.append(least(c0 + i, y, t1, 1, t2))
                row[c0 - lo:c1 - lo] = own
            lo, row = labels[kt]
            row[c0 - lo:c1 - lo] = own
            crossed += own
    del labels  # done with: freed before the keys are sorted

    # a band's rows copy its bottom, so each row's least edge is its westmost one
    n = len(keys)
    keys.extend(least(a, z, bottom[0][2], 0, top[0][2]) for y, a, _, bottom, top, h in runs for z in range(y, y + h))
    number = [0] * len(keys)
    for k, i in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
        number[i] = k
    for crossed in crossings:
        crossed[:] = map(number.__getitem__, crossed)
    return len(keys), number[n:], crossings


class CubeWindow:
    """A finite square complex of unit squares under the link condition,
    carried as runs (see the run-layout comment above).

    CubeWindow(runs, params=None) keeps the runs it is given, which must
    hold to that layout and satisfy the link condition; it checks neither.
    build_staircase is the one maker of windows in the package, and the
    only one that gives params.  So every window has walls and a contact
    graph.  squares is built run by run on first use.  A window keeps its
    runs, its params and its squares once made: no counts, no layout and
    no walls.  A staircase's counts are its params' counts().
    """

    def __init__(self, runs, params=None):
        self._runs = runs
        self.params = params

    @cached_property
    def squares(self):
        return tuple(_squares_of(self._runs))


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


def build_staircase(params):
    """Assemble the staircase window for the given parameters: strips
    0..steps as one-row runs, so run i and row i are strip i, then each flat
    as one band of FLAT_ROWS rows.  A strip's bottom is tagged 1 outside its
    overlap with the flat below (all of strip 0's).  Strips and flats sit at
    heights of their own, so each flat is a band alone in its rows, as
    _layout relies on; no two squares share a row and column, no quadrant of
    a vertex holds two squares, and the window satisfies the link condition
    by construction.  It is connected with Euler characteristic 1 by
    construction too; nothing checks either, and nothing is laid out until a
    caller asks."""
    runs = []
    for i in range(params.steps + 1):
        lo, hi = _strip_span(params, i)
        if i:
            a, b = _overlap_span(params, i)  # lo < a and b < hi: the flats reach margin >= 1 beyond
            bottom = ((lo, a - 1, 1), (a, b, 0), (b + 1, hi, 1))
        else:
            bottom = ((lo, hi, 1),)
        runs.append((_LEVEL_PITCH * i, lo, hi, bottom, ((lo, hi, 0),), 1))
    for i in range(params.steps):
        lo, hi = _flat_span(params, i)
        row = ((lo, hi, 0),)
        runs.append((_LEVEL_PITCH * i + 1, lo, hi, row, row, FLAT_ROWS))
    return CubeWindow(runs, params)


# ---------------------------------------------------------------------------
# Walls and the contact graph
# ---------------------------------------------------------------------------


def _wall_name(k):
    return f"w{k:04d}"


def walls(window):
    """The ids w0000, w0001, ... of the window's walls, in wall-number order:
    those of its contact graph, which builds the wall partition.  Walls are
    numbered by their least dual edge, in the order of edge tuples.  Under
    the link condition, which every window satisfies, the dual edges of a
    wall form one path, each of its squares linking two consecutive ones,
    and each square lies in two walls: so a window has edges - 2 * squares
    walls, the count the staircase summary reads off StairParams.counts."""
    return contact_graph(window).walls


class ContactGraph:
    """Walls as nodes; edges between walls whose carriers share a vertex.

    crossings is the transversality subrelation: walls sharing a square.
    walls is the list of wall ids, and a wall's number is its position
    there.  The graph alone builds the window's wall partition: it lays the
    window out, builds the walls and keeps only _row_walls, row -> wall
    number, which the certificate reads its family from; the rest goes once
    the graph is built.  The graph is two lists per wall: _across[k] lists
    the walls that cross wall k, and _contacts[k] the walls that meet it at
    a vertex without crossing it, each once: rows that touch, consecutive
    squares of one run, the corner rule.  A row is one horizontal wall, and
    its crossing list is its run's crossings, the vertical walls of its
    squares by column; the row walls of a band share that list.  A vertical
    wall's list is filled from those, so each crossing is one entry on each
    side.  A band's rows copy its bottom edges' walls, so its consecutive
    squares pair once for all its rows, and consecutive rows of it touch.
    Under the link condition a horizontal wall is one row of squares and a
    vertical one lies in one column, with at most one square in each row, so
    two walls share at most one square: no crossing list repeats a wall.
    walls, one id per crossing list, and neighbors and crossings keyed by
    wall id, each neighbour tuple sorted as strings, are built on first use.
    """

    def __init__(self, window):
        self.window = window
        layout = _layout(window._runs)
        n, horizontal, crossings = _walls(window._runs, layout)
        self._row_walls = horizontal
        touching, corners = layout.touching, layout.corners
        del layout  # its edge rows and pieces go before the graph fills

        # a row's wall crosses its run's crossings; consecutive ones meet
        self._across = across = [[] for _ in range(n)]
        self._contacts = contacts = [[] for _ in range(n)]
        consecutive = set()  # (west, east) walls of consecutive squares: a pair recurs in each run both cross
        first = 0
        for (*_, h), own in zip(window._runs, crossings):
            rows = horizontal[first:first + h]
            first += h
            for w in rows:
                across[w] = own
            for v in own:
                across[v].extend(rows)
            consecutive.update(zip(own, islice(own, 1, None)))
        for a, b in consecutive:
            contacts[a].append(b)
            contacts[b].append(a)

        # The walls at a vertex are the walls of its edges.  Two walls that
        # cross meet at the square's corners and are listed above; so are
        # consecutive squares of one run, whose top edges carry their bottom
        # edges' walls.  The other contacts: rows sharing a vertex, and the
        # walls at a vertex where the segments through it differ.  A wall is
        # appended only where it is not listed yet, so each contact is one
        # entry on each side.  Rows through one vertex overlap in that vertex
        # row, so the layout lists every two of them as touching.
        for j, k in zip(*touching):
            a, b = horizontal[j], horizontal[k]
            if b not in contacts[a]:
                contacts[a].append(b)
                contacts[b].append(a)
        # At a corner each column wall pairs with every wall there that its
        # crossing list, the short one, does not hold; the row walls there
        # touch and are paired above.  A row wall's crossing list is its
        # run's crossings, by column, so the column walls at a corner are read
        # off those of its rows.
        for corner in corners:
            rows = [horizontal[j] for j in corner[::2]]
            columns = {c for r, i in zip(rows, corner[1::2]) for c in across[r][max(i - 1, 0):i + 1]}
            met = [*rows, *columns]
            for c in columns:
                near, crossed = contacts[c], across[c]
                for v in met:
                    if v != c and v not in near and v not in crossed:
                        near.append(v)
                        contacts[v].append(c)

    @cached_property
    def walls(self):
        return list(map(_wall_name, range(len(self._across))))

    @cached_property
    def _numbers(self):
        return dict(zip(self.walls, range(len(self.walls))))

    def _number(self, wall):
        """The wall number of a wall id; UnknownWall if the graph has none."""
        k = self._numbers.get(wall)
        if k is None:
            raise UnknownWall(f"unknown wall {wall!r}")
        return k

    @cached_property
    def neighbors(self):
        names = self.walls
        return {
            names[k]: tuple(sorted([names[j] for j in chain(crossed, near)]))
            for k, (crossed, near) in enumerate(zip(self._across, self._contacts))
        }

    @cached_property
    def crossings(self):
        names = self.walls
        return {names[k]: frozenset([names[j] for j in crossed]) for k, crossed in enumerate(self._across)}


def contact_graph(window):
    return ContactGraph(window)


def _distances(graph, start):
    """BFS hop counts from wall number start to every wall number, and the wall
    numbers in the order the search reached them.  Raises CscwallsError when
    some wall is unreachable, i.e. when the contact graph is disconnected."""
    across, contacts = graph._across, graph._contacts
    dist = [-1] * len(across)
    dist[start] = 0
    order = [start]
    for cur in order:  # order grows as the search runs: it is the queue
        d = dist[cur] + 1
        for near in (across[cur], contacts[cur]):
            for nxt in near:
                if dist[nxt] < 0:
                    dist[nxt] = d
                    order.append(nxt)
    if len(order) != len(dist):
        raise CscwallsError("contact graph is disconnected")
    return dist, order


def contact_distances(graph, source):
    """BFS hop counts from wall id source to every wall of the contact graph,
    keyed by wall id, the keys in the order the search reached the walls: a
    wall's crossing list first, then its contact list.  That order is not
    part of any artifact.

    Raises CscwallsError when some wall is unreachable, i.e. when the contact
    graph is disconnected, as it is for a window of two squares that share no
    vertex.
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
    for k, (crossed, near) in enumerate(zip(graph._across, graph._contacts)):
        w = names[k]
        for other in sorted([names[j] for j in chain(crossed, near) if j > k]):
            a, b = (w, other) if w < other else (other, w)
            lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The non-acylindricity certificate
# ---------------------------------------------------------------------------


class NonAcylCertificate(
    namedtuple(
        "NonAcylCertificate",
        "params p crossing_bound family family_distances witness_wall witnesses"
        " crossing_counts max_crossing max_crossing_walls lower_bound bfs_distance bounds_note",
    )
):
    """Self-validated contact-graph certificate over one staircase window.

    family holds the strip-wall ids 0..steps.  All of family_distances at
    indices below crossing_bound equal 2, witnessed by witness_wall crossing
    both ends; no wall crosses more than crossing_bound strip walls and
    witness_wall attains the bound; the p-th translate sits at BFS distance
    at least p/crossing_bound.

    params is the StairParams; family_distances holds (i, distance) pairs and
    witnesses (i, middle wall id) pairs for 1 <= i < crossing_bound;
    crossing_counts maps each wall id to the strip walls it crosses (nonzero
    only); lower_bound is a Fraction.
    """

    __slots__ = ()

    def to_dict(self):
        """The fields as JSON takes them: json.dumps makes the tuples arrays,
        and with sort_keys orders crossing_counts by wall id."""
        return {
            **self._asdict(),
            "params": self.params.to_dict(),
            "lower_bound": {
                "numerator": self.lower_bound.numerator,
                "denominator": self.lower_bound.denominator,
                "value": float(self.lower_bound),
            },
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
    by any wall and the window is too short to certify anything).  p must be
    an int, not a bool."""
    if type(p) is not int:
        raise InvalidParams(f"p must be an integer, got {p!r}")
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
    here.  The family is the walls of rows 0..steps, the build's strips; the
    witness is the wall of column L-1 in edge row (1, 0, 0), the last edge of
    the level-0 overlap.  Walls are numbers until the certificate names them.
    """
    from fractions import Fraction  # here, so that importing the package loads neither it nor decimal

    check_certifiable(params, p)
    m = params.crossing_bound
    if graph is None:
        graph = contact_graph(build_staircase(params))
    elif graph.window.params != params:
        raise InvalidParams(f"the contact graph was built for {graph.window.params}, not for {params}")
    across = graph._across
    family = graph._row_walls[:params.steps + 1]
    base = family[0]
    # strip 0's row crosses the walls of its squares, by column from the
    # first of flat 0's span, and its top edges are edge row (1, 0, 0)
    witness = across[base][params.overlap_len - 1 - _flat_span(params, 0)[0]]

    # family members are distinct horizontal walls, so each crossing of one
    # adds exactly one
    counts = Counter(chain.from_iterable(across[f] for f in family))
    max_crossing = max(counts.values(), default=0)

    if max_crossing != m:
        raise CscwallsError(f"max crossing count {max_crossing} != bound {m}")
    if counts.get(witness, 0) != m:
        raise CscwallsError("witness wall does not attain the crossing bound")

    crossers = set(across[witness])  # the horizontal walls that cross the witness
    from_base = _distances(graph, base)[0]
    distances = []
    for i in range(1, p + 1):
        d = from_base[family[i]]
        distances.append((i, d))
        if i < m:
            if not (base in crossers and family[i] in crossers):
                raise CscwallsError(f"witness wall misses translate {i}")
            if d != 2:
                raise CscwallsError(f"distance to translate {i} is {d}, expected 2")

    bfs_distance = distances[-1][1]  # the loop above ends at translate p
    bound = Fraction(p, m)
    if bfs_distance < bound:
        raise CscwallsError(
            f"BFS distance {bfs_distance} fell below the counting bound {bound}"
        )

    crossing_counts = {_wall_name(k): c for k, c in counts.items()}
    witness = _wall_name(witness)
    return NonAcylCertificate(
        params=params,
        p=p,
        crossing_bound=m,
        family=tuple(map(_wall_name, family)),
        family_distances=tuple(distances),
        witness_wall=witness,
        witnesses=tuple((i, witness) for i in range(1, min(p + 1, m))),
        crossing_counts=crossing_counts,
        max_crossing=max_crossing,
        max_crossing_walls=tuple(sorted(w for w, c in crossing_counts.items() if c == max_crossing)),
        lower_bound=bound,
        bfs_distance=bfs_distance,
        bounds_note=_BOUNDS_NOTE,
    )
