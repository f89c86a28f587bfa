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

from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from itertools import chain
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


# Vertices are (x, y, tag) integer triples: tag 0 on the main sheet, tag 1 on
# a strip bottom hanging beyond the overlap with the flat below.  A window
# carries its cells as ints.  Each vertex is first encoded as its key
# ((x - x0) * ny + y - y0) * nt + tag - t0 over the window's coordinate box,
# so key order is tuple order: build_staircase computes the keys row by row
# with range arithmetic, and CubeWindow(squares) encodes its tuples the same
# way.  Both then intern the keys once.  Vertex ids follow key order, an edge
# is the pair of its endpoint ids in ascending order, numbered in ascending
# pair order, and walls are numbered by their least edge id, so ids compare as
# the tuples do.  Validation, walls, the contact graph and the certificate run
# on these ints.  A wall's one name is its id w0000, w0001, ... by number.
# Tuples and wall-id keyed maps are built only on first use: window.squares,
# .vertices and .edges, and ContactGraph.neighbors and .crossings.


class WindowSquare(NamedTuple):
    """A square by its four corner vertices."""

    sw: tuple
    se: tuple
    nw: tuple
    ne: tuple


def _edge(a, b):
    return (a, b) if a <= b else (b, a)


def _box(corners):
    """(x0, y0, t0, ny, nt) of some vertex tuples: their least coordinates and
    the extents of y and tag, which make the keys order-preserving."""
    if not corners:
        return 0, 0, 0, 1, 1
    xs, ys, ts = zip(*corners)
    y0, t0 = min(ys), min(ts)
    return min(xs), y0, t0, max(ys) - y0 + 1, max(ts) - t0 + 1


def _vertex_key(box, vertex):
    x0, y0, t0, ny, nt = box
    x, y, t = vertex
    return ((x - x0) * ny + y - y0) * nt + t - t0


def _vertex_tuple(box, key):
    x0, y0, t0, ny, nt = box
    xy, t = divmod(key, nt)
    x, y = divmod(xy, ny)
    return x + x0, y + y0, t + t0


def _pair_keys(n, lo, hi):
    """Key a * n + b of each id pair, its two ids put in ascending order."""
    return [a * n + b if a <= b else b * n + a for a, b in zip(lo, hi)]


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


_QUADRANTS = ("NE", "NW", "SE", "SW")  # the quadrant each corner sw, se, nw, ne fills


class _Cells(Sequence):
    """A read-only sequence whose length is known at once and whose items are
    built on first access.  It compares equal to the tuple of its items."""

    def __init__(self, length, build):
        self._length = length
        self._build = build

    @cached_property
    def _items(self):
        return tuple(self._build())

    def __len__(self):
        return self._length

    def __getitem__(self, i):
        return self._items[i]

    def __iter__(self):
        return iter(self._items)

    def __eq__(self, other):
        return self._items == (other._items if isinstance(other, _Cells) else other)

    def __repr__(self):
        return repr(self._items)


def _squares_of(vertices, corners):
    vs = tuple(vertices)
    return map(WindowSquare, *(map(vs.__getitem__, ids) for ids in corners))


def _edges_of(vertices, edge_keys):
    vs, n = tuple(vertices), len(vertices)
    return ((vs[k // n], vs[k % n]) for k in edge_keys)


class CubeWindow:
    """A finite square complex with coordinatized cells, carried as ints.

    The constructor encodes each square's corners as keys and interns them
    once (see the comment above).  corner_quads holds four lists of vertex
    ids (sw, se, nw, ne), each indexed by square; edge_keys holds, ascending,
    the key a * n + b of each edge's endpoint ids a <= b among n vertices, so
    edge e is edge_keys[e]; side_ids holds four lists of edge ids (bottom,
    right, top, left), each indexed by square.  squares, vertices and edges
    (in id order) are sequences built on first use, whose lengths are known at
    once; edge_id maps an edge tuple back to its id.
    """

    def __init__(self, squares, params=None):
        corners = [v for sq in squares for v in sq]
        box = _box(corners)
        keys = list(map(partial(_vertex_key, box), corners))
        self._intern(params, box, (keys[0::4], keys[1::4], keys[2::4], keys[3::4]))

    @classmethod
    def _from_keys(cls, params, box, corner_keys):
        """The window whose squares have the corner keys (sw, se, nw, ne lists) over box."""
        window = cls.__new__(cls)
        window._intern(params, box, corner_keys)
        return window

    def _intern(self, params, box, corner_keys):
        self.params = params
        self._box = box
        self._vertex_keys = keys = sorted(set().union(*corner_keys))
        n = len(keys)
        vertex_id = dict(zip(keys, range(n)))
        self.corner_quads = sw, se, nw, ne = [list(map(vertex_id.__getitem__, q)) for q in corner_keys]
        sides = (_pair_keys(n, sw, se), _pair_keys(n, se, ne), _pair_keys(n, nw, ne), _pair_keys(n, sw, nw))
        self.edge_keys = sorted(set().union(*sides))
        edge_id = dict(zip(self.edge_keys, range(len(self.edge_keys))))
        self.side_ids = tuple(list(map(edge_id.__getitem__, side)) for side in sides)

    @cached_property
    def vertices(self):
        return _Cells(len(self._vertex_keys), partial(map, partial(_vertex_tuple, self._box), self._vertex_keys))

    @cached_property
    def edges(self):
        return _Cells(len(self.edge_keys), partial(_edges_of, self.vertices, self.edge_keys))

    @cached_property
    def squares(self):
        return _Cells(len(self.corner_quads[0]), partial(_squares_of, self.vertices, self.corner_quads))

    def _vertex(self, v):
        """The (x, y, tag) tuple of vertex id v."""
        return _vertex_tuple(self._box, self._vertex_keys[v])

    def _vertex_id(self, vertex):
        _, y0, t0, ny, nt = self._box
        if not (0 <= vertex[1] - y0 < ny and 0 <= vertex[2] - t0 < nt):
            return None  # outside the box its key could be another vertex's
        return _sorted_index(self._vertex_keys, _vertex_key(self._box, vertex))

    def edge_id(self, edge):
        """Id of an edge given as its (lesser, greater) vertex tuples; None if
        the window has no such edge."""
        a, b = (self._vertex_id(v) for v in edge)
        if a is None or b is None:
            return None
        return _sorted_index(self.edge_keys, a * len(self._vertex_keys) + b)

    def counts(self):
        return {
            "vertices": len(self._vertex_keys),
            "edges": len(self.edge_keys),
            "squares": len(self.corner_quads[0]),
        }

    def euler_characteristic(self):
        return len(self._vertex_keys) - len(self.edge_keys) + len(self.corner_quads[0])

    def validate(self):
        """Link condition: each quadrant of each vertex holds at most one square.

        Also checks the window is connected and contractible (Euler number 1),
        so it embeds in a CAT(0) square complex.  Raises CscwallsError on any
        failure; returns the count summary.
        """
        # corner q of a square fills quadrant _QUADRANTS[q] of its vertex, so
        # the link condition holds iff no corner list repeats a vertex
        if any(len(set(ids)) != len(ids) for ids in self.corner_quads):
            self._link_failure()
        if self.euler_characteristic() != 1:
            raise CscwallsError(
                f"window is not contractible: Euler characteristic {self.euler_characteristic()}"
            )
        if any(_least_members(len(self._vertex_keys), *self._edge_ends)):
            raise CscwallsError("window is not connected")
        return self.counts()

    def _link_failure(self):
        """Raise for the first corner, in square order, whose quadrant an
        earlier square already holds."""
        holder = [-1] * (4 * len(self._vertex_keys))  # 4 * vertex + quadrant -> square
        for i, corners in enumerate(zip(*self.corner_quads)):
            for q, v in enumerate(corners):
                key = 4 * v + q
                if holder[key] >= 0:
                    raise CscwallsError(
                        f"link condition fails at {self._vertex(v)}: quadrant {_QUADRANTS[q]} "
                        f"held by squares {holder[key]} and {i}"
                    )
                holder[key] = i

    @cached_property
    def _edge_ends(self):
        """The lesser and the greater endpoint id of each edge, as two lists."""
        n = len(self._vertex_keys)
        return [k // n for k in self.edge_keys], [k % n for k in self.edge_keys]

    @cached_property
    def _partition(self):
        """The wall number of each edge, and the number of walls.  Union-find
        joins the opposite sides of every square; each class's root is its
        least edge id, and roots first appear in ascending order, so walls are
        numbered by their least dual edge."""
        bottom, right, top, left = self.side_ids
        root = _least_members(len(self.edge_keys), bottom + right, top + left)
        least = dict.fromkeys(root)
        number = dict(zip(least, range(len(least))))
        return list(map(number.__getitem__, root)), len(number)

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


def _sorted_index(seq, item):
    """Position of item in the sorted sequence seq, or None if absent."""
    i = bisect_left(seq, item)
    return i if i < len(seq) and seq[i] == item else None


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
    """Assemble and validate the staircase window for the given parameters."""
    ny = _LEVEL_PITCH * params.steps + 2  # y runs over 0 .. LEVEL_PITCH * steps + 1
    box = (_flat_span(params, 0)[0], 0, 0, ny, 2)  # tags are 0 and 1
    stride = 2 * ny  # from the key of (x, y, tag) to that of (x + 1, y, tag)

    def row(lo, hi, y, tag=0):
        """The keys of (x, y, tag) for x in lo..hi."""
        start = _vertex_key(box, (lo, y, tag))
        return range(start, start + (hi - lo + 1) * stride, stride)

    corners = sw, se, nw, ne = [], [], [], []

    def squares_between(bottom, top):
        sw.extend(bottom[:-1])
        se.extend(bottom[1:])
        nw.extend(top[:-1])
        ne.extend(top[1:])

    for i in range(params.steps + 1):
        lo, hi = _strip_span(params, i)
        a, b = _overlap_span(params, i) if i else (hi + 1, hi)  # strip 0 has no flat below
        y = _LEVEL_PITCH * i
        squares_between([*row(lo, a - 1, y, 1), *row(a, b, y), *row(b + 1, hi, y, 1)], row(lo, hi, y + 1))
    for i in range(params.steps):
        lo, hi = _flat_span(params, i)
        base = _LEVEL_PITCH * i + 1
        for y in range(base, base + FLAT_ROWS):
            squares_between(row(lo, hi, y), row(lo, hi, y + 1))
    window = CubeWindow._from_keys(params, box, corners)
    window.validate()
    return window


# ---------------------------------------------------------------------------
# Walls and the contact graph
# ---------------------------------------------------------------------------


def _wall_name(k):
    return f"w{k:04d}"


def walls(window):
    """The ids w0000, w0001, ... of the window's walls, in wall-number order.

    Walls partition the edges (union-find over squares) and are numbered by
    their least dual edge: edge ids ascend with the edge tuples.
    """
    return list(map(_wall_name, range(window._partition[1])))


class ContactGraph:
    """Walls as nodes; edges between walls whose carriers share a vertex.

    crossings is the transversality subrelation: walls sharing a square.
    walls is the list of wall ids, and a wall's number is its position there.
    The graph is built on wall numbers: _adjacency and _crossings hold one set
    of wall numbers per wall.  neighbors and crossings keyed by wall id, each
    neighbour tuple sorted as strings, are built on first use.
    """

    def __init__(self, window):
        self.window = window
        self.walls = walls(window)
        edge_wall = window._partition[0]
        n_walls = len(self.walls)

        self._crossings = crossings = [set() for _ in range(n_walls)]
        bottom, _, _, left = window.side_ids
        # wv runs vertically through the square, wh horizontally.  Two walls of
        # a validated window cross in one square only, so the pairs are not
        # deduplicated first: the sets absorb repeats in any other window.
        for wv, wh in zip(map(edge_wall.__getitem__, bottom), map(edge_wall.__getitem__, left)):
            crossings[wv].add(wh)
            crossings[wh].add(wv)

        # A square's two walls are dual to its two sides at each corner, and
        # every edge is a side of some square, so the walls whose carriers
        # hold a vertex are exactly the walls of the edges at that vertex.
        at_vertex = [[] for _ in range(len(window._vertex_keys))]
        for a, b, w in zip(*window._edge_ends, edge_wall):
            at_vertex[a].append(w)
            at_vertex[b].append(w)
        self._adjacency = adjacency = [set() for _ in range(n_walls)]
        for bucket in at_vertex:
            for a in bucket:
                adjacency[a].update(bucket)
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
        e = self.window.edge_id(edge)
        if e is None:
            raise UnknownWall(f"no wall is dual to edge {edge}")
        return self.window._partition[0][e]

    @cached_property
    def neighbors(self):
        names = self.walls
        return {names[k]: tuple(sorted([names[j] for j in adj])) for k, adj in enumerate(self._adjacency)}

    @cached_property
    def crossings(self):
        names = self.walls
        return {names[k]: frozenset([names[j] for j in c]) for k, c in enumerate(self._crossings)}


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

    # family members are distinct, so each crossing of one adds exactly one
    crossings = graph._crossings
    counts = Counter(chain.from_iterable(crossings[f] for f in family))
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
            if not (base in crossings[witness] and family[i] in crossings[witness]):
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
