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
from collections import Counter, deque
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .errors import CscwallsError, InvalidParams, UnknownWall

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


# Vertices are (x, y, tag): tag 0 on the main sheet, tag 1 on a strip bottom
# hanging beyond the overlap with the flat below.  CubeWindow interns them
# once: vertex ids follow sorted (x, y, tag) order, so comparing ids compares
# the tuples, and an edge is the pair of its endpoint ids in ascending order,
# numbered in ascending pair order.  Validation, walls and the contact graph
# run on these ints.  Tuples remain only at the API edge: window.vertices and
# window.edges, Wall.dual_edges, the edges strip_wall_edge and
# last_projection_edge name, and ContactGraph.wall_of_edge's argument.


class WindowSquare(NamedTuple):
    """A square by its four corner vertices."""

    sw: tuple
    se: tuple
    nw: tuple
    ne: tuple


def _edge(a, b):
    return (a, b) if a <= b else (b, a)


def unit_square(x, y, bl_tag=0, br_tag=0):
    """Axis-aligned unit square with optional branch tags on its bottom corners."""
    return WindowSquare((x, y, bl_tag), (x + 1, y, br_tag), (x, y + 1, 0), (x + 1, y + 1, 0))


def _intern(items):
    """The distinct items in sorted order, and a dict from each to its position
    there.  The dict keeps first-seen order, so looking the items up again in
    their original order stays cache-local."""
    ids = dict.fromkeys(items)
    ordered = sorted(ids)
    ids.update(zip(ordered, range(len(ordered))))
    return ordered, ids


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


class CubeWindow:
    """A finite square complex with coordinatized cells.

    The constructor interns every cell once.  vertices is the tuple of vertex
    tuples in id order (sorted); corner_ids holds four vertex ids per square
    (sw, se, nw, ne); edge_keys holds, ascending, the key a * len(vertices) + b
    of each edge's endpoint ids a <= b, so edge e is edge_keys[e]; side_ids
    holds four lists of edge ids (bottom, right, top, left), each indexed by
    square.  edges, the tuple of edge tuples in id order (sorted), is built
    on first use; edge_id maps an edge tuple back to its id.
    """

    def __init__(self, squares, params=None):
        self.params = params
        self.squares = tuple(squares)
        flat = [v for sq in self.squares for v in sq]
        vertices, vertex_id = _intern(flat)
        self.vertices = tuple(vertices)
        n = len(vertices)
        self.corner_ids = corners = list(map(vertex_id.__getitem__, flat))
        sw, se, nw, ne = corners[0::4], corners[1::4], corners[2::4], corners[3::4]
        sides = (_pair_keys(n, sw, se), _pair_keys(n, se, ne), _pair_keys(n, nw, ne), _pair_keys(n, sw, nw))
        self.edge_keys, edge_id = _intern(chain(*sides))
        self.side_ids = tuple(list(map(edge_id.__getitem__, keys)) for keys in sides)

    @cached_property
    def edges(self):
        vs, n = self.vertices, len(self.vertices)
        return tuple((vs[k // n], vs[k % n]) for k in self.edge_keys)

    def edge_id(self, edge):
        """Id of an edge given as its (lesser, greater) vertex tuples; None if
        the window has no such edge."""
        a, b = (_sorted_index(self.vertices, v) for v in edge)
        if a is None or b is None:
            return None
        return _sorted_index(self.edge_keys, a * len(self.vertices) + b)

    def counts(self):
        return {
            "vertices": len(self.vertices),
            "edges": len(self.edge_keys),
            "squares": len(self.squares),
        }

    def euler_characteristic(self):
        return len(self.vertices) - len(self.edge_keys) + len(self.squares)

    def validate(self):
        """Link-condition scan: each quadrant of each vertex holds at most one square.

        Also checks the window is connected and contractible (Euler number 1),
        so it embeds in a CAT(0) square complex.  Raises CscwallsError on any
        failure; returns the count summary.
        """
        holder = [-1] * (4 * len(self.vertices))  # 4 * vertex + quadrant -> square
        for i, v in enumerate(self.corner_ids):
            key = 4 * v + (i & 3)
            if holder[key] >= 0:
                raise CscwallsError(
                    f"link condition fails at {self.vertices[v]}: quadrant {_QUADRANTS[i & 3]} "
                    f"held by squares {holder[key]} and {i >> 2}"
                )
            holder[key] = i >> 2
        if self.euler_characteristic() != 1:
            raise CscwallsError(
                f"window is not contractible: Euler characteristic {self.euler_characteristic()}"
            )
        if not self._connected():
            raise CscwallsError("window is not connected")
        return self.counts()

    def _connected(self):
        n, keys = len(self.vertices), self.edge_keys
        return not any(_least_members(n, [k // n for k in keys], [k % n for k in keys]))

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


def _strip_bottom_tag(params, i, x):
    """0 where strip i's bottom is glued to the flat below (the overlap), else 1."""
    if i >= 1 and (i - 1) * params.shift <= x <= (i - 1) * params.shift + params.overlap_len:
        return 0
    return 1


def _row(bottom, top):
    """The unit squares between two equally long rows of vertices, west to east."""
    return map(WindowSquare, bottom, bottom[1:], top, top[1:])


def build_staircase(params):
    """Assemble and validate the staircase window for the given parameters."""
    squares = []
    for i in range(params.steps + 1):
        lo, hi = _strip_span(params, i)
        y = _LEVEL_PITCH * i
        xs = range(lo, hi + 1)
        bottom = [(x, y, _strip_bottom_tag(params, i, x)) for x in xs]
        squares += _row(bottom, [(x, y + 1, 0) for x in xs])
    for i in range(params.steps):
        lo, hi = _flat_span(params, i)
        base = _LEVEL_PITCH * i + 1
        xs = range(lo, hi + 1)
        rows = [[(x, y, 0) for x in xs] for y in range(base, base + FLAT_ROWS + 1)]
        for bottom, top in zip(rows, rows[1:]):
            squares += _row(bottom, top)
    window = CubeWindow(squares, params=params)
    window.validate()
    return window


# ---------------------------------------------------------------------------
# Walls and the contact graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Wall:
    """An equivalence class of edges under opposite-sides-of-a-square.

    orientation is the direction the wall runs: a wall dual to horizontal
    edges runs vertically and vice versa.  edge_ids are the window's ids of
    the dual edges, ascending; dual_edges, their vertex-tuple pairs, is built
    on first use.
    """

    id: str
    orientation: str  # "horizontal" or "vertical"
    edge_ids: tuple = field(repr=False)
    window: CubeWindow = field(repr=False, compare=False)

    @cached_property
    def dual_edges(self):
        edges = self.window.edges
        return frozenset(edges[e] for e in self.edge_ids)


def walls(window):
    """Partition the window's edges into walls (union-find over squares).

    Walls are numbered by their least dual edge: edge ids ascend with the
    edge tuples, and each class's union-find root is its least edge id.
    """
    bottom, right, top, left = window.side_ids
    root = _least_members(len(window.edge_keys), bottom + right, top + left)
    members = {}
    for e, r in enumerate(root):
        members.setdefault(r, []).append(e)
    vertices = window.vertices
    out = []
    for r, edge_ids in members.items():  # roots first appear in ascending order
        a, b = divmod(window.edge_keys[r], len(vertices))
        orientation = "vertical" if vertices[a][1] == vertices[b][1] else "horizontal"
        out.append(Wall(f"w{len(out):04d}", orientation, tuple(edge_ids), window))
    return tuple(out)


class ContactGraph:
    """Walls as nodes; edges between walls whose carriers share a vertex.

    crossings is the transversality subrelation: walls sharing a square.
    Both are built on wall indices and published keyed by wall id, each
    neighbour tuple sorted as strings.
    """

    def __init__(self, window):
        self.window = window
        self.walls = walls(window)
        self._edge_wall = edge_wall = [0] * len(window.edge_keys)
        for k, w in enumerate(self.walls):
            for e in w.edge_ids:
                edge_wall[e] = k

        n_walls = len(self.walls)
        crossings = [set() for _ in range(n_walls)]
        bottom, _, _, left = window.side_ids
        for e, f in zip(bottom, left):
            wv, wh = edge_wall[e], edge_wall[f]  # wv runs vertically through the square
            crossings[wv].add(wh)
            crossings[wh].add(wv)

        # A square's two walls are dual to its two sides at each corner, and
        # every edge is a side of some square, so the walls whose carriers
        # hold a vertex are exactly the walls of the edges at that vertex.
        n = len(window.vertices)
        at_vertex = [[] for _ in range(n)]
        for key, w in zip(window.edge_keys, edge_wall):
            at_vertex[key // n].append(w)
            at_vertex[key % n].append(w)
        adjacency = [set() for _ in range(n_walls)]
        for bucket in at_vertex:
            for a in bucket:
                adjacency[a].update(bucket)
        names = [w.id for w in self.walls]
        self.neighbors = {}
        for k, adj in enumerate(adjacency):
            adj.discard(k)
            self.neighbors[names[k]] = tuple(sorted([names[j] for j in adj]))
        self.crossings = {names[k]: frozenset([names[j] for j in c]) for k, c in enumerate(crossings)}

    def wall_of_edge(self, edge):
        e = self.window.edge_id(edge)
        if e is None:
            raise UnknownWall(f"no wall is dual to edge {edge}")
        return self.walls[self._edge_wall[e]]

    def crosses(self, a, b):
        return _wall_id(b) in self.crossings[_wall_id(a)]


def _wall_id(wall):
    return wall.id if isinstance(wall, Wall) else wall


def contact_graph(window):
    return ContactGraph(window)


def contact_distances(graph, source):
    """BFS hop counts from one wall to every wall of the contact graph.

    Raises CscwallsError when some wall is unreachable, i.e. when the contact
    graph is disconnected.
    """
    start = _wall_id(source)
    neighbors = graph.neighbors
    if start not in neighbors:
        raise UnknownWall(f"unknown wall {start!r}")
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        d = dist[cur] + 1
        for nxt in neighbors[cur]:
            if nxt not in dist:
                dist[nxt] = d
                queue.append(nxt)
    if len(dist) != len(graph.walls):
        raise CscwallsError("contact graph is disconnected; windows never produce this")
    return dist


def contact_distance(graph, a, b):
    """BFS hop count between two walls in the contact graph."""
    goal = _wall_id(b)
    if goal not in graph.neighbors:
        raise UnknownWall(f"unknown wall {goal!r}")
    return contact_distances(graph, a)[goal]


def contact_graph_dot(graph, highlight=()):
    """DOT rendering with deterministic ordering; highlighted walls are boxed."""
    marked = {_wall_id(w) for w in highlight}
    lines = ["graph contact {"]
    for w in graph.walls:
        attrs = ' [shape=box]' if w.id in marked else ""
        lines.append(f'  "{w.id}"{attrs};')
    seen = set()
    for w in graph.walls:
        for other in graph.neighbors[w.id]:
            key = tuple(sorted((w.id, other)))
            if key not in seen:
                seen.add(key)
                lines.append(f'  "{key[0]}" -- "{key[1]}";')
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


def nonacyl_certificate(params, p, window=None, graph=None):
    """Assemble and self-validate the certificate for the p-th translate.

    Requires p <= steps (the window must contain strip p) and steps at least
    crossing_bound - 1 (otherwise the bound cannot be attained by any wall and
    the window is too short to certify anything).
    """
    if p < 1 or p > params.steps:
        raise InvalidParams(f"p must be in 1..steps, got {p}")
    m = params.crossing_bound
    if params.steps < m - 1:
        raise InvalidParams(
            f"steps={params.steps} cannot attain the crossing bound {m}; need steps >= {m - 1}"
        )
    if window is None:
        window = build_staircase(params)
    if graph is None:
        graph = contact_graph(window)

    family = tuple(
        graph.wall_of_edge(window.strip_wall_edge(i)).id for i in range(params.steps + 1)
    )
    if len(set(family)) != len(family):
        raise CscwallsError("strip walls are not pairwise distinct")
    witness = graph.wall_of_edge(window.last_projection_edge()).id

    # family members are distinct, so each crossing of one adds exactly one
    counts = dict(Counter(w for f in family for w in graph.crossings[f]))
    max_crossing = max(counts.values(), default=0)
    argmax = tuple(sorted(w for w, c in counts.items() if c == max_crossing))

    if max_crossing != m:
        raise CscwallsError(f"max crossing count {max_crossing} != bound {m}")
    if counts.get(witness, 0) != m:
        raise CscwallsError("witness wall does not attain the crossing bound")

    base = family[0]
    from_base = contact_distances(graph, base)
    distances = []
    witnesses = []
    for i in range(1, p + 1):
        d = from_base[family[i]]
        distances.append((i, d))
        if i < m:
            if not (graph.crosses(witness, base) and graph.crosses(witness, family[i])):
                raise CscwallsError(f"witness wall misses translate {i}")
            if d != 2:
                raise CscwallsError(f"distance to translate {i} is {d}, expected 2")
            witnesses.append((i, witness))

    bfs_distance = distances[-1][1]  # the loop above ends at translate p
    bound = Fraction(p, m)
    if bfs_distance < bound:
        raise CscwallsError(
            f"BFS distance {bfs_distance} fell below the counting bound {bound}"
        )

    return NonAcylCertificate(
        params=params,
        p=p,
        crossing_bound=m,
        family=family,
        family_distances=tuple(distances),
        witness_wall=witness,
        witnesses=tuple(witnesses),
        crossing_counts=counts,
        max_crossing=max_crossing,
        max_crossing_walls=argmax,
        lower_bound=bound,
        bfs_distance=bfs_distance,
        bounds_note=_BOUNDS_NOTE,
    )
