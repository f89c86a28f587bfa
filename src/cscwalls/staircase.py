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

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction

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
        return {
            "overlap_len": self.overlap_len,
            "shift": self.shift,
            "steps": self.steps,
            "margin": self.margin,
        }


# Vertices are (x, y, tag): tag 0 on the main sheet, tag 1 on a strip bottom
# hanging beyond the overlap with the flat below.


@dataclass(frozen=True)
class WindowSquare:
    sw: tuple
    se: tuple
    nw: tuple
    ne: tuple

    @property
    def bottom(self):
        return _edge(self.sw, self.se)

    @property
    def top(self):
        return _edge(self.nw, self.ne)

    @property
    def left(self):
        return _edge(self.sw, self.nw)

    @property
    def right(self):
        return _edge(self.se, self.ne)

    def edges(self):
        return (self.bottom, self.right, self.top, self.left)

    def corners(self):
        return (self.sw, self.se, self.nw, self.ne)


def _edge(a, b):
    return (a, b) if a <= b else (b, a)


def unit_square(x, y, bl_tag=0, br_tag=0):
    """Axis-aligned unit square with optional branch tags on its bottom corners."""
    return WindowSquare(
        sw=(x, y, bl_tag),
        se=(x + 1, y, br_tag),
        nw=(x, y + 1, 0),
        ne=(x + 1, y + 1, 0),
    )


class CubeWindow:
    """A finite square complex with coordinatized cells."""

    def __init__(self, squares, params=None):
        self.params = params
        self.squares = tuple(squares)
        vertices = set()
        edges = set()
        for sq in self.squares:
            vertices.update(sq.corners())
            edges.update(sq.edges())
        self.vertices = frozenset(vertices)
        self.edges = frozenset(edges)

    def counts(self):
        return {
            "vertices": len(self.vertices),
            "edges": len(self.edges),
            "squares": len(self.squares),
        }

    def euler_characteristic(self):
        return len(self.vertices) - len(self.edges) + len(self.squares)

    def validate(self):
        """Link-condition scan: each quadrant of each vertex holds at most one square.

        Also checks the window is connected and contractible (Euler number 1),
        so it embeds in a CAT(0) square complex.  Raises CscwallsError on any
        failure; returns the count summary.
        """
        occupied = {}
        for idx, sq in enumerate(self.squares):
            for vertex, quadrant in (
                (sq.sw, "NE"),
                (sq.se, "NW"),
                (sq.nw, "SE"),
                (sq.ne, "SW"),
            ):
                key = (vertex, quadrant)
                if key in occupied:
                    raise CscwallsError(
                        f"link condition fails at {vertex}: quadrant {quadrant} "
                        f"held by squares {occupied[key]} and {idx}"
                    )
                occupied[key] = idx
        if self.euler_characteristic() != 1:
            raise CscwallsError(
                f"window is not contractible: Euler characteristic {self.euler_characteristic()}"
            )
        if not self._connected():
            raise CscwallsError("window is not connected")
        return self.counts()

    def _connected(self):
        if not self.vertices:
            return True
        adjacency = {}
        for a, b in self.edges:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        start = min(self.vertices)
        seen = {start}
        queue = deque([start])
        while queue:
            for nxt in adjacency.get(queue.popleft(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return len(seen) == len(self.vertices)

    # -- named cells of the staircase ------------------------------------

    def strip_row(self, i):
        """y coordinate of the squares of strip i."""
        return _LEVEL_PITCH * i

    def strip_wall_edge(self, i):
        """A vertical edge surely dual to strip i's wall: its westmost one."""
        p = self.params
        lo, _ = _strip_span(p, i)
        y = self.strip_row(i)
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


def _strip_bottom_tag(params, i, x):
    """0 where strip i's bottom is glued to the flat below (the overlap), else 1."""
    if i >= 1 and (i - 1) * params.shift <= x <= (i - 1) * params.shift + params.overlap_len:
        return 0
    return 1


def build_staircase(params):
    """Assemble and validate the staircase window for the given parameters."""
    squares = []
    for i in range(params.steps + 1):
        lo, hi = _strip_span(params, i)
        y = _LEVEL_PITCH * i
        for x in range(lo, hi):
            squares.append(
                unit_square(
                    x,
                    y,
                    bl_tag=_strip_bottom_tag(params, i, x),
                    br_tag=_strip_bottom_tag(params, i, x + 1),
                )
            )
    for i in range(params.steps):
        lo, hi = _flat_span(params, i)
        base = _LEVEL_PITCH * i + 1
        for y in range(base, base + FLAT_ROWS):
            for x in range(lo, hi):
                squares.append(unit_square(x, y))
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
    edges runs vertically and vice versa.
    """

    id: str
    orientation: str  # "horizontal" or "vertical"
    dual_edges: frozenset


def _is_horizontal_edge(edge):
    (x1, y1, _), (x2, y2, _) = edge
    return y1 == y2


def walls(window):
    """Partition the window's edges into walls (union-find over squares)."""
    parent = {}

    def find(e):
        root = e
        while parent[root] != root:
            root = parent[root]
        while parent[e] != root:
            parent[e], e = root, parent[e]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for e in window.edges:
        parent[e] = e
    for sq in window.squares:
        union(sq.bottom, sq.top)
        union(sq.left, sq.right)

    classes = {}
    for e in window.edges:
        classes.setdefault(find(e), []).append(e)

    out = []
    for root in sorted(classes, key=lambda r: min(classes[r])):
        dual = frozenset(classes[root])
        orientation = "vertical" if _is_horizontal_edge(root) else "horizontal"
        out.append(Wall(id=f"w{len(out):04d}", orientation=orientation, dual_edges=dual))
    return tuple(out)


class ContactGraph:
    """Walls as nodes; edges between walls whose carriers share a vertex.

    crossings is the transversality subrelation: walls sharing a square.
    """

    def __init__(self, window, wall_set=None):
        self.walls = tuple(wall_set) if wall_set is not None else walls(window)
        self.by_id = {w.id: w for w in self.walls}
        self._edge_wall = {}
        for w in self.walls:
            for e in w.dual_edges:
                self._edge_wall[e] = w.id

        vertex_walls = {}
        crossings = {w.id: set() for w in self.walls}
        for sq in window.squares:
            wv = self._edge_wall[sq.bottom]  # runs vertically through sq
            wh = self._edge_wall[sq.left]  # runs horizontally through sq
            crossings[wv].add(wh)
            crossings[wh].add(wv)
            for vertex in sq.corners():
                bucket = vertex_walls.setdefault(vertex, set())
                bucket.add(wv)
                bucket.add(wh)

        adjacency = {w.id: set() for w in self.walls}
        for bucket in vertex_walls.values():
            for a in bucket:
                adjacency[a].update(bucket)
        for k, v in adjacency.items():
            v.discard(k)
        self.neighbors = {k: tuple(sorted(v)) for k, v in adjacency.items()}
        self.crossings = {k: frozenset(v) for k, v in crossings.items()}

    def wall_of_edge(self, edge):
        try:
            return self.by_id[self._edge_wall[edge]]
        except KeyError:
            raise UnknownWall(f"no wall is dual to edge {edge}") from None

    def crosses(self, a, b):
        return _wall_id(b) in self.crossings[_wall_id(a)]


def _wall_id(wall):
    return wall.id if isinstance(wall, Wall) else wall


def contact_graph(window, wall_set=None):
    return ContactGraph(window, wall_set)


def contact_distances(graph, source):
    """BFS hop counts from one wall to every wall of the contact graph.

    Raises CscwallsError when some wall is unreachable, i.e. when the contact
    graph is disconnected.
    """
    start = _wall_id(source)
    if start not in graph.by_id:
        raise UnknownWall(f"unknown wall {start!r}")
    neighbors = graph.neighbors
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
    if goal not in graph.by_id:
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
