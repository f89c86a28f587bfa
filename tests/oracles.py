"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately written against the production code paths:
row-major development (the engine is column-major), overlaps measured one
exponent at a time by stacking periods on h^n and by two divergence streams
(the engine reads them off one orbit sweep per direction), an orbit sweep
that develops each column over the whole right word (the engine walks it in
chunks through a table and keeps short columns in a dict shared by one
complex's verdicts), overlap ends read by scanning a per-column list of
orbit lengths (the engine keeps only the columns where the length rises),
commuting-powers searches that develop every rectangle from scratch instead
of stacking vertical periods or read that block-by-block sweep, candidate
words filtered from every germ-id tuple, a census oracle that filters raw
4-tuples instead of running the exact-cover search, a census class count by
Burnside's lemma that never forms a class, staircase window vertices,
edges, counts, validation, walls and contact graphs on vertex and edge tuples
instead of row runs (the engine keeps no vertex or edge tuples, and its walls
need the link condition, where these take any squares), windows of any unit
squares under the link condition grouped into one-row runs (the package
builds only staircases), a contact-graph DOT
writer that goes through wall ids and a seen-set instead of wall numbers,
staircase crossing counts and contact distances taken wall by wall
instead of from the family side and one breadth-first search, and all
contact distances from one wall by a breadth-first search over a neighbour
map keyed by wall id instead of the engine's per-wall lists.
"""

import functools
import itertools
from collections import deque
from types import SimpleNamespace
from typing import NamedTuple

from cscwalls.antitorus import PERIODIC_FLAT_DIAGNOSTIC, GammaResult
from cscwalls.complexes import HORIZONTAL, VERTICAL
from cscwalls.develop import Word, _word_ids, develop_ids, stream_mismatch_ids
from cscwalls.errors import DEFAULT_I_MAX, DEFAULT_K_MAX, BudgetExceeded, CscwallsError
from cscwalls.staircase import CubeWindow, WindowSquare


def develop_row_major(presentation, bottom_word, left_word):
    """Row-by-row development; must agree with the column-major engine."""
    tables = presentation.tables
    top_rows, right_rows = tables.top, tables.right
    bottom = [presentation.germ_id(e) for e in bottom_word.letters]
    right = []
    for left_letter in left_word.letters:
        v = presentation.germ_id(left_letter)
        for i, b in enumerate(bottom):
            nb = top_rows[b][v]
            v = right_rows[b][v]
            bottom[i] = nb
        right.append(v)
    top = [presentation.germ_edge(HORIZONTAL, g) for g in bottom]
    right = [presentation.germ_edge(VERTICAL, g) for g in right]
    return top, right


def commuting_powers_by_rectangles(query, k_bound=8, j_bound=8):
    """Reference commuting-powers search: the least (k, j), lexicographically,
    whose k x j rectangle, developed from scratch row by row, closes up into
    a torus; None within the bounds otherwise."""
    p = query.complex
    for k in range(1, k_bound + 1):
        bottom = query.hword.power(k)
        for j in range(1, j_bound + 1):
            left = query.vword.power(j)
            top, right = develop_row_major(p, bottom, left)
            if tuple(top) == bottom.letters and tuple(right) == left.letters:
                return (k, j)
    return None


def periodic_ids_by_filtering(n_germs, max_len):
    """Germ-id tuples of every primitive cyclically reduced word up to max_len,
    sorted by (length, ids): every tuple is generated, then filtered."""
    out = []
    for n in range(1, max_len + 1):
        for ids in itertools.product(range(n_germs), repeat=n):
            if any(b == a ^ 1 for a, b in zip(ids, ids[1:] + ids[:1])):
                continue  # not cyclically reduced (or not reduced)
            if any(n % d == 0 and ids == ids[:d] * (n // d) for d in range(1, n)):
                continue  # a proper power
            out.append(ids)
    return sorted(out, key=lambda ids: (len(ids), ids))


def _versions(four):
    b, r, t, l = four
    return (
        (b, r, t, l),
        (b ^ 1, l, t ^ 1, r),
        (t, r ^ 1, b, l ^ 1),
        (t ^ 1, l ^ 1, b ^ 1, r ^ 1),
    )


def _corners(four):
    b, r, t, l = four
    return ((b, l), (b ^ 1, r), (t, l ^ 1), (t ^ 1, r ^ 1))


def _signed_maps(n):
    """Signed permutations of n letters, as maps on germ ids."""
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((0, 1), repeat=n):
            out.append(tuple(2 * perm[i] + (e ^ signs[i]) for i in range(n) for e in (0, 1)))
    return out


def _usable_squares(nh, nv):
    """Least readings of the geometric squares whose four corners differ, sorted."""
    squares = {
        min(_versions(four)) for four in itertools.product(range(nh), range(nv), range(nh), range(nv))
    }
    return sorted(sq for sq in squares if len(set(_corners(sq))) == 4)


def census_by_filtering(h_count, v_count):
    """All one-vertex CSCs with the given edge counts, up to relabeling.

    Brute force: every set of geometric squares whose combined corners hit
    each (h germ, v germ) pair exactly once, then orbit-quotient under signed
    letter permutations.  Returns the set of canonical forms (sorted square
    tuples).
    """
    nh, nv = 2 * h_count, 2 * v_count
    n_pairs = nh * nv
    usable = _usable_squares(nh, nv)

    covers = []
    need = n_pairs // 4
    for combo in itertools.combinations(usable, need):
        hit = set()
        for sq in combo:
            hit.update(_corners(sq))
        if len(hit) == n_pairs:
            covers.append(tuple(sorted(combo)))

    # orbit quotient under signed permutations of each letter class
    hmaps, vmaps = _signed_maps(h_count), _signed_maps(v_count)
    canonical = set()
    for cover in covers:
        best = min(
            tuple(sorted(min(_versions((hm[b], vm[r], hm[t], vm[l]))) for b, r, t, l in cover))
            for hm in hmaps
            for vm in vmaps
        )
        canonical.add(best)
    return canonical


def census_count_by_burnside(h_count, v_count):
    """Number of census classes by Burnside's lemma, with no class formed.

    The classes are the orbits of the signed relabelings g on exact covers,
    so there are (1/|G|)·Σ_g |Fix(g)| of them.  A cover fixed by g is a union
    of <g>-orbits of squares, and an orbit can be part of a cover only when
    its squares' corners are pairwise distinct.  Fix(g) counts the exact
    covers of the germ pairs by such orbits, memoized on the covered pairs.
    """
    nh, nv = 2 * h_count, 2 * v_count
    usable = _usable_squares(nh, nv)
    full = (1 << (nh * nv)) - 1
    group = [(hm, vm) for hm in _signed_maps(h_count) for vm in _signed_maps(v_count)]
    fixed = 0
    for hm, vm in group:
        image = {
            (b, r, t, l): min(_versions((hm[b], vm[r], hm[t], vm[l]))) for b, r, t, l in usable
        }
        blocks, placed = [], set()
        for sq in usable:
            if sq in placed:
                continue
            orbit = [sq]
            while image[orbit[-1]] != sq:
                orbit.append(image[orbit[-1]])
            placed.update(orbit)
            pairs = [h * nv + v for member in orbit for h, v in _corners(member)]
            if len(set(pairs)) == len(pairs):
                blocks.append(sum(1 << pid for pid in pairs))

        @functools.cache
        def exact_covers(covered):
            if covered == full:
                return 1
            low = ~covered & (covered + 1)  # the lowest uncovered pair
            return sum(exact_covers(covered | m) for m in blocks if m & low and not m & covered)

        fixed += exact_covers(0)
    classes, rest = divmod(fixed, len(group))
    assert rest == 0, f"Burnside sum {fixed} is not a multiple of |G| = {len(group)}"
    return classes


def presentation_canonical_form(presentation):
    """Canonical germ-id square set of a one-vertex presentation (no relabeling)."""
    return tuple(
        sorted(
            min(
                _versions(
                    (
                        presentation.germ_id(sq.bottom),
                        presentation.germ_id(sq.right),
                        presentation.germ_id(sq.top),
                        presentation.germ_id(sq.left),
                    )
                )
            )
            for sq in presentation.squares
        )
    )


def pigeonhole_by_memory(query, n, i_max=10**6):
    """Reference pigeonhole that assumes nothing about the first repeat:
    remember every developed top of h^n under stacked vertical periods and
    stop at the first repeat.

    Returns (j, first_repeat): the height gap of the first repetition and the
    number of stacked periods at which it was seen.  Development is row-major.
    """
    p = query.complex
    top = query.hword.power(n)
    seen = {top.letters: 0}
    for m in range(1, i_max + 1):
        letters, _ = develop_row_major(p, top, query.vword.period)
        top = Word(tuple(letters), HORIZONTAL)
        if top.letters in seen:
            return m - seen[top.letters], m
        seen[top.letters] = m
    raise AssertionError(f"no repeated top within {i_max} developed words")


def find_periodic_top_by_stacking(query, n, i_max=DEFAULT_I_MAX):
    """Reference height at exponent n: stack vertical periods on the n-th
    power of the horizontal word until the developed top returns to the
    bottom (the engine reads j(n*|w1|) off the query's sweep).

    Returns (j, first_repeat) with first_repeat == j: the least j with
    fill_rectangle(h^n, v^j).top == h^n.  No earlier top needs remembering.  In a
    CSC every cell is determined by its SW corner pair and equally by its NW
    corner pair, so stacking one vertical period is a bijection on the finite
    set of words of length n*|w1|; the orbit of the bottom is purely periodic
    and the first repeated top is the bottom itself.  i_max caps the number
    of stacked periods.  Development is unique, so the tall rectangle of
    height j periods has the same top as the stack and is not developed
    again.
    """
    tables = query.complex.tables
    v_ids = _word_ids(query.complex, query.vword.period)
    bottom = _word_ids(query.complex, query.hword.power(n))
    top = bottom
    for j in range(1, i_max + 1):
        top, _ = develop_ids(tables, top, v_ids)
        if top == bottom:
            return j, j
    raise BudgetExceeded(f"no repeated top within {i_max} developed words")


def overlap_at_height_by_streaming(query, j, k_max=DEFAULT_K_MAX):
    """Reference agreement lengths (west, east) between the horizontal
    periodic line and the flat's label line at height j vertical periods (the
    engine reads them off the query's sweeps).

    Each direction streams columns of the rectangle of height j periods,
    bottom extended by a horizontal period, until the developed top first
    diverges from the periodic word: eastward with the horizontal word,
    westward with its inverse.  Reading a square from its SE corner is one of
    the four readings the corner tables store, so the mirror image of the
    flat develops on the same tables and no mirrored complex is built.  East
    runs first.  Raises BudgetExceeded with a periodic-flat diagnostic when
    either direction fails to diverge within k_max periods.
    """
    p = query.complex
    side = _word_ids(p, query.vword.period) * j
    max_cols = k_max * len(query.hword)
    lengths = {}
    for direction, hword in (("east", query.hword), ("west", query.hword.inverse())):
        cols = stream_mismatch_ids(p.tables, _word_ids(p, hword.period), side, max_cols)
        if cols < 0:
            raise BudgetExceeded(
                f"no divergence {direction} of the basepoint within {k_max} periods",
                diagnostic=PERIODIC_FLAT_DIAGNOSTIC,
            )
        lengths[direction] = cols
    return lengths["west"], lengths["east"]


def overlap_gamma_by_streams(query, n, k_max=10**4, i_max=10**6):
    """Reference overlap at exponent n: stack vertical periods on h^n until
    the top comes back (find_periodic_top_by_stacking), then stream columns
    east and west at that height until the first mismatch
    (overlap_at_height_by_streaming)."""
    j, _ = find_periodic_top_by_stacking(query, n, i_max=i_max)
    left_len, right_len = overlap_at_height_by_streaming(query, j, k_max=k_max)
    return GammaResult(
        n=n,
        j=j,
        left_len=left_len,
        right_len=right_len,
        total_len=left_len + right_len,
        y_offset=j * len(query.vword),
    )


def orbit_lengths_by_blocks(tables, period_ids, side_ids):
    """Reference orbit sweep: yield (j(N), R) as develop.orbit_lengths does,
    developing each column over the whole right word R one block at a time,
    with no chunks and no table.  Each block is one develop_ids call of
    len(R) cells, and each R is a new list."""
    plen = len(period_ids)
    right, j = side_ids, 1
    for col in itertools.count():
        b = top = period_ids[col % plen]
        next_right, t = [], 0
        while True:
            (top,), block = develop_ids(tables, (top,), right)
            next_right += block
            t += 1
            if top == b:
                break
        right, j = next_right, j * t
        yield j, right


class SweepByScan:
    """Reference for the overlap readers' sweep (antitorus._Sweep): j(0) = 1,
    j(1), ... of orbit_lengths_by_blocks kept one per developed column, with
    every agreement read scanning the columns one by one from the first.
    Each read develops columns while its cap allows, as the engine's does."""

    def __init__(self, tables, period_ids, side_ids):
        self._lengths = orbit_lengths_by_blocks(tables, period_ids, side_ids)
        self.js = [1]

    @property
    def cols(self):
        return len(self.js) - 1

    def height(self, cols, max_j):
        js = self.js
        while len(js) <= cols and js[-1] <= max_j:
            js.append(next(self._lengths)[0])
        return js[min(cols, len(js) - 1)]

    def agreement(self, j, max_cols):
        cols = 0
        while cols < max_cols and j % self.height(cols + 1, j) == 0:
            cols += 1
        return cols if cols < max_cols else None


def commuting_powers_by_blocks(tables, h_ids, v_ids, k_bound=8, j_bound=8):
    """Reference commuting-powers verdict on germ ids: the least (k, j) read
    off orbit_lengths_by_blocks at each period boundary, stopping at the
    first j above j_bound; no chunk table and no dict of developed columns."""
    v_ids = list(v_ids)
    sweep = orbit_lengths_by_blocks(tables, h_ids, v_ids)
    for cols, (j, right) in zip(range(1, k_bound * len(h_ids) + 1), sweep):
        if j > j_bound:
            return None
        if cols % len(h_ids) == 0 and right == v_ids * j:
            return (cols // len(h_ids), j)
    return None


def periodic_agreement(presentation, period, left_word, width):
    """Leading columns on which the row-major developed top of the periodic
    bottom word (the first `width` letters of period repeated) equals that
    bottom; `width` when they agree throughout."""
    letters = period.letters
    bottom = tuple(letters[i % len(letters)] for i in range(width))
    top, _ = develop_row_major(presentation, Word(bottom, HORIZONTAL), left_word)
    return next((i for i, (a, b) in enumerate(zip(top, bottom)) if a != b), width)


def crossing_counts_by_scan(graph, family):
    """Strip walls of `family` crossed by each wall, scanning every wall
    against every family member; walls that cross none are left out."""
    counts = {}
    for w in graph.walls:
        c = sum(1 for f in family if f in graph.crossings[w])
        if c:
            counts[w] = c
    return counts


def contact_distance_by_search(graph, a, b):
    """Hop count between wall ids a and b by a breadth-first search from a
    that stops as soon as it reaches b."""
    if a == b:
        return 0
    dist = {a: 0}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        for nxt in graph.neighbors[cur]:
            if nxt in dist:
                continue
            dist[nxt] = dist[cur] + 1
            if nxt == b:
                return dist[nxt]
            queue.append(nxt)
    raise AssertionError(f"wall {b} is unreachable from {a}")


def contact_distances_by_search(neighbors, source):
    """Hop counts from wall id source to every wall it reaches, by a
    breadth-first search over a neighbour map keyed by wall id."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        for nxt in neighbors[cur]:
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


class TupleWall(NamedTuple):
    id: str
    dual_edges: frozenset


def unit_square(x, y, bl_tag=0, br_tag=0, tl_tag=0, tr_tag=0):
    """Axis-aligned unit square with optional branch tags on its corners."""
    return WindowSquare((x, y, bl_tag), (x + 1, y, br_tag), (x, y + 1, tl_tag), (x + 1, y + 1, tr_tag))


def _edge(a, b):
    return (a, b) if a <= b else (b, a)


def _sides(sq):
    """(bottom, right, top, left) of a window square as vertex-tuple pairs."""
    return _edge(sq.sw, sq.se), _edge(sq.se, sq.ne), _edge(sq.nw, sq.ne), _edge(sq.sw, sq.nw)


def vertices_by_tuples(squares):
    """The set of the squares' corner tuples."""
    return {v for sq in squares for v in sq}


def edges_by_tuples(squares):
    """The set of the squares' sides, each as its (lesser, greater) vertex tuples."""
    return {e for sq in squares for e in _sides(sq)}


def counts_by_tuples(squares):
    """Vertex, edge and square counts of any list of squares, from the sets of
    their corner tuples and side tuples."""
    return {
        "vertices": len(vertices_by_tuples(squares)),
        "edges": len(edges_by_tuples(squares)),
        "squares": len(squares),
    }


def validate_by_tuples(squares):
    """Check any list of squares on their vertex tuples: a square-by-square
    quadrant scan for the link condition, the Euler number 1 from the sets
    of vertices and edges, and a depth-first search for connectivity.
    Returns the count summary of CubeWindow.counts; raises CscwallsError,
    naming the first failure."""
    holder = {}
    for i, sq in enumerate(squares):
        # corners sw, se, nw, ne fill the NE, NW, SE and SW quadrants of their vertices
        for quadrant, vertex in zip(("NE", "NW", "SE", "SW"), sq):
            if (vertex, quadrant) in holder:
                raise CscwallsError(
                    f"link condition fails at {vertex}: quadrant {quadrant} "
                    f"held by squares {holder[vertex, quadrant]} and {i}"
                )
            holder[vertex, quadrant] = i
    vertices, edges = vertices_by_tuples(squares), edges_by_tuples(squares)
    euler = len(vertices) - len(edges) + len(squares)
    if euler != 1:
        raise CscwallsError(f"window is not contractible: Euler characteristic {euler}")
    around = {v: [] for v in vertices}
    for a, b in edges:
        around[a].append(b)
        around[b].append(a)
    start = min(vertices)
    seen, stack = {start}, [start]
    while stack:
        for nxt in around[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if seen != vertices:
        raise CscwallsError("window is not connected")
    return {"vertices": len(vertices), "edges": len(edges), "squares": len(squares)}


def _segments(a, tags):
    """The maximal constant-tag segments (x0, x1, tag) of tags at x = a, a+1, ..."""
    out = []
    x0 = a
    for x, (t, u) in enumerate(itertools.pairwise(tags), a):
        if t != u:
            out.append((x0, x, t))
            x0 = x + 1
    out.append((x0, a + len(tags) - 1, tags[-1]))
    return tuple(out)


def window_of(squares):
    """The CubeWindow of unit squares that satisfy the link condition (see
    validate_by_tuples; nothing here checks it), as one-row runs, bottom to
    top.  Taken by row and column, a square continues the run whose open
    east side, the vertical edge keyed (x, y, bottom tag, top tag), is its
    west side, and starts a run where none is.  Under the link condition at
    most one square lies on each side of a vertical edge, so no two runs
    share one."""
    runs = []
    ends = {}  # a run's open east side -> the run, as [a, bottom tags, top tags]
    for (x, y, sw), (_, _, se), (_, _, nw), (_, _, ne) in sorted(squares, key=lambda sq: (sq.sw[1], sq.sw[0])):
        run = ends.pop((x, y, sw, nw), None)
        if run is None:
            run = [x, [sw], [nw]]
            runs.append((y, run))
        run[1].append(se)
        run[2].append(ne)
        ends[x + 1, y, se, ne] = run
    return CubeWindow(
        [(y, a, a + len(top) - 1, _segments(a, bottom), _segments(a, top), 1) for y, (a, bottom, top) in runs]
    )


def walls_by_tuples(window):
    """Walls by a union-find keyed by edge tuples, read straight off the
    window's squares; ids numbered by each wall's least dual edge."""
    parent = {}

    def find(e):
        root = e
        while parent[root] != root:
            root = parent[root]
        while parent[e] != root:
            parent[e], e = root, parent[e]
        return root

    for sq in window.squares:
        for e in _sides(sq):
            parent.setdefault(e, e)
    for sq in window.squares:
        bottom, right, top, left = _sides(sq)
        for a, b in ((bottom, top), (left, right)):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

    classes = {}
    for e in parent:
        classes.setdefault(find(e), []).append(e)
    out = []
    for members in sorted(classes.values(), key=min):
        out.append(TupleWall(f"w{len(out):04d}", frozenset(members)))
    return tuple(out)


def contact_graph_by_tuples(window):
    """Contact graph keyed by wall-id strings, built from every corner of
    every square; `walls`, `neighbors` and `crossings` mirror ContactGraph."""
    wall_set = walls_by_tuples(window)
    edge_wall = {e: w.id for w in wall_set for e in w.dual_edges}
    crossings = {w.id: set() for w in wall_set}
    at_vertex = {}
    for sq in window.squares:
        bottom, _, _, left = _sides(sq)
        wv, wh = edge_wall[bottom], edge_wall[left]
        crossings[wv].add(wh)
        crossings[wh].add(wv)
        for vertex in (sq.sw, sq.se, sq.nw, sq.ne):
            at_vertex.setdefault(vertex, set()).update((wv, wh))
    neighbors = {w.id: set() for w in wall_set}
    for bucket in at_vertex.values():
        for a in bucket:
            neighbors[a].update(bucket)
    for k, v in neighbors.items():
        v.discard(k)
    return SimpleNamespace(
        walls=wall_set,
        neighbors={k: tuple(sorted(v)) for k, v in neighbors.items()},
        crossings={k: frozenset(v) for k, v in crossings.items()},
    )


def contact_graph_dot_by_names(graph):
    """contact_graph_dot through wall ids: every wall's neighbour tuple in
    turn, each contact printed the first time one of its two ids is reached
    and skipped after through a set of the pairs already printed."""
    lines = ["graph contact {"]
    for w in graph.walls:
        lines.append(f'  "{w.id}";')
    seen = set()
    for w in graph.walls:
        for other in graph.neighbors[w.id]:
            key = tuple(sorted((w.id, other)))
            if key not in seen:
                seen.add(key)
                lines.append(f'  "{key[0]}" -- "{key[1]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
