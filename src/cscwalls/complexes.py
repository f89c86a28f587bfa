"""VH square-complex presentations and the complete-square-complex condition.

A presentation is a finite set of labeled oriented edges split into a
horizontal and a vertical class, plus a list of squares.  Each square
records its four boundary edges as (bottom, right, top, left), where
bottom/top are read west-to-east and left/right south-to-north, so the
boundary relation bottom*right = left*top holds as paths from the SW to
the NE corner.

The complex is *complete* (a CSC) when every ordered pair of departing
germs (one horizontal, one vertical) at a vertex is a corner of exactly
one square, counting the four corner types of every square once.  This
is the finite criterion for the universal cover being a product of two
trees, and it is what makes rectangle development deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BudgetExceeded,
    ClassError,
    DuplicateLabel,
    NotCSCError,
    ParseError,
)

HORIZONTAL = "horizontal"
VERTICAL = "vertical"

#: Vertex name used by one-vertex presentations.
BASE_VERTEX = "*"

#: Corner types of a square, named by compass position.
CORNERS = ("SW", "SE", "NW", "NE")


def _square_versions(b, r, t, l):
    """The four oriented readings of one geometric square, as germ-id
    (bottom, right, top, left) 4-tuples, in the order of ``CORNERS``: each
    reading puts that corner at the SW position, so its (bottom, left) pair
    is the germ pair at that corner."""
    return (
        (b, r, t, l),
        (b ^ 1, l, t ^ 1, r),
        (t, r ^ 1, b, l ^ 1),
        (t ^ 1, l ^ 1, b ^ 1, r ^ 1),
    )


@dataclass(frozen=True)
class EdgeLabel:
    """A named oriented edge of the quotient complex."""

    name: str
    klass: str  # HORIZONTAL or VERTICAL
    origin: str = BASE_VERTEX
    terminus: str = BASE_VERTEX


@dataclass(frozen=True)
class OrientedEdge:
    """An edge label traversed with (+1) or against (-1) its orientation."""

    label: EdgeLabel
    sign: int = 1

    @property
    def klass(self):
        return self.label.klass

    @property
    def start(self):
        return self.label.origin if self.sign > 0 else self.label.terminus

    @property
    def end(self):
        return self.label.terminus if self.sign > 0 else self.label.origin

    def inverse(self):
        return OrientedEdge(self.label, -self.sign)

    def token(self):
        return self.label.name if self.sign > 0 else "-" + self.label.name

    def __repr__(self):
        return f"OrientedEdge({self.token()!r})"


def _germs(labels):
    """The germ table of one edge class; see ``SquareComplexPresentation.germs``."""
    return tuple(OrientedEdge(label, sign) for label in labels for sign in (1, -1))


@dataclass(frozen=True)
class Square:
    """One 2-cell, recorded from its SW corner.

    bottom and top are horizontal (west to east), left and right vertical
    (south to north).  The other three corner orientations are derived by
    reflection when the corner table is built, so each geometric square is
    stored exactly once.
    """

    bottom: OrientedEdge
    right: OrientedEdge
    top: OrientedEdge
    left: OrientedEdge

    def flip_h(self):
        """The same square read from its SE corner (west-east mirror)."""
        return Square(self.bottom.inverse(), self.left, self.top.inverse(), self.right)

    def flip_v(self):
        """The same square read from its NW corner (south-north mirror)."""
        return Square(self.top, self.right.inverse(), self.bottom, self.left.inverse())

    def corner_vertices(self):
        """(SW, SE, NW, NE) vertices; raises ValueError if the sides do not close up."""
        sw1, sw2 = self.bottom.start, self.left.start
        se1, se2 = self.bottom.end, self.right.start
        nw1, nw2 = self.left.end, self.top.start
        ne1, ne2 = self.right.end, self.top.end
        for corner, (a, b) in zip(CORNERS, ((sw1, sw2), (se1, se2), (nw1, nw2), (ne1, ne2))):
            if a != b:
                raise ValueError(f"{corner} corner joins distinct vertices {a!r} and {b!r}")
        return sw1, se1, nw1, ne1


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the completeness check.

    violations lists (vertex, (horizontal germ token, vertical germ token),
    count) for every germ pair covered a number of times other than one.
    """

    is_csc: bool
    violations: tuple
    corner_count: int


@dataclass(frozen=True)
class CornerTables:
    """Corner-lookup tables for development over a validated one-vertex-per-germ complex.

    Germs are the ids of ``SquareComplexPresentation.germs``, so inversion
    is ``germ ^ 1``.  Each table is a list of
    ``nh`` rows of ``nv`` ints indexed ``[b][l]``: entry (b, l) holds the top
    and right germs of the unique square having the pair (b, l) at a corner,
    read in the orientation that puts that corner at the SW position, with
    that square's index and the corner type (an index into ``CORNERS``).
    Missing entries (multi-vertex complexes only) hold -1.
    """

    nh: int
    nv: int
    top: list
    right: list
    square: list
    corner: list


@dataclass(frozen=True)
class SquareComplexPresentation:
    """A finite VH square complex with labeled oriented edges.

    Immutable after construction; validation and the corner tables are
    computed lazily and cached, so presentations are cheap to share.
    """

    vertices: tuple
    hedges: tuple  # EdgeLabel, class HORIZONTAL
    vedges: tuple  # EdgeLabel, class VERTICAL
    squares: tuple

    # -- label and germ bookkeeping ------------------------------------

    @cached_property
    def edge_by_name(self):
        return {e.name: e for e in self.hedges + self.vedges}

    @cached_property
    def germs(self):
        """The germ table: ``germs[klass][g]`` is the oriented edge with germ id g.

        Letter i of a class has id 2i read with its orientation and 2i+1
        read against it, so inversion is ``g ^ 1``.  Every mapping between
        letters and germ ids reads this table.
        """
        return {HORIZONTAL: _germs(self.hedges), VERTICAL: _germs(self.vedges)}

    @cached_property
    def _germ_ids(self):
        # Keyed by class too: a presentation built directly may reuse a name across classes.
        return {(e.klass, e.label.name, e.sign): g for t in self.germs.values() for g, e in enumerate(t)}

    def germ_id(self, edge):
        """Integer id of an oriented edge inside its class."""
        return self._germ_ids[edge.klass, edge.label.name, edge.sign]

    def germ_edge(self, klass, germ):
        """Inverse of germ_id."""
        return self.germs[klass][germ]

    def _square_ids(self, sq):
        """A square's (bottom, right, top, left) as germ ids."""
        return tuple(self.germ_id(e) for e in (sq.bottom, sq.right, sq.top, sq.left))

    # -- validation ----------------------------------------------------

    @cached_property
    def _corners(self):
        """One pass over the four readings of every square: the corner tables,
        and hits[h][v], the number of readings with the germ pair (h, v) at
        their SW corner.  That corner is the start vertex of h, so hits counts
        the squares with a corner at (start of h, h, v)."""
        nh, nv = 2 * len(self.hedges), 2 * len(self.vedges)
        top, right, square, corner = ([[-1] * nv for _ in range(nh)] for _ in range(4))
        hits = [[0] * nv for _ in range(nh)]
        for s, sq in enumerate(self.squares):
            for code, (b, r, t, l) in enumerate(_square_versions(*self._square_ids(sq))):
                top[b][l] = t
                right[b][l] = r
                square[b][l] = s
                corner[b][l] = code
                hits[b][l] += 1
        return CornerTables(nh, nv, top, right, square, corner), hits

    @cached_property
    def validation(self):
        # Squares with a corner at (vertex, h germ, v germ): exactly one each in a CSC.
        hits = self._corners[1]
        violations = sorted(
            (hg.start, (hg.token(), vg.token()), hits[h][v])
            for h, hg in enumerate(self.germs[HORIZONTAL])
            for v, vg in enumerate(self.germs[VERTICAL])
            if hg.start == vg.start and hits[h][v] != 1
        )
        return ValidationReport(
            is_csc=not violations,
            violations=tuple(violations),
            corner_count=4 * len(self.squares),
        )

    @property
    def is_csc(self):
        return self.validation.is_csc

    @cached_property
    def tables(self):
        """Corner tables for development; raises NotCSCError when invalid."""
        if not self.is_csc:
            raise NotCSCError(
                f"not a complete square complex: {len(self.validation.violations)} corner violations"
            )
        return self._corners[0]

    @cached_property
    def mirrored(self):
        """The west-east mirror image (every square reflected).

        Its top and right corner tables equal this complex's: the SW reading
        of a reflected square is the SE reading of the original, and the
        tables already store all four readings, so development westward
        needs no second presentation.  It is kept as an independent
        construction against which that identity is tested.
        """
        return SquareComplexPresentation(
            vertices=self.vertices,
            hedges=self.hedges,
            vedges=self.vedges,
            squares=tuple(sq.flip_h() for sq in self.squares),
        )


def validate_csc(presentation):
    """Check the completeness condition; never raises, the report carries violations."""
    return presentation.validation


# ---------------------------------------------------------------------------
# Presentation file format (.sqc)
# ---------------------------------------------------------------------------
#
#   # comment
#   vertex: P Q            (optional; one-vertex is implied when absent)
#   hedges: a b            (tokens are names, or name=origin:terminus when
#   vedges: x y             vertices were declared)
#   square: a x a -x       (bottom right top left; '-' reverses orientation)


def _parse_edge_token(token, klass, vertices, lineno):
    if "=" in token:
        name, _, span = token.partition("=")
        if not vertices:
            raise ParseError(lineno, f"edge {name!r} has endpoints but no vertex: directive appeared")
        origin, sep, terminus = span.partition(":")
        if not sep or origin not in vertices or terminus not in vertices:
            raise ParseError(lineno, f"bad endpoints {span!r} for edge {name!r}")
        return EdgeLabel(name, klass, origin, terminus)
    if vertices:
        raise ParseError(lineno, f"edge {token!r} needs endpoints in a multi-vertex file")
    return EdgeLabel(token, klass)


def parse_complex(text):
    """Parse a presentation file; see the format sketch above.

    Raises ParseError (with DuplicateLabel / ClassError subtypes) on malformed
    input.  Edges must be declared before the squares that use them.
    """
    vertices = []
    hedges, vedges = [], []
    seen = {}
    squares = []

    def resolve(token, want_klass, slot, lineno):
        name = token[1:] if token.startswith("-") else token
        edge = seen.get(name)
        if edge is None:
            raise ParseError(lineno, f"unknown edge label {name!r} in square")
        if edge.klass != want_klass:
            raise ClassError(lineno, f"{edge.klass} letter {name!r} in {slot} slot (wants {want_klass})")
        return OrientedEdge(edge, -1 if token.startswith("-") else 1)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, sep, rest = line.partition(":")
        directive = directive.strip().lower()
        if not sep:
            raise ParseError(lineno, f"expected 'directive: ...', got {line!r}")
        tokens = rest.split()
        if directive == "vertex":
            for tok in tokens:
                if tok in vertices:
                    raise ParseError(lineno, f"duplicate vertex {tok!r}")
                vertices.append(tok)
        elif directive in ("hedges", "vedges"):
            klass = HORIZONTAL if directive == "hedges" else VERTICAL
            for tok in tokens:
                edge = _parse_edge_token(tok, klass, vertices, lineno)
                if edge.name in seen:
                    raise DuplicateLabel(lineno, f"edge label {edge.name!r} declared twice")
                seen[edge.name] = edge
                (hedges if klass == HORIZONTAL else vedges).append(edge)
        elif directive == "square":
            if len(tokens) != 4:
                raise ParseError(lineno, f"square needs 4 tokens (bottom right top left), got {len(tokens)}")
            sq = Square(
                bottom=resolve(tokens[0], HORIZONTAL, "bottom", lineno),
                right=resolve(tokens[1], VERTICAL, "right", lineno),
                top=resolve(tokens[2], HORIZONTAL, "top", lineno),
                left=resolve(tokens[3], VERTICAL, "left", lineno),
            )
            try:
                sq.corner_vertices()
            except ValueError as exc:
                raise ParseError(lineno, f"square does not close up: {exc}") from None
            squares.append(sq)
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")

    return SquareComplexPresentation(
        vertices=tuple(vertices) if vertices else (BASE_VERTEX,),
        hedges=tuple(hedges),
        vedges=tuple(vedges),
        squares=tuple(squares),
    )


def load_complex(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    return parse_complex(text)


def serialize_complex(presentation):
    """Render a presentation in the .sqc format; parse(serialize(P)) == P."""
    multi = presentation.vertices != (BASE_VERTEX,)
    lines = []
    if multi:
        lines.append("vertex: " + " ".join(presentation.vertices))

    def edge_tok(e):
        return f"{e.name}={e.origin}:{e.terminus}" if multi else e.name

    if presentation.hedges:
        lines.append("hedges: " + " ".join(edge_tok(e) for e in presentation.hedges))
    if presentation.vedges:
        lines.append("vedges: " + " ".join(edge_tok(e) for e in presentation.vedges))
    for sq in presentation.squares:
        lines.append(
            "square: "
            + " ".join(s.token() for s in (sq.bottom, sq.right, sq.top, sq.left))
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Census of one-vertex complete square complexes
# ---------------------------------------------------------------------------

_H_NAMES = "abc"
_V_NAMES = "xyz"


def _generators(n):
    """Generators of the signed relabelings of n letters, as maps on germ ids:
    the swap of letters i and i+1 for each i, and the inversion of letter 0."""
    maps = []
    for i in range(n - 1):
        swap = list(range(2 * n))
        swap[2 * i : 2 * i + 4] = 2 * i + 2, 2 * i + 3, 2 * i, 2 * i + 1
        maps.append(swap)
    return maps + [[1, 0, *range(2, 2 * n)]]


def _canonical_square(four):
    return min(_square_versions(*four))


def enumerate_csc(h_count, v_count, max_nodes=2_000_000):
    """Yield every one-vertex CSC with the given edge counts, up to relabeling.

    The census is computed as an exact cover: each candidate square occupies
    four germ pairs (its corners), and a CSC is a set of squares covering all
    (2*h_count)*(2*v_count) pairs exactly once.  The usable squares, each in
    its least reading, are numbered in sorted order as tile ids, and every
    cover is a sorted tuple of tile ids.  Each signed relabeling of the edges
    permutes the tile ids.  The relabelings of a class of n letters are
    generated by the n-1 swaps of adjacent letters and the inversion of one
    letter, so only those n tile maps per class are built: each cover not
    yet seen is closed under them into its orbit, every member is marked as
    seen, and the least member stands for the class.  Sorted id tuples
    compare like the sorted square tuples, so that is the least relabeling
    of the squares, and the classes come out in that sorted order.

    Raises BudgetExceeded when the edge counts exceed desk scale (3) or the
    backtracking search exceeds max_nodes nodes.
    """
    if h_count < 0 or v_count < 0:
        raise ValueError("edge counts must be nonnegative")
    if h_count > 3 or v_count > 3:
        raise BudgetExceeded(f"census bound is 3 edges per class, got ({h_count}, {v_count})")
    if h_count == 0 or v_count == 0:
        return
    nh, nv = 2 * h_count, 2 * v_count

    tiles, masks = [], []
    by_pair = [[] for _ in range(nh * nv)]
    for four in itertools.product(range(nh), range(nv), range(nh), range(nv)):
        if four != _canonical_square(four):
            continue
        corners = {h * nv + v for h, _, _, v in _square_versions(*four)}
        if len(corners) < 4:
            continue  # a corner pair repeats inside the square: unusable
        for pid in corners:
            by_pair[pid].append(len(tiles))
        tiles.append(four)
        masks.append(sum(1 << pid for pid in corners))

    full = (1 << (nh * nv)) - 1
    covers = []
    nodes = 0

    def extend(covered, chosen):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceeded(f"census search exceeded {max_nodes} nodes")
        if covered == full:
            covers.append(tuple(sorted(chosen)))
            return
        pid = (~covered & full).bit_length() - 1  # any uncovered pair; highest is fine
        for tile in by_pair[pid]:
            if covered & masks[tile]:
                continue
            chosen.append(tile)
            extend(covered | masks[tile], chosen)
            chosen.pop()

    extend(0, [])

    # A relabeling maps usable squares to usable squares, so each row is a
    # permutation of the tile ids.
    tile_id = {four: i for i, four in enumerate(tiles)}
    generators = [(g, list(range(nv))) for g in _generators(h_count)]
    generators += [(list(range(nh)), g) for g in _generators(v_count)]
    actions = [
        [tile_id[_canonical_square((hm[b], vm[r], hm[t], vm[l]))] for b, r, t, l in tiles]
        for hm, vm in generators
    ]
    seen = set()
    unique = []
    for cover in covers:
        if cover in seen:
            continue
        orbit, todo = {cover}, [cover]
        while todo:
            member = todo.pop()
            for a in actions:
                image = tuple(sorted([a[t] for t in member]))
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        seen |= orbit
        unique.append(min(orbit))
    unique.sort()

    hlabels = tuple(EdgeLabel(_H_NAMES[i], HORIZONTAL) for i in range(h_count))
    vlabels = tuple(EdgeLabel(_V_NAMES[i], VERTICAL) for i in range(v_count))
    hgerms, vgerms = _germs(hlabels), _germs(vlabels)
    for cover in unique:
        squares = tuple(
            Square(bottom=hgerms[b], right=vgerms[r], top=hgerms[t], left=vgerms[l])
            for b, r, t, l in (tiles[i] for i in cover)
        )
        yield SquareComplexPresentation(
            vertices=(BASE_VERTEX,), hedges=hlabels, vedges=vlabels, squares=squares
        )
