"""Bounded aperiodicity screening and geodesic-flat overlap computation.

A horizontal periodic word and a vertical periodic word through the base
vertex span a flat in the universal cover.  The flat is periodic exactly
when some nonzero powers of the two translations commute, which shows up
combinatorially as a rectangle whose developed top and right sides repeat
its bottom and left sides; ``commuting_powers_search`` reads this off one
orbit sweep.

When no such rectangle exists, widening rectangles develop tops that
eventually diverge from the horizontal periodic word, and the overlap of
the corresponding parallel geodesic with the flat is a finite segment.
``overlap_gamma`` measures that segment from two orbit sweeps
(``develop.orbit_lengths``): for every prefix length N of the horizontal
periodic word, the least number j(N) of stacked vertical periods that
returns that prefix.  The height for exponent n is j(n*|w1|), and the
overlap runs east as far as j(N) divides that height; the west end comes
from the same sweep of the inverse word on the same corner tables.

``find_periodic_top`` (stack periods on h^n until the top comes back) and
``overlap_at_height`` (stream columns at a fixed height until the first
mismatch) compute the same quantities one exponent at a time; they are kept
as in-package references for the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

from .complexes import HORIZONTAL, VERTICAL
from .errors import BudgetExceeded, UnsupportedComplexError, WordError
from .develop import (
    PeriodicWord,
    _ids_word,
    _word_ids,
    develop_ids,
    orbit_lengths,
    stream_mismatch_ids,
)

#: Default cap on the height j, the orbit length of h^n (in vertical periods).
DEFAULT_I_MAX = 10**6

#: Default cap on the columns of each orbit sweep (in periods of the
#: horizontal word).
DEFAULT_K_MAX = 10**4

PERIODIC_FLAT_DIAGNOSTIC = "periodic flat suspected: the pair may not span an aperiodic flat"


@dataclass(frozen=True)
class AntiTorusQuery:
    """A complex with a horizontal/vertical pair of primitive periodic words.

    The base vertex is implicit (one-vertex complexes only).
    """

    complex: object  # SquareComplexPresentation
    hword: PeriodicWord
    vword: PeriodicWord

    def __post_init__(self):
        if len(self.complex.vertices) != 1:
            raise UnsupportedComplexError("queries require a one-vertex complex")
        if self.hword.klass != HORIZONTAL:
            raise WordError("hword must be horizontal")
        if self.vword.klass != VERTICAL:
            raise WordError("vword must be vertical")


@dataclass(frozen=True)
class GammaResult:
    """The finite overlap of a parallel horizontal geodesic with the flat.

    Lengths count edges.  The overlap spans left_len edges west and right_len
    edges east of the basepoint column; the geodesic runs at height y_offset
    (the j-th power of the vertical word).
    """

    n: int
    j: int
    left_len: int
    right_len: int
    total_len: int
    y_offset: int

    def to_dict(self):
        return asdict(self)


def commuting_powers_search(query, k_bound=8, j_bound=8):
    """Smallest (k, j), lexicographically, with commuting k-th and j-th powers.

    The k x i rectangle of h^k and v^i closes up into a torus (top equals
    bottom, right equals left) exactly when these powers commute.  On one
    orbit sweep (develop.orbit_lengths) at N = k*|w1|, it returns its bottom
    iff j(N) divides i, and is then i/j(N) copies of the height-j(N)
    rectangle, with right word R^(i/j(N)); that is v^i iff R = v^j(N).  So the
    least closing height for k is j(N) or none, and since j(N) never falls
    the search stops at the first j(N) above j_bound.  None certifies the
    aperiodicity hypothesis up to the bounds (never beyond them).
    """
    h_ids = _word_ids(query.complex, query.hword.period)
    v_ids = _word_ids(query.complex, query.vword.period)
    sweep = orbit_lengths(query.complex.tables, h_ids, v_ids)
    for cols, (j, right) in zip(range(1, k_bound * len(h_ids) + 1), sweep):
        if j > j_bound:
            return None
        if cols % len(h_ids) == 0 and right == v_ids * j:
            return (cols // len(h_ids), j)
    return None


def find_periodic_top(query, n, i_max=DEFAULT_I_MAX):
    """Stack vertical periods on the n-th power of the horizontal word until
    the developed top returns to the bottom.

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


def overlap_at_height(query, j, k_max=DEFAULT_K_MAX):
    """Agreement lengths (west, east) between the horizontal periodic line and
    the flat's label line at height j vertical periods.

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


class _Sweep:
    """j(0) = 1, j(1), j(2), ... of one orbit sweep (develop.orbit_lengths),
    developed on demand and kept.

    Lengths only grow, so the sweep stops at the first one above max_j and
    gives that one for every later column too.
    """

    def __init__(self, tables, period_ids, side_ids, max_j, max_cols):
        self._lengths = orbit_lengths(tables, period_ids, side_ids)
        self._js = [1]
        self._max_j, self._max_cols = max_j, max_cols
        self._agreement = {}

    def __getitem__(self, cols):
        js = self._js
        while len(js) <= cols and js[-1] <= self._max_j:
            js.append(next(self._lengths)[0])
        return js[min(cols, len(js) - 1)]

    def agreement(self, j):
        """Leading columns of the periodic word that j stacked periods return:
        the largest N with j(N) dividing j, or None when N reaches max_cols."""
        if j not in self._agreement:
            cols = 0
            while cols < self._max_cols and j % self[cols + 1] == 0:
                cols += 1
            self._agreement[j] = cols if cols < self._max_cols else None
        return self._agreement[j]


class OverlapSweep:
    """Overlaps of one query at any exponents, from one orbit sweep per
    direction, each developed only as far as the exponents asked need.

    i_max caps the height j; k_max caps the columns of each sweep, in periods
    of the horizontal word.  Both overlap ends depend on the height only, so
    they are measured once per height.
    """

    def __init__(self, query, k_max=DEFAULT_K_MAX, i_max=DEFAULT_I_MAX):
        p = query.complex
        v_ids = _word_ids(p, query.vword.period)
        max_cols = k_max * len(query.hword)
        self.query, self.k_max, self.i_max = query, k_max, i_max
        self.east, self.west = (
            _Sweep(p.tables, _word_ids(p, hword.period), v_ids, i_max, max_cols)
            for hword in (query.hword, query.hword.inverse())
        )

    def _end(self, direction, sweep, j):
        cols = sweep.agreement(j)
        if cols is None:
            raise BudgetExceeded(
                f"no divergence {direction} of the basepoint within {self.k_max} periods",
                diagnostic=PERIODIC_FLAT_DIAGNOSTIC,
            )
        return cols

    def gamma(self, n):
        """The GammaResult at exponent n.  Raises BudgetExceeded when j
        exceeds i_max, else when the overlap reaches k_max periods east, else
        west.  A negative n is the exponent of the inverse word, as in
        PeriodicWord.power."""
        j = (self.east if n >= 0 else self.west)[abs(n) * len(self.query.hword)]
        if j > self.i_max:
            raise BudgetExceeded(f"no repeated top within {self.i_max} developed words")
        right_len = self._end("east", self.east, j)
        left_len = self._end("west", self.west, j)
        return GammaResult(
            n=n,
            j=j,
            left_len=left_len,
            right_len=right_len,
            total_len=left_len + right_len,
            y_offset=j * len(self.query.vword),
        )


def overlap_gamma(query, n, k_max=DEFAULT_K_MAX, i_max=DEFAULT_I_MAX):
    """The finite overlap of the height-j parallel geodesic with the flat.

    The height j = j(n*|w1|) is the least number of stacked vertical periods
    that returns h^n, so the overlap covers at least n horizontal periods
    east of the basepoint, which therefore lies on it.  The overlap runs east
    for the largest N with j(N) dividing j, and west likewise on the inverse
    word's sweep (see OverlapSweep for the budgets).
    """
    return OverlapSweep(query, k_max=k_max, i_max=i_max).gamma(n)


# ---------------------------------------------------------------------------
# Candidate screening over a census complex
# ---------------------------------------------------------------------------


def periodic_candidates(presentation, klass, max_len):
    """All primitive cyclically reduced periodic words up to max_len, ordered
    by length, then by germ ids."""
    out = []
    for n in range(1, max_len + 1):
        for ids in itertools.product(range(len(presentation.germs[klass])), repeat=n):
            try:
                out.append(PeriodicWord(_ids_word(presentation, klass, ids)))
            except WordError:  # not reduced, not cyclically reduced, or a proper power
                pass
    return out


def screen_anti_torus(presentation, max_len=2, k_bound=8, j_bound=8):
    """Candidate pairs with no commuting powers within the bounds.

    Yields (hword, vword, query) triples in deterministic order.  A yielded
    pair is only a bounded certificate: the aperiodicity hypothesis itself is
    not decided by this search.
    """
    vwords = periodic_candidates(presentation, VERTICAL, max_len)
    for hw in periodic_candidates(presentation, HORIZONTAL, max_len):
        for vw in vwords:
            query = AntiTorusQuery(presentation, hw, vw)
            if commuting_powers_search(query, k_bound, j_bound) is None:
                yield hw, vw, query
