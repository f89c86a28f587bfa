"""Bounded aperiodicity screening and geodesic-flat overlap computation.

A horizontal periodic word and a vertical periodic word through the base
vertex span a flat in the universal cover.  The flat is periodic exactly
when some nonzero powers of the two translations commute, which shows up
combinatorially as a rectangle whose developed top and right sides repeat
its bottom and left sides; ``commuting_powers_search`` reads this off one
orbit sweep.  The census screen (``screen_anti_torus``) runs the same search
on germ ids, once per inverse class {h^+-1} x {v^+-1} of pairs, since powers
of h and v commute iff those of h^-1 and v do.  All verdicts on one complex
share one memo of the work their sweeps develop, so a column met again
costs one lookup.  The candidate words depend only on the germ count and
the length, so a process builds them once for each such pair, whatever
complexes it screens.

When no such rectangle exists, widening rectangles develop tops that
eventually diverge from the horizontal periodic word, and the overlap of
the corresponding parallel geodesic with the flat is a finite segment.
``overlap_gamma`` measures that segment from two orbit sweeps
(``develop.orbit_lengths``): for every prefix length N of the horizontal
periodic word, the least number j(N) of stacked vertical periods that
returns that prefix.  The height for exponent n is j(n*|w1|), and the
overlap runs east as far as j(N) divides that height; the west end comes
from the same sweep of the inverse word on the same corner tables.  A query
keeps its two sweeps (``AntiTorusQuery.sweeps``), so overlaps at many
exponents develop each column once, and every call passes its own budgets.
j(N) divides j(N+1), so the N with j(N) dividing a height are a prefix, and
a sweep keeps only the columns where j rises: on the shipped pair, the rows
of ``obstruct --nmax 32`` develop 82 columns per direction and keep 7 rises.
A sweep develops columns over the right word R in chunks, through a table
from (chunk, letter or pair in) to (letter or pair out, developed chunk),
so once the table has met R's chunks one walk up R costs one lookup per
chunk and develops two columns.  A query's two sweeps share one table: on
the shipped pair the second adds 4 chunks to the first's 766.  The overlap
readers take only j from a sweep; R is read only by the commuting-powers
search, at period boundaries while j is within its bound, and chunk by
chunk up to the first that differs from v^j, so the R of the first column
of a walk of two develops only as far as it is read.  ``overlap_gamma``
reads the query's sweeps in two steps: the height (``find_periodic_top``),
then the ends at that height (``overlap_at_height``).  The test oracles measure both one exponent at a
time, stacking periods on h^n and streaming columns through
``develop.stream_mismatch_ids``, the germ-level stream they share.
"""

from collections import namedtuple
from functools import cache, cached_property

from .complexes import HORIZONTAL, VERTICAL, _Frozen
from .errors import DEFAULT_BOUND, DEFAULT_I_MAX, DEFAULT_K_MAX, BudgetExceeded, UnsupportedComplexError, WordError
from .develop import PeriodicWord, _ids_word, _Memo, _word_ids, orbit_lengths

PERIODIC_FLAT_DIAGNOSTIC = "periodic flat suspected: the pair may not span an aperiodic flat"


def _require_one_vertex(presentation):
    if len(presentation.vertices) != 1:
        raise UnsupportedComplexError("queries require a one-vertex complex")


class AntiTorusQuery(_Frozen):
    """A complex (a SquareComplexPresentation) with a horizontal/vertical
    pair of primitive periodic words.

    The base vertex is implicit (one-vertex complexes only).
    """

    _fields = ("complex", "hword", "vword")

    def __init__(self, complex, hword, vword):
        _require_one_vertex(complex)
        if hword.klass != HORIZONTAL:
            raise WordError("hword must be horizontal")
        if vword.klass != VERTICAL:
            raise WordError("vword must be vertical")
        self.__dict__.update(complex=complex, hword=hword, vword=vword)

    @cached_property
    def sweeps(self):
        """The (east, west) orbit sweeps of overlap_gamma: the horizontal word
        and its inverse, each under one vertical period, developed on demand
        and kept for the query's lifetime.  Both sweeps share one memo
        (develop.orbit_lengths), so a chunk that one direction developed is
        a lookup for the other."""
        p = self.complex
        v_ids, memo = _word_ids(p, self.vword.period), _Memo()
        return tuple(
            _Sweep(p.tables, _word_ids(p, hword.period), v_ids, memo)
            for hword in (self.hword, self.hword.inverse())
        )


class GammaResult(namedtuple("GammaResult", "n j left_len right_len total_len y_offset")):
    """The finite overlap of a parallel horizontal geodesic with the flat.

    Lengths count edges.  The overlap spans left_len edges west and right_len
    edges east of the basepoint column; the geodesic runs at height y_offset
    (the j-th power of the vertical word).
    """

    __slots__ = ()

    def to_dict(self):
        return self._asdict()


def commuting_powers_search(query, k_bound=DEFAULT_BOUND, j_bound=DEFAULT_BOUND):
    """Smallest (k, j), lexicographically, with commuting k-th and j-th powers.

    The k x i rectangle of h^k and v^i closes up into a torus (top equals
    bottom, right equals left) exactly when these powers commute.  On one
    orbit sweep (develop.orbit_lengths) at N = k*|w1|, it returns its bottom
    iff j(N) divides i, and is then i/j(N) copies of the height-j(N)
    rectangle, with right word R^(i/j(N)); that is v^i iff R = v^j(N).  So the
    least closing height for k is j(N) or none, and since j(N) never falls
    the search stops at the first j(N) above j_bound.  None certifies the
    aperiodicity hypothesis up to the bounds (never beyond them).  The search
    itself runs on germ ids (``_commuting_powers``), as the screen calls it.
    """
    p = query.complex
    h_ids, v_ids = (_word_ids(p, w.period) for w in (query.hword, query.vword))
    return _commuting_powers(p.tables, h_ids, v_ids, k_bound, j_bound)


def _commuting_powers(tables, h_ids, v_ids, k_bound, j_bound, memo=None):
    """commuting_powers_search on germ-id sequences (lists or tuples);
    ``memo`` is passed to orbit_lengths, so verdicts on one complex may
    share the work they develop.  A chunked R is compared with v^j chunk by
    chunk (develop._ChunkedWord.repeats), without building v^j."""
    v_ids = list(v_ids)  # a list R compares as a list, and a list never equals a tuple
    sweep = orbit_lengths(tables, h_ids, v_ids, memo)
    for cols, (j, right) in zip(range(1, k_bound * len(h_ids) + 1), sweep):
        if j > j_bound:
            return None
        if cols % len(h_ids) == 0 and (right == v_ids * j if type(right) is list else right.repeats(v_ids)):
            return (cols // len(h_ids), j)
    return None


class _Sweep:
    """j(0) = 1, j(1), j(2), ... of one orbit sweep (develop.orbit_lengths),
    developed on demand and kept as the columns where j rises.

    j(N) divides j(N+1), so j only grows, the N with j(N) dividing a given
    height are a prefix, and the sweep keeps no column where j stays: cols
    counts the developed columns and rises holds one (first column, j) pair
    per value of j, from (0, 1).  Each read carries its own cap and its
    value does not depend on how far earlier reads developed the sweep.  A
    read yields no column past the first length above its cap; up to that
    column the walk takes exactly the steps of a walk of that column alone,
    and when the column is the first of a walk of two, the partner column's
    chunks are filled alongside (develop.orbit_lengths).
    """

    def __init__(self, tables, period_ids, side_ids, memo=None):
        self._lengths = orbit_lengths(tables, period_ids, side_ids, memo)
        self.cols = 0
        self.rises = [(0, 1)]

    def _develop(self):
        j = next(self._lengths)[0]
        self.cols += 1
        if j != self.rises[-1][1]:
            self.rises.append((self.cols, j))

    def height(self, cols, max_j):
        """j(cols), or a length above max_j when j(cols) exceeds max_j; no
        column past the first length above max_j is yielded."""
        while self.cols < cols and self.rises[-1][1] <= max_j:
            self._develop()
        return next(j for first, j in reversed(self.rises) if first <= cols)

    def agreement(self, j, max_cols):
        """Leading columns of the periodic word that j stacked periods return:
        the largest N with j(N) dividing j, or None when N reaches max_cols.
        No column past the first length that does not divide j is yielded."""
        while self.cols < max_cols and j % self.rises[-1][1] == 0:
            self._develop()
        end = next((first for first, rise in self.rises if j % rise), None)
        return end - 1 if end is not None and end <= max_cols else None


def find_periodic_top(query, n, i_max=DEFAULT_I_MAX):
    """The least number j of vertical periods that, stacked on the n-th power
    of the horizontal word, develop a top equal to the bottom.

    Returns (j, first_repeat) with first_repeat == j: no earlier top repeats.
    In a CSC every cell is determined by its SW corner pair and equally by
    its NW corner pair, so stacking one vertical period is a bijection on the
    finite set of words of length n*|w1|; the orbit of the bottom is purely
    periodic and the first repeated top is the bottom itself.  j is
    j(n*|w1|) on the query's east sweep, or on its west sweep for n < 0, the
    exponent of the inverse word as in PeriodicWord.power.  Raises
    BudgetExceeded when j exceeds i_max; no column past the first length
    above i_max is yielded, and the walk up to it takes the steps of that
    column alone (_Sweep).
    """
    east, west = query.sweeps
    j = (east if n >= 0 else west).height(abs(n) * len(query.hword), i_max)
    if j > i_max:
        raise BudgetExceeded(f"no repeated top within {i_max} developed words")
    return j, j


def overlap_at_height(query, j, k_max=DEFAULT_K_MAX):
    """Agreement lengths (west, east) between the horizontal periodic line and
    the flat's label line at height j vertical periods: the largest N with
    j(N) dividing j on the query's east sweep, and likewise on its west
    sweep, the inverse word's.  East is read first; raises BudgetExceeded
    with a periodic-flat diagnostic when a direction agrees for k_max
    periods."""
    max_cols = k_max * len(query.hword)
    ends = []
    for direction, sweep in zip(("east", "west"), query.sweeps):
        cols = sweep.agreement(j, max_cols)
        if cols is None:
            raise BudgetExceeded(
                f"no divergence {direction} of the basepoint within {k_max} periods",
                diagnostic=PERIODIC_FLAT_DIAGNOSTIC,
            )
        ends.append(cols)
    east, west = ends
    return west, east


def overlap_gamma(query, n, k_max=DEFAULT_K_MAX, i_max=DEFAULT_I_MAX):
    """The finite overlap of the height-j parallel geodesic with the flat.

    The height j = j(n*|w1|) is the least number of stacked vertical periods
    that returns h^n (find_periodic_top), so the overlap covers at least n
    horizontal periods east of the basepoint, which therefore lies on it.
    Both ends depend on the height only (overlap_at_height).  The two sweeps
    are the query's own (AntiTorusQuery.sweeps), so calls at many exponents
    develop each column once.  A negative n is the exponent of the inverse
    word, as in PeriodicWord.power.

    Raises BudgetExceeded when j exceeds i_max, else when the overlap reaches
    k_max horizontal periods east, else west.
    """
    j, _ = find_periodic_top(query, n, i_max)
    left_len, right_len = overlap_at_height(query, j, k_max)
    return GammaResult(
        n=n,
        j=j,
        left_len=left_len,
        right_len=right_len,
        total_len=left_len + right_len,
        y_offset=j * len(query.vword),
    )


# ---------------------------------------------------------------------------
# Candidate screening over a census complex
# ---------------------------------------------------------------------------


@cache
def _candidates(n_germs, max_len):
    """The candidate words over n_germs germ ids: one (ids, key) pair of
    tuples per primitive cyclically reduced word up to max_len, ordered by
    length, then by ids.  Reduced words grow letter by letter, in order; a
    word is a proper power iff a nontrivial rotation fixes it.  key names the
    inverse class {w, w^-1}: the smaller id tuple (inversion is g ^ 1).  The
    words depend on nothing else, so each (n_germs, max_len) is built once
    per process."""
    words, found = [()], []
    for n in range(1, max_len + 1):
        words = [w + (g,) for w in words for g in range(n_germs) if not w or g != w[-1] ^ 1]
        found += [
            (w, min(w, tuple(g ^ 1 for g in reversed(w))))
            for w in words
            if w[-1] != w[0] ^ 1 and all(w[d:] + w[:d] != w for d in range(1, n))
        ]
    return tuple(found)


def periodic_candidates(presentation, klass, max_len):
    """All primitive cyclically reduced periodic words up to max_len, ordered
    by length, then by germ ids: the words of the ids the screen reads."""
    ids = _candidates(len(presentation.germs[klass]), max_len)
    return [PeriodicWord(_ids_word(presentation, klass, w)) for w, _ in ids]


def screen_anti_torus(presentation, max_len=2):
    """Candidate pairs with no commuting powers within the default bounds.

    Yields (hword, vword, query) triples lazily, horizontal words outer and
    vertical words inner, each in periodic_candidates order.  Powers of h and
    v commute iff those of h^-1 and v do, and likewise for v^-1, so the
    search runs once per class {h^+-1} x {v^+-1}, on germ ids; words and a
    query are built only for yielded pairs.  All verdicts on the complex
    share one memo of developed work (see develop.orbit_lengths), so a
    column that an earlier verdict met costs one lookup.  A yielded pair is
    only a bounded certificate: the aperiodicity hypothesis itself is not
    decided here.
    """
    _require_one_vertex(presentation)
    tables, germs = presentation.tables, presentation.germs
    hwords, vwords = (_candidates(len(germs[klass]), max_len) for klass in (HORIZONTAL, VERTICAL))
    verdicts, memo = {}, _Memo()
    for h, h_class in hwords:
        for v, v_class in vwords:
            key = h_class, v_class
            if key not in verdicts:
                found = _commuting_powers(tables, h, v, DEFAULT_BOUND, DEFAULT_BOUND, memo)
                verdicts[key] = found is None
            if verdicts[key]:
                hw = PeriodicWord(_ids_word(presentation, HORIZONTAL, h))
                vw = PeriodicWord(_ids_word(presentation, VERTICAL, v))
                yield hw, vw, AntiTorusQuery(presentation, hw, vw)
