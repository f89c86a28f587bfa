"""Deterministic rectangle development in the universal cover.

Given the bottom and left boundary words of a rectangle, corner uniqueness
in a complete square complex fills the whole rectangle cell by cell, and in
particular determines the top and right boundary words.  Development runs
column-major from the SW corner: columns are computed left to right and
never revised, so tops of widening rectangles are prefix-stable.

Every development goes through one loop, ``_develop``, over integer germ
ids: ``develop_ids`` runs it once on a copy of the left word,
``stream_mismatch_ids`` one column at a time, and ``_fill_cells`` one cell
at a time, recording each cell for inspection.  No package search calls
``stream_mismatch_ids``, which is the germ-level stream of the test
oracles' divergence references.  ``orbit_lengths`` is the one stacking
algorithm: the commuting-powers screen and the overlap sweep both read it.
It develops columns over a right word held in chunks of CHUNK germ ids,
each with a row that maps (chunk, letter in) to (letter out, developed
chunk) and (chunk, pair in) to (pair out, chunk after both columns): while
the rows are warm, one walk up the right word develops two columns.  A
chunk longer than HALF ids is two halves, each a chunk too, and a letter
develops it as it develops its first half and then, under the letter out,
its second, so its slot is the join of its halves' slots.  So
``develop_ids`` runs only on a chunk of at most HALF ids not yet met with
that letter, or on a right word within one chunk, whose next right word is
kept in a dict.  One memo (``_Memo``) keeps just the chunks, with their rows
and halves, and that dict.  It is built on one complex's corner tables and
a sweep takes it in their place; a query's two directions share one, and
so do all census screen verdicts on one complex.
"""

import itertools
from collections import namedtuple

from .complexes import CORNERS, HORIZONTAL, VERTICAL, OrientedEdge, _Frozen
from .errors import DevelopmentError, WordError

#: The development kernel in use; there is one, and it is pure Python.
BACKEND = "python"


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------


class Word(_Frozen):
    """A reduced edge-label word, all letters in one class: letters is a
    tuple of OrientedEdge."""

    _fields = ("letters", "klass")

    def __init__(self, letters, klass):
        if klass not in (HORIZONTAL, VERTICAL):
            raise WordError(f"bad word class {klass!r}")
        prev = None
        for e in letters:
            if e.klass != klass:
                raise WordError(f"{e.klass} letter {e.token()!r} in a {klass} word")
            if prev is not None and e == prev.inverse():
                raise WordError(f"word not reduced at {prev.token()!r} {e.token()!r}")
            prev = e
        self.__dict__.update(letters=letters, klass=klass)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return format_word(self)

    def power(self, k):
        if k < 0:
            return self.inverse().power(-k)
        return Word(self.letters * k, self.klass)

    def inverse(self):
        return Word(tuple(e.inverse() for e in reversed(self.letters)), self.klass)

    def tokens(self):
        return [e.token() for e in self.letters]


class PeriodicWord(_Frozen):
    """A cyclically reduced primitive word: the period of a bi-infinite label line.

    Rejects proper powers, since the translation it models must be along a
    primitive axis.
    """

    _fields = ("period",)

    def __init__(self, period):
        w = period
        n = len(w)
        if n == 0:
            raise WordError("periodic word must be nonempty")
        if n > 1 and w.letters[-1] == w.letters[0].inverse():
            raise WordError(f"{format_word(w)!r} is not cyclically reduced")
        for d in range(1, n):
            if n % d:
                continue
            if all(w.letters[i] == w.letters[(i + d) % n] for i in range(n)):
                raise WordError(f"{format_word(w)!r} is a proper power (cyclic period {d})")
        self.__dict__["period"] = period

    def __len__(self):
        return len(self.period)

    @property
    def klass(self):
        return self.period.klass

    def power(self, k):
        return self.period.power(k)

    def inverse(self):
        return PeriodicWord(self.period.inverse())


def parse_word(presentation, text, klass=None):
    """Parse a word from tokens like ``a -b a`` (or compact ``a-ba`` when all
    labels are single characters).  Class is inferred from the letters unless
    given, in which case it is enforced."""
    parts = text.replace(",", " ").split()
    if len(parts) == 1 and parts[0].lstrip("-") not in presentation.edge_by_name:
        tok, parts, i = parts[0], [], 0
        while i < len(tok):
            neg = tok[i] == "-"
            if neg:
                i += 1
                if i >= len(tok):
                    raise WordError(f"dangling '-' in word {text!r}")
            parts.append(("-" if neg else "") + tok[i])
            i += 1
    letters = []
    for part in parts:
        name = part[1:] if part.startswith("-") else part
        edge = presentation.edge_by_name.get(name)
        if edge is None:
            raise WordError(f"unknown edge label {name!r} in word {text!r}")
        letters.append(OrientedEdge(edge, -1 if part.startswith("-") else 1))
    if klass is None:
        if not letters:
            raise WordError("cannot infer the class of an empty word")
        klass = letters[0].klass
    return Word(tuple(letters), klass)


def format_word(word):
    toks = word.tokens()
    if all(len(t.lstrip("-")) == 1 for t in toks):
        return "".join(toks)
    return " ".join(toks)


# ---------------------------------------------------------------------------
# The development loop
# ---------------------------------------------------------------------------


def _develop(tables, bottom, side):
    """Column-major development over germ-id lists.

    ``side`` enters as the left word and is mutated in place into the right
    word; ``bottom`` is only read.  Returns the top as a new list.
    """
    top_rows, right_rows = tables.top, tables.right
    top = []
    h = len(side)
    for b in bottom:
        for j in range(h):
            v = side[j]
            nv = right_rows[b][v]
            if nv < 0:
                raise DevelopmentError("development hit a missing corner")
            side[j] = nv
            b = top_rows[b][v]
        top.append(b)
    return top


def develop_ids(tables, bottom_ids, left_ids):
    """Develop germ-id sequences; returns (top ids, right ids) as lists."""
    side = list(left_ids)
    return _develop(tables, bottom_ids, side), side


def stream_mismatch_ids(tables, period_ids, side_ids, max_cols):
    """Columns of agreement between the developed top and the periodic bottom
    word; -1 when no mismatch shows up within max_cols columns.

    The bottom is period_ids repeated, developed one column at a time on one
    copy of side_ids, so the caller's list is left as it was.
    """
    side = list(side_ids)
    plen = len(period_ids)
    for col in range(max_cols):
        b = period_ids[col % plen]
        if _develop(tables, (b,), side)[0] != b:
            return col
    return -1


#: Germ ids per chunk of the right word R in orbit_lengths.
CHUNK = 8
#: Germ ids in the first half of a chunk longer than HALF (_Memo.fill).
HALF = CHUNK // 2

def orbit_lengths(memo, period_ids, side_ids):
    """Yield (j(N), R) for N = 1, 2, ...: j(N) is the orbit length of the
    length-N prefix of the periodic bottom word (period_ids repeated) under
    stacking one copy of side_ids, the least j whose rectangle of height j
    copies has that prefix as its top, and R is that rectangle's right word.
    The development runs on memo.tables.  side_ids must be nonempty, as a
    PeriodicWord's ids and a census screen candidate are.

    In a CSC stacking is a bijection on the words of each length, and
    development is prefix-stable, so the heights that return the length-N
    prefix are exactly the multiples of j(N).  The sweep keeps R, the right
    word of the rectangle of height j(N) over the prefix (side_ids for the
    empty prefix).  That rectangle returns its bottom, so stacking it again
    and again develops the next column over R block by block: the column's
    bottom letter comes back after some t blocks, j(N+1) = t*j(N), and the t
    right words laid end to end are the next R.

    A block threads one horizontal letter up through R, so R may be cut
    anywhere.  The base case is R within one chunk: each block is then one
    develop_ids call on R, and the census screen's sweeps seldom leave it.
    Once R outgrows one chunk, the sweep holds it as chunk ids: runs of
    CHUNK germ ids, interned in the memo, every run but the last full.  A
    walk threads a letter code up R's chunks block by block, one lookup in
    a chunk's row per chunk: a letter b1 develops column N+1 alone, and a
    pair (b1, b2) develops columns N+1 and N+2 together, from (chunk, pair
    in) to (pair out, chunk after both columns).  A pair miss reads its two
    letters off its code and resolves through their single-letter slots, and
    a single-letter miss joins the slots of the chunk's two halves, or
    develops a chunk of at most HALF ids with develop_ids (_Memo.fill).  The
    first letter of the top pair is column N+1's top, so it comes back to b1
    first after s1 blocks and the pair comes back to (b1, b2) after s
    blocks: j(N+1) = s1*j(N), j(N+2) = s*j(N), and s1 divides s.  Column N+1
    is yielded after block s1, so up to that yield the walk takes exactly
    the steps of a walk of column N+1 alone, filling column N+2's chunks
    alongside; it goes on to block s only when the sweep is read again.  The
    chunks of the walk's last column are the next R, its tail cut again when
    there are several blocks and R's last chunk is partial: the first
    block's chunks stay, and from its last chunk on the ids are cut afresh.

    A walk takes a pair only when the step before it added no chunk to the
    memo (cutting the R that left the base case counts as a step).  A walk
    that meets new chunks meets empty pair slots, and resolving those costs
    more than the lookups that pairs save: with a pair at every walk, census
    sweeps (8,568 of them: both directions of the first 6 x 6 candidate
    pairs of length <= 2 on every 2+2 and every 50th 2+3 entry, to 120
    columns) made 17% more develop_ids calls and took 13% longer, when
    every single-letter miss developed its whole chunk.

    The memo (a _Memo) holds the work developed on its tables for every
    sweep given it, so all sweeps on one complex share it and none can read
    another complex's work.  A base-case column depends only on the tables,
    its bottom letter b and R, so memo.columns maps (b, R as a tuple) to the
    next R, and a sweep that meets the same b and R reads it back instead of
    developing t blocks (t is the next R's length over R's).  Its keys never
    exceed CHUNK ids: a side word longer than one chunk starts in the
    chunks, and R only grows (its length is j*len(side_ids)), so a sweep
    that has left the base case never returns to it.  The chunk rows are
    shared the same way, so the two directions of one query fill each
    other's rows.  Chunks are only appended, so every yielded R stays valid.

    R is yielded as a sequence of germ ids: a list while it fits in one
    chunk, else a _ChunkedWord, expanded only when iterated, so a reader of
    j alone never expands it.  The R of the first column of a walk of two is
    pending: R's chunk ids with the letter b1 and the count s1, developed
    over the single-letter slots that the walk filled, and only as far as it
    is read (``_ChunkedWord.repeats`` stops at the first chunk that
    differs).  Neither the sweep nor the memo ever changes a yielded R; a
    list R may be shared with other sweeps of the same memo, so the caller
    must not change it either.
    """
    tables, columns = memo.tables, memo.columns
    plen = len(period_ids)
    word, j, col = side_ids, 1, 0
    while len(word) <= CHUNK:
        b = period_ids[col % plen]
        col += 1
        key = b, tuple(word)
        next_word = columns.get(key)
        if next_word is None:
            (top,), next_word = develop_ids(tables, (b,), word)
            while top != b:
                (top,), block = develop_ids(tables, (top,), word)
                next_word += block
            columns[key] = next_word
        j *= len(next_word) // len(word)
        word = next_word
        if len(word) <= CHUNK:
            yield j, word
    rows, chunks, fill, letters = memo.rows, memo.chunks, memo.fill, memo.letters
    size = len(chunks)
    right = memo.cut(word)
    grown = len(chunks) - size
    if col:  # the column that left the base case
        yield j, _ChunkedWord(memo, right)
    while True:
        b1 = period_ids[col % plen]
        if grown:  # the last step added chunks: walk one column
            start = b1
            col += 1
        else:
            start = (b1 + 1) * letters + period_ids[(col + 1) % plen]
            col += 2
        first = (b1 + 1) * letters  # the pair codes from first to first + letters start with b1
        code, s, s1, grown, blocks = start, 0, 0, 0, []
        size = len(chunks)
        append = blocks.append
        while True:
            for c in right:
                hit = rows[c][code]
                if hit is None:
                    if code < letters:
                        hit = fill(c, code)
                    else:  # through the two single-letter slots
                        g1, g2 = divmod(code - letters, letters)
                        h1, c1 = rows[c][g1] or fill(c, g1)
                        h2, c2 = rows[c1][g2] or fill(c1, g2)
                        hit = rows[c][code] = (h1 + 1) * letters + h2, c2
                code, c = hit
                append(c)
            s += 1
            if not s1 and first <= code < first + letters:
                s1 = s
                grown += len(chunks) - size
                yield j * s, _ChunkedWord(memo, right, b1, s)
                size = len(chunks)
            if code == start:
                break
        j *= s
        if s > 1 and len(chunks[right[-1]]) < CHUNK:
            tail = len(right) - 1
            blocks[tail:] = memo.cut([g for c in blocks[tail:] for g in chunks[c]])
        right = blocks
        grown += len(chunks) - size
        yield j, _ChunkedWord(memo, right)


class _Memo:
    """The work developed on one complex's corner tables, for every sweep
    given the memo: base-case columns, and interned chunks, each with its
    row of developed columns.

    ``columns`` maps (letter, R as a tuple) to the next R for an R within
    one chunk.  A row is indexed by a letter code: g for the horizontal germ
    g, L + g1*L + g2 for the pair (g1, g2), where L is the number of
    horizontal germs.  Slot g holds (letter out, developed chunk
    id), slot (g1, g2) holds (pair out, chunk id after both columns), and an
    empty slot holds None.  A chunk longer than HALF ids is interned with
    its halves, its first HALF ids and the rest, and ``fill`` sets its
    single-letter slots from theirs.  Chunks are only appended."""

    def __init__(self, tables):
        self.tables = tables
        self.columns = {}  # (letter, R) -> next R, R within one chunk
        self.letters = len(tables.top)
        self.chunks = []  # chunk id -> germ ids
        self.rows = []  # chunk id -> letter code -> (code out, developed chunk id) or None
        self.halves = []  # chunk id -> (first HALF ids, the rest) as chunk ids, or None within HALF
        self._ids = {}

    def intern(self, ids):
        ids = tuple(ids)
        c = self._ids.get(ids)
        if c is None:
            halves = (self.intern(ids[:HALF]), self.intern(ids[HALF:])) if len(ids) > HALF else None
            c = self._ids[ids] = len(self.chunks)
            self.chunks.append(ids)
            self.rows.append([None] * (self.letters * (self.letters + 1)))
            self.halves.append(halves)
        return c

    def fill(self, c, g):
        """Develop chunk c under the letter g, store the result in c's row
        and return it.  A chunk within HALF ids develops with develop_ids;
        a longer one is its two halves' slots joined: the first half under
        g gives (h, a), the second half under h gives (h', b), and the slot
        is (h', a joined to b)."""
        rows, halves = self.rows, self.halves[c]
        if halves is None:
            (h,), developed = develop_ids(self.tables, (g,), self.chunks[c])
            out = self.intern(developed)
        else:
            first, second = halves
            h, a = rows[first][g] or self.fill(first, g)
            h, b = rows[second][h] or self.fill(second, h)
            out = self.intern(self.chunks[a] + self.chunks[b])
        hit = rows[c][g] = h, out
        return hit

    def cut(self, ids):
        """Chunk ids of a germ-id list: every chunk but the last full."""
        return [self.intern(ids[i : i + CHUNK]) for i in range(0, len(ids), CHUNK)]


class _ChunkedWord:
    """A right word held as chunk ids of a memo, or pending: the right word
    of ``blocks`` blocks of one column with bottom letter ``letter`` over the
    word of the chunk ids, developed chunk by chunk as it is read.
    Iterating it expands it."""

    __slots__ = ("_memo", "_ids", "_letter", "_blocks")

    def __init__(self, memo, ids, letter=None, blocks=1):
        self._memo, self._ids, self._letter, self._blocks = memo, ids, letter, blocks

    def chunks(self):
        """The word's chunks as germ-id tuples, in order."""
        memo = self._memo
        chunks = memo.chunks
        if self._letter is None:
            for c in self._ids:
                yield chunks[c]
            return
        rows, code = memo.rows, self._letter
        for _ in range(self._blocks):
            for c in self._ids:
                code, c = rows[c][code] or memo.fill(c, code)
                yield chunks[c]

    def __iter__(self):
        return itertools.chain.from_iterable(self.chunks())

    def repeats(self, period):
        """Whether the word is the germ-id sequence period repeated; reads
        chunks only up to the first that disagrees."""
        p = len(period)
        wrapped = tuple(period) * (CHUNK // p + 2)  # every slice of CHUNK from an offset < p
        offset = 0
        for chunk in self.chunks():
            r = offset % p
            if chunk != wrapped[r : r + len(chunk)]:
                return False
            offset += len(chunk)
        return offset % p == 0


def _word_ids(presentation, word):
    return [presentation.germ_id(e) for e in word.letters]


def _ids_word(presentation, klass, ids):
    return Word(tuple(presentation.germ_edge(klass, g) for g in ids), klass)


# ---------------------------------------------------------------------------
# Rectangles
# ---------------------------------------------------------------------------


class Cell(namedtuple("Cell", "square corner bottom right top left")):
    """One filled cell: the quotient square it develops and the reading
    orientation.  corner names the corner of the stored square that sits at
    this cell's SW; the four sides are OrientedEdges."""

    __slots__ = ()


class Rectangle(namedtuple("Rectangle", "width height bottom top left right cells", defaults=(None,))):
    """A filled rectangle: its size and its four boundary Words; cells, when
    kept, holds the rows bottom-to-top, each a tuple of Cells."""

    __slots__ = ()


def fill_rectangle(presentation, bottom, left, keep_cells=False):
    """Fill the rectangle with the given SW boundary words.

    Corner uniqueness makes the result unique; empty words are allowed and
    give degenerate rectangles.  With keep_cells=True the full cell grid is
    retained for inspection.
    """
    if bottom.klass != HORIZONTAL:
        raise WordError("bottom word must be horizontal")
    if left.klass != VERTICAL:
        raise WordError("left word must be vertical")
    tables = presentation.tables
    bottom_ids = _word_ids(presentation, bottom)
    left_ids = _word_ids(presentation, left)
    cells = None
    if keep_cells:
        top_ids, right_ids, cells = _fill_cells(presentation, tables, bottom_ids, left_ids)
    else:
        top_ids, right_ids = develop_ids(tables, bottom_ids, left_ids)
    return Rectangle(
        width=len(bottom),
        height=len(left),
        bottom=bottom,
        top=_ids_word(presentation, HORIZONTAL, top_ids),
        left=left,
        right=_ids_word(presentation, VERTICAL, right_ids),
        cells=cells,
    )


def _fill_cells(presentation, tables, bottom_ids, left_ids):
    """develop_ids one cell at a time, recording each cell."""
    hgerms, vgerms = presentation.germs[HORIZONTAL], presentation.germs[VERTICAL]
    rows = [[] for _ in left_ids]
    side = list(left_ids)
    top = []
    for b in bottom_ids:
        for j, v in enumerate(side):
            cell = [v]
            (t,) = _develop(tables, (b,), cell)
            side[j] = r = cell[0]
            corner = CORNERS[tables.corner[b][v]]
            rows[j].append(Cell(tables.square[b][v], corner, hgerms[b], vgerms[r], hgerms[t], vgerms[v]))
            b = t
        top.append(b)
    return top, side, tuple(map(tuple, rows))
