"""Deterministic rectangle development in the universal cover.

Given the bottom and left boundary words of a rectangle, corner uniqueness
in a complete square complex fills the whole rectangle cell by cell, and in
particular determines the top and right boundary words.  Development runs
column-major from the SW corner: columns are computed left to right and
never revised, so tops of widening rectangles are prefix-stable.

Every search develops through one loop, ``_develop``, over integer germ ids:
``develop_ids`` runs it once on a copy of the left word, and
``stream_mismatch_ids`` and ``orbit_lengths`` run it one column at a time.
``orbit_lengths`` is the one stacking algorithm: the commuting-powers screen
and the overlap sweep both read it.  The only other loop is ``_fill_cells``,
which also records every cell for inspection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import CORNERS, HORIZONTAL, VERTICAL, OrientedEdge
from .errors import DevelopmentError, WordError

#: The development kernel in use; there is one, and it is pure Python.
BACKEND = "python"


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """A reduced edge-label word, all letters in one class."""

    letters: tuple
    klass: str

    def __post_init__(self):
        if self.klass not in (HORIZONTAL, VERTICAL):
            raise WordError(f"bad word class {self.klass!r}")
        prev = None
        for e in self.letters:
            if e.klass != self.klass:
                raise WordError(f"{e.klass} letter {e.token()!r} in a {self.klass} word")
            if prev is not None and e == prev.inverse():
                raise WordError(f"word not reduced at {prev.token()!r} {e.token()!r}")
            prev = e

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return format_word(self)

    def __add__(self, other):
        if other.klass != self.klass:
            raise WordError("cannot concatenate words of different classes")
        return Word(self.letters + other.letters, self.klass)

    def power(self, k):
        if k < 0:
            return self.inverse().power(-k)
        return Word(self.letters * k, self.klass)

    def inverse(self):
        return Word(tuple(e.inverse() for e in reversed(self.letters)), self.klass)

    def tokens(self):
        return [e.token() for e in self.letters]


@dataclass(frozen=True)
class PeriodicWord:
    """A cyclically reduced primitive word: the period of a bi-infinite label line.

    Rejects proper powers, since the translation it models must be along a
    primitive axis.
    """

    period: Word

    def __post_init__(self):
        w = self.period
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


def orbit_lengths(tables, period_ids, side_ids):
    """Yield (j(N), R) for N = 1, 2, ...: j(N) is the orbit length of the
    length-N prefix of the periodic bottom word (period_ids repeated) under
    stacking one copy of side_ids, the least j whose rectangle of height j
    copies has that prefix as its top, and R is that rectangle's right word.

    In a CSC stacking is a bijection on the words of each length, and
    development is prefix-stable, so the heights that return the length-N
    prefix are exactly the multiples of j(N).  The sweep keeps R, the right
    word of the rectangle of height j(N) over the prefix (side_ids for the
    empty prefix).  That rectangle returns its bottom, so stacking it again
    and again develops the next column over R block by block: the column's
    bottom letter comes back after some t blocks, j(N+1) = t*j(N), and the t
    right words laid end to end are the next R.  Each block is one
    develop_ids call of len(R) cells.  Each R is a new list.
    """
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


def _word_ids(presentation, word):
    return [presentation.germ_id(e) for e in word.letters]


def _ids_word(presentation, klass, ids):
    return Word(tuple(presentation.germ_edge(klass, g) for g in ids), klass)


# ---------------------------------------------------------------------------
# Rectangles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One filled cell: the quotient square it develops and the reading orientation."""

    square: int
    corner: str  # which corner of the stored square sits at this cell's SW
    bottom: OrientedEdge
    right: OrientedEdge
    top: OrientedEdge
    left: OrientedEdge


@dataclass(frozen=True)
class Rectangle:
    width: int
    height: int
    bottom: Word
    top: Word
    left: Word
    right: Word
    cells: tuple | None = None  # rows bottom-to-top, each a tuple of Cells


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
    sq_tab, co_tab, top_tab, right_tab = tables.square, tables.corner, tables.top, tables.right
    hgerms, vgerms = presentation.germs[HORIZONTAL], presentation.germs[VERTICAL]
    rows = [[] for _ in left_ids]
    side = list(left_ids)
    top = []
    for b in bottom_ids:
        for j, v in enumerate(side):
            s = sq_tab[b][v]
            if s < 0:
                raise DevelopmentError("development hit a missing corner")
            nt, nr = top_tab[b][v], right_tab[b][v]
            rows[j].append(
                Cell(
                    square=s,
                    corner=CORNERS[co_tab[b][v]],
                    bottom=hgerms[b],
                    right=vgerms[nr],
                    top=hgerms[nt],
                    left=vgerms[v],
                )
            )
            side[j] = nr
            b = nt
        top.append(b)
    return top, side, tuple(tuple(r) for r in rows)

