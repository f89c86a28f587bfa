"""The development kernel: the inner loops of rectangle development.

Pure Python over germ ids.  Table arguments are the nested lists of
``CornerTables``, indexed [h germ][v germ].
"""

from .errors import DevelopmentError


def develop_ids(top_rows, right_rows, bottom, side):
    """Column-major rectangle development over germ-id lists.

    ``side`` enters as the left word and is mutated in place into the right
    word.  Returns (top, side).
    """
    top_out = []
    h = len(side)
    for b in bottom:
        for j in range(h):
            v = side[j]
            nv = right_rows[b][v]
            if nv < 0:
                raise DevelopmentError("development hit a missing corner")
            side[j] = nv
            b = top_rows[b][v]
        top_out.append(b)
    return top_out, side


def stream_mismatch(top_rows, right_rows, period, side, max_cols):
    """Develop with the bottom extended periodically, comparing each developed
    top letter against the same periodic word.

    Returns the number of initial columns on which the developed top agrees
    with the periodic word, or -1 if no mismatch occurred within ``max_cols``
    columns.  ``side`` is mutated.
    """
    h = len(side)
    plen = len(period)
    phase = 0
    for col in range(max_cols):
        b = period[phase]
        for j in range(h):
            v = side[j]
            nv = right_rows[b][v]
            if nv < 0:
                raise DevelopmentError("development hit a missing corner")
            side[j] = nv
            b = top_rows[b][v]
        if b != period[phase]:
            return col
        phase += 1
        if phase == plen:
            phase = 0
    return -1
