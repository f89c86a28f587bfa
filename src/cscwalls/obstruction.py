"""Projection-diameter tables and well-separation numbers.

The ambient complex here is the product of trees with an infinite strip
glued along every translate of the horizontal axis; every claim about the
closest-point projection between two such parallel geodesics reduces to the
overlap segment computed by ``overlap_gamma``, so that complex is never
materialized.

One table row per exponent n: the projection of the height-j geodesic onto
the axis is the overlap segment, its diameter is the overlap length (at
least n periods), and it always contains the basepoint.  A single vertex
therefore lies on projections of unbounded diameter, which is incompatible
with any uniform bound on projection diameters coexisting with any uniform
bound on membership multiplicity at a vertex.
"""

from collections import namedtuple

from .antitorus import commuting_powers_search, overlap_gamma
from .errors import DEFAULT_BOUND, DEFAULT_I_MAX, DEFAULT_K_MAX, BudgetExceeded, CommutingPowersFound


class ProjectionResult(namedtuple("ProjectionResult", "n gamma diam contains_basepoint")):
    """Diameter of one projection, with its overlap witness gamma, a GammaResult."""

    __slots__ = ()

    def to_dict(self):
        return {**self._asdict(), "gamma": self.gamma.to_dict()}


class ObstructionTable(namedtuple("ObstructionTable", "rows failures bounds_used")):
    """The ProjectionResult rows, and the (n, reason) failures of the rows
    that ran out of budget."""

    __slots__ = ()

    def max_diam(self):
        return max((r.diam for r in self.rows), default=0)

    def to_dict(self):
        return {
            "rows": [r.to_dict() for r in self.rows],
            "failures": [{"n": n, "reason": reason} for n, reason in self.failures],
            "bounds_used": dict(self.bounds_used),
            "max_diam": self.max_diam(),
        }


class WellSeparationResult(namedtuple("WellSeparationResult", "n L crossing_set_size facing_triple_free")):
    """Separation data for the two strip walls over one overlap segment.

    The walls transverse to both strip walls are exactly the walls dual to
    the L overlap edges, so crossing_set_size is L by definition.  Those
    walls are dual to distinct edges of one geodesic, hence pairwise disjoint
    and linearly ordered along it: in any three the middle one separates the
    outer two, so facing_triple_free is always True.
    """

    __slots__ = ()

    def to_dict(self):
        return self._asdict()


def projection_diameter(query, n, k_max=DEFAULT_K_MAX, i_max=DEFAULT_I_MAX):
    """Diameter of the projection of the height-j geodesic onto the axis.

    Equals the overlap length: the projection maps the overlap isometrically
    and everything beyond it to the overlap's endpoints, which add nothing to
    the diameter.  contains_basepoint is read off the overlap (see
    _contains_basepoint); j stacked periods return h^n, so it holds.
    """
    gamma = overlap_gamma(query, n, k_max=k_max, i_max=i_max)
    return ProjectionResult(
        n=n, gamma=gamma, diam=gamma.total_len, contains_basepoint=_contains_basepoint(gamma, len(query.hword))
    )


def _contains_basepoint(gamma, width):
    """Whether the overlap gamma reaches the basepoint and covers the
    |n|*width edges its height was chosen for: east of the basepoint
    (right_len) for n > 0, west (left_len) for n < 0.  width is |w1|."""
    covered = gamma.right_len if gamma.n > 0 else gamma.left_len
    return min(gamma.left_len, gamma.right_len) >= 0 and covered >= abs(gamma.n) * width


def obstruction_table(
    query,
    n_max,
    k_bound=DEFAULT_BOUND,
    j_bound=DEFAULT_BOUND,
    k_max=DEFAULT_K_MAX,
    i_max=DEFAULT_I_MAX,
):
    """One ProjectionResult row per exponent n = 1..n_max.

    First certifies the aperiodicity hypothesis up to (k_bound, j_bound) and
    raises CommutingPowersFound when the screen fails, since a periodic flat
    admits no obstruction.  Row n is projection_diameter at n; all rows read
    the query's two orbit sweeps, so each column is developed once, as far
    as row n_max needs.  Rows that exceed their budgets are recorded as
    failures, with the same text, instead of aborting the table.
    """
    found = commuting_powers_search(query, k_bound, j_bound)
    if found is not None:
        raise CommutingPowersFound(*found)

    rows, failures = [], []
    for n in range(1, n_max + 1):
        try:
            rows.append(projection_diameter(query, n, k_max=k_max, i_max=i_max))
        except BudgetExceeded as exc:
            failures.append((n, str(exc)))
    return ObstructionTable(
        rows=tuple(rows),
        failures=tuple(failures),
        bounds_used={
            "k_bound": k_bound,
            "j_bound": j_bound,
            "k_max": k_max,
            "i_max": i_max,
        },
    )


def well_separation(query, n, k_max=DEFAULT_K_MAX, i_max=DEFAULT_I_MAX):
    """Well-separation number of the two strip walls at exponent n.

    The overlap has length L and carries one transverse wall per overlap
    edge.  Walls dual to distinct edges of one geodesic are disjoint and
    linearly ordered, so the middle one of any three separates the outer two
    and no facing triple exists; both fields are therefore set by definition
    (see WellSeparationResult).  The pair is L-well-separated but not
    (L-1)-well-separated.
    """
    L = overlap_gamma(query, n, k_max=k_max, i_max=i_max).total_len
    return WellSeparationResult(n=n, L=L, crossing_set_size=L, facing_triple_free=True)
