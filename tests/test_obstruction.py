"""Projection-diameter tables and well-separation numbers."""

import hashlib
import json

import pytest

import cscwalls as cw
from hypothesis import given, settings, strategies as st

from cscwalls.antitorus import AntiTorusQuery, GammaResult, overlap_gamma, screen_anti_torus
from cscwalls.errors import BudgetExceeded, CommutingPowersFound
from cscwalls.obstruction import _contains_basepoint, obstruction_table, projection_diameter, well_separation

from .oracles import overlap_gamma_by_streams, periodic_agreement


class TestProjectionDiameter:
    def test_basepoint_and_bound(self, shipped):
        r = projection_diameter(shipped, 1)
        assert r.contains_basepoint
        assert r.diam >= len(shipped.hword)
        assert r.diam == r.gamma.total_len

    def test_row_major_recomputation(self, shipped):
        """Recompute both ends by row-major development at the same height,
        east with the horizontal word and west with its inverse on the
        mirrored complex, and check the diameter matches."""
        r = projection_diameter(shipped, 2)
        p, side = shipped.complex, shipped.vword.power(r.gamma.j)
        east = periodic_agreement(p, shipped.hword.period, side, r.gamma.right_len + 1)
        west = periodic_agreement(
            p.mirrored, shipped.hword.inverse().period, side, r.gamma.left_len + 1
        )
        assert (west, east) == (r.gamma.left_len, r.gamma.right_len)
        assert west + east == r.diam

    @settings(max_examples=40)
    @given(st.integers(-40, 40).filter(bool))
    def test_basepoint_is_covered_at_every_exponent(self, shipped, n):
        """The overlap reaches the basepoint and covers the |n|*|w1| edges
        on the side of h^n, west of it for negative n."""
        assert projection_diameter(shipped, n).contains_basepoint

    @pytest.mark.parametrize("n", [3, -3])
    def test_overlap_one_edge_short_misses_the_basepoint(self, n):
        """|w1| = 2: covering 6 edges on the side of h^n contains the
        basepoint; 5, or a negative length on the other side, does not."""
        def gamma(covered, other):
            left, right = (other, covered) if n > 0 else (covered, other)
            return GammaResult(n, 1, left, right, left + right, 1)

        assert _contains_basepoint(gamma(6, 0), 2)
        assert not _contains_basepoint(gamma(5, 0), 2)
        assert not _contains_basepoint(gamma(6, -1), 2)

    def test_n5_bound(self, shipped):
        assert projection_diameter(shipped, 5).diam >= 5 * len(shipped.hword)

    def test_torus_propagates_periodic_diagnostic(self, torus_query):
        with pytest.raises(BudgetExceeded) as info:
            projection_diameter(torus_query, 1, k_max=50)
        assert "periodic flat" in str(info.value)


class TestObstructionTable:
    def test_single_row(self, shipped):
        t = obstruction_table(shipped, 1)
        assert len(t.rows) == 1 and t.rows[0].diam >= len(shipped.hword)
        assert not t.failures

    def test_ten_rows_cross_checked(self, shipped):
        t = obstruction_table(shipped, 10)
        assert [r.n for r in t.rows] == list(range(1, 11))
        h = len(shipped.hword)
        for row in t.rows:
            assert row.diam >= row.n * h
            assert row.contains_basepoint
            # independent recomputation of each row
            again = projection_diameter(shipped, row.n)
            assert again.diam == row.diam and again.gamma == row.gamma
        assert t.max_diam() >= 10 * h

    def test_rows_share_basepoint_against_any_thresholds(self, shipped):
        """For every threshold at most the max diameter some row meets it while
        every row keeps the basepoint."""
        t = obstruction_table(shipped, 8)
        for xi in range(1, t.max_diam() + 1):
            assert any(r.diam >= xi for r in t.rows)
        assert all(r.contains_basepoint for r in t.rows)

    def test_torus_produces_no_rows(self, torus_query):
        with pytest.raises(CommutingPowersFound) as info:
            obstruction_table(torus_query, 3)
        assert (info.value.k, info.value.j) == (1, 1)

    def test_json_round_trip(self, shipped):
        t = obstruction_table(shipped, 3)
        blob = json.dumps(t.to_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["bounds_used"] == t.to_dict()["bounds_used"]
        assert [r["diam"] for r in back["rows"]] == [r.diam for r in t.rows]

    def test_rows_match_per_row_streams(self, screened_pairs):
        """Derandomized sweep over screened 2+2, 1+3 and 3+1 pairs with words
        of length <= 2: the table's rows and failures, read off one sweep per
        direction, equal the references computed row by row."""
        seen = set()

        @given(st.data())
        @settings(max_examples=60)
        def check(data):
            q = screened_pairs[data.draw(st.integers(0, len(screened_pairs) - 1), label="pair")]
            n_max = data.draw(st.integers(1, 6), label="n_max")
            k_max = data.draw(st.integers(1, 12), label="k_max")
            i_max = data.draw(st.integers(1, 5000), label="i_max")
            t = obstruction_table(q, n_max, k_max=k_max, i_max=i_max)
            rows, failures = [], []
            for n in range(1, n_max + 1):
                try:
                    rows.append(overlap_gamma_by_streams(q, n, k_max=k_max, i_max=i_max))
                except BudgetExceeded as exc:
                    failures.append((n, str(exc)))
            assert [r.gamma for r in t.rows] == rows
            assert t.failures == tuple(failures)
            assert all((r.n, r.diam) == (r.gamma.n, r.gamma.total_len) for r in t.rows)
            seen.update(("rows" if rows else None, "failures" if failures else None))

        check()
        assert {"rows", "failures"} <= seen

    def test_bounds_recorded(self, shipped):
        t = obstruction_table(shipped, 2, k_bound=5, j_bound=7, k_max=500, i_max=10_000)
        assert t.bounds_used == {"k_bound": 5, "j_bound": 7, "k_max": 500, "i_max": 10_000}


class TestWellSeparation:
    def test_matches_gamma_length(self, shipped):
        for n in (1, 2, 3):
            r = well_separation(shipped, n)
            g = cw.overlap_gamma(shipped, n)
            assert r.L == g.total_len
            assert r.crossing_set_size == r.L
            assert r.facing_triple_free

    def test_triples_verified_independently(self, census22):
        """L counts the overlap edges, one transverse wall each: row-major
        development one column past each end of the overlap, over every
        screened one-letter pair of the 2+2 census, n = 1..8."""
        queries = [q for p in census22 for _, _, q in screen_anti_torus(p, max_len=1)]
        assert queries
        for q in queries:
            for n in range(1, 9):
                r = well_separation(q, n)
                g = overlap_gamma(q, n)
                side = q.vword.power(g.j)
                east = periodic_agreement(q.complex, q.hword.period, side, g.right_len + 1)
                west = periodic_agreement(
                    q.complex.mirrored, q.hword.inverse().period, side, g.left_len + 1
                )
                assert east == g.right_len and west == g.left_len
                assert east + west == r.L == r.crossing_set_size

    def test_grows_without_bound(self, shipped):
        values = [well_separation(shipped, n).L for n in (1, 4, 10)]
        assert values[0] < values[-1]
        assert all(v >= n for v, n in zip(values, (1, 4, 10)))

    def test_length_one_overlap(self, census22):
        """A pair whose overlap is a single edge: crossing set of size one."""
        p = census22[69].mirrored
        q = AntiTorusQuery(
            p,
            cw.PeriodicWord(cw.parse_word(p, "-b")),
            cw.PeriodicWord(cw.parse_word(p, "x -y")),
        )
        r = well_separation(q, 1)
        assert r.L == 1 and r.crossing_set_size == 1 and r.facing_triple_free


def test_shipped_law_through_n_2187(shipped):
    """On the shipped pair j(n) = 4*3^k and total_len = 2*3^k for
    3^(k-1) < n <= 3^k, at every n <= 2187 = 3^7.  One table computes all
    2187 rows from one sweep per direction, so it costs about what its last
    row costs alone (under a second); a sweep per row would take minutes.
    3^8 stays out: the sweep's work grows about 9x per factor of 3 in n."""
    t = obstruction_table(shipped, 2187)
    assert not t.failures and [r.n for r in t.rows] == list(range(1, 2188))
    for row in t.rows:
        k = 0
        while 3**k < row.n:
            k += 1
        assert (row.gamma.j, row.gamma.total_len) == (4 * 3**k, 2 * 3**k), row.n


#: SHA-256 of the sorted-key JSON of each overlap artifact, frozen from the
#: implementation that streamed westward on the mirrored complex and
#: re-developed the pigeonhole rectangle in one piece.
PINNED_OVERLAP_DIGESTS = {
    "obstruction_table(shipped, 40)": "1e74ab4b8e60d4e144d2dfc39f36071140699ad5699a2da5c7a2b96c58e35977",
    "overlap_gamma(shipped, 300)": "10c0891c61bffe28fdbcd22ff4a89d09a75e3ed90b00210ab117191063e558c7",
    "well_separation(shipped, 40)": "64daf438f69abc5636a02120976b992b085a8908c1b7e32d5ef557bc55580e2f",
    "overlap_gamma(census22[69], 1)": "5f36e3bd213f57d861c10a6ced85976735128a9d4c06d361d6ec750d0b29cd53",
    "overlap_gamma(census22[69], 2)": "c72a3b652d0df03e39431d6751238c44b79570ca4630ea4a67bf25099dc821ae",
    "overlap_gamma(census22[69], 3)": "7d642470d626a1f57fbd7d86d793b9ad7824aa2bf8f02350061d9ea1f348e262",
    "overlap_gamma(census22[69], 4)": "b6a04f80397c45e95064e26eaf75c04bc5281e22df6e2ea91b3b9fa53451f02f",
    "overlap_gamma(census22[69], 5)": "768b167ca23d2071054e7adcf72e1ea12c177b80e4af4d83a9fa8c14d5837629",
}


def test_pinned_artifact_digests(shipped, census22, torus_query):
    """The census pair b / x -y overlaps one edge further west than east, so
    swapping the two directions changes its digests; the torus, which never
    diverges, reports the direction measured first."""
    p = census22[69]
    asym = AntiTorusQuery(
        p, cw.PeriodicWord(cw.parse_word(p, "b")), cw.PeriodicWord(cw.parse_word(p, "x -y"))
    )
    artifacts = {
        "obstruction_table(shipped, 40)": obstruction_table(shipped, 40),
        "overlap_gamma(shipped, 300)": overlap_gamma(shipped, 300),
        "well_separation(shipped, 40)": well_separation(shipped, 40),
    }
    for n in range(1, 6):
        g = overlap_gamma(asym, n)
        assert g.left_len == g.right_len + 1
        artifacts[f"overlap_gamma(census22[69], {n})"] = g
    digests = {
        name: hashlib.sha256(json.dumps(x.to_dict(), sort_keys=True).encode()).hexdigest()
        for name, x in artifacts.items()
    }
    assert digests == PINNED_OVERLAP_DIGESTS
    with pytest.raises(BudgetExceeded) as info:
        overlap_gamma(torus_query, 1, k_max=50)
    assert "east" in str(info.value)
