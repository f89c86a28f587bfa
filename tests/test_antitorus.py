"""Commuting-power screening, the pigeonhole, and overlap measurement."""

import hashlib
from collections import Counter
from importlib.resources import files
from itertools import islice, pairwise

import pytest
from hypothesis import given, settings, strategies as st

import cscwalls as cw
from cscwalls import develop
from cscwalls.antitorus import (
    AntiTorusQuery,
    GammaResult,
    _candidates,
    _commuting_powers,
    _Sweep,
    commuting_powers_search,
    find_periodic_top,
    overlap_at_height,
    overlap_gamma,
    periodic_candidates,
    screen_anti_torus,
)
from cscwalls.cli import main
from cscwalls.develop import CHUNK, _Memo, _word_ids, develop_ids, parse_word
from cscwalls.errors import BudgetExceeded, UnsupportedComplexError, WordError

from .oracles import (
    SweepByScan,
    commuting_powers_by_blocks,
    commuting_powers_by_rectangles,
    find_periodic_top_by_stacking,
    orbit_lengths_by_blocks,
    overlap_at_height_by_streaming,
    overlap_gamma_by_streams,
    periodic_agreement,
    periodic_ids_by_filtering,
    pigeonhole_by_memory,
)


def query(p, w1, w2):
    return AntiTorusQuery(p, cw.PeriodicWord(parse_word(p, w1)), cw.PeriodicWord(parse_word(p, w2)))


class TestCommutingSearch:
    def test_torus_everything_commutes(self, torus_query):
        assert commuting_powers_search(torus_query, 4, 4) == (1, 1)

    def test_klein_square_commutes_at_2_1(self, klein):
        # the reflection relation makes the squared horizontal letter central
        assert commuting_powers_search(query(klein, "a", "x"), 4, 4) == (2, 1)

    def test_shipped_pair_has_no_commuting_powers(self, shipped):
        assert commuting_powers_search(shipped, 8, 8) is None

    def test_agrees_with_direct_enumeration(self, shipped):
        """Exhaustive development of all 64 rectangles, independent of the
        search's own loop."""
        p = shipped.complex
        hits = []
        for k in range(1, 9):
            for j in range(1, 9):
                bottom, left = shipped.hword.power(k), shipped.vword.power(j)
                r = cw.fill_rectangle(p, bottom, left)
                if r.top == bottom and r.right == left:
                    hits.append((k, j))
        assert hits == []

    def test_matches_search_by_rectangles(self, census22, census13, census31):
        """Derandomized sweep over the 2+2, 1+3 and 3+1 census complexes,
        horizontal candidates of length <= 3, vertical ones of length <= 2
        and bounds <= 8: reading the orbit sweep finds the same (k, j) as
        developing every rectangle from scratch.  The sweep must meet pairs
        that first commute at k >= 2 and at j >= 2, and horizontal words of
        length >= 2 that commute and that do not, so the reading at columns
        k*|w1| and the stop above j_bound mid-period are checked.  It takes
        1000 examples because a search that compares only the first vertical
        period of R with v differs from the reference on under 1% of these
        draws."""
        complexes = census22 + census13 + census31
        candidates = {}
        results = []

        @given(st.data())
        @settings(max_examples=1000)
        def check(data):
            c = data.draw(st.integers(0, len(complexes) - 1), label="complex")
            p = complexes[c]
            if c not in candidates:
                candidates[c] = [periodic_candidates(p, cw.HORIZONTAL, 3), periodic_candidates(p, cw.VERTICAL, 2)]
            hwords, vwords = candidates[c]
            q = AntiTorusQuery(p, data.draw(st.sampled_from(hwords)), data.draw(st.sampled_from(vwords)))
            k_bound = data.draw(st.integers(1, 8), label="k_bound")
            j_bound = data.draw(st.integers(1, 8), label="j_bound")
            found = commuting_powers_search(q, k_bound, j_bound)
            assert found == commuting_powers_by_rectangles(q, k_bound, j_bound)
            results.append((len(q.hword), found))

        check()
        assert any(r is not None and r[0] >= 2 for _, r in results)
        assert any(r is not None and r[1] >= 2 for _, r in results)
        assert any(r is not None for n, r in results if n >= 2)
        assert any(r is None for n, r in results if n >= 2)
        assert any(n == 3 for n, _ in results)

    def test_proper_power_rejected_upstream(self, torus):
        with pytest.raises(WordError):
            query(torus, "a a", "x")

    def test_multi_vertex_rejected(self, two_vertex):
        with pytest.raises(UnsupportedComplexError):
            query(two_vertex, "a b", "x")


class TestFindPeriodicTop:
    def test_torus_immediate(self, torus_query):
        assert find_periodic_top(torus_query, 2) == (1, 1)

    def test_shipped_j_reproduces_bottom(self, shipped):
        p = shipped.complex
        for n in (1, 2, 3):
            j, first = find_periodic_top(shipped, n)
            bottom = shipped.hword.power(n)
            assert cw.fill_rectangle(p, bottom, shipped.vword.power(j)).top == bottom
            assert 1 <= j <= first

    def test_repetition_within_alphabet_power_bound(self, shipped):
        n = 1
        _, first = find_periodic_top(shipped, n)
        bound = (2 * len(shipped.complex.hedges)) ** (n * len(shipped.hword)) + 1
        assert first <= bound

    def test_budget(self, shipped):
        with pytest.raises(BudgetExceeded):
            find_periodic_top(shipped, 3, i_max=2)

    def test_first_repeat_is_the_bottom(self, census22):
        """Against the remembering pigeonhole on the first 8 screened pairs of
        every 2+2 census entry, n in {1, 2, 3, 5}: stacking one vertical
        period is a bijection, so the first repeated top is the bottom, and
        the rectangle of height j periods developed in one piece has that
        top too (the translation property)."""
        queries = [q for p in census22 for _, _, q in islice(screen_anti_torus(p), 8)]
        assert len(queries) == 24
        for q in queries:
            for n in (1, 2, 3, 5):
                j, first = find_periodic_top(q, n)
                assert (j, first) == pigeonhole_by_memory(q, n)
                assert first == j
                bottom = q.hword.power(n)
                assert cw.fill_rectangle(q.complex, bottom, q.vword.power(j)).top == bottom

    def test_translation_property_over_all_repeats(self, shipped):
        """Scan the developed-top sequence and check every observed repeat:
        v_i == v_{i+j} forces v_j to be the bottom word."""
        p = shipped.complex
        n, horizon = 2, 40
        bottom = shipped.hword.power(n)
        tops = [bottom]
        for _ in range(horizon):
            tops.append(cw.fill_rectangle(p, tops[-1], shipped.vword.period).top)
        repeats = 0
        for i in range(len(tops)):
            for k in range(i + 1, len(tops)):
                if tops[i] == tops[k]:
                    assert tops[k - i] == bottom
                    repeats += 1
        assert repeats > 0


class TestOverlap:
    def test_torus_diagnoses_periodic_flat(self, torus_query):
        with pytest.raises(BudgetExceeded) as info:
            overlap_gamma(torus_query, 1, k_max=50)
        assert "periodic flat" in str(info.value)

    def test_shipped_overlap_finite_and_long_enough(self, shipped):
        h = len(shipped.hword)
        for n in (1, 2, 3):
            g = overlap_gamma(shipped, n)
            assert g.total_len == g.left_len + g.right_len
            assert g.right_len >= n * h and g.left_len >= 0
            assert g.total_len >= n * h
            assert g.y_offset == g.j * len(shipped.vword)

    def test_monotone_persistence(self, shipped):
        assert overlap_gamma(shipped, 3).total_len >= overlap_gamma(shipped, 1).total_len

    def test_right_len_is_exact_divergence_point(self, shipped):
        """Independent re-development: develop the full top over one extra
        period and locate the first disagreement with the periodic word."""
        p = shipped.complex
        g = overlap_gamma(shipped, 2)
        h = len(shipped.hword)
        k = -(-g.right_len // h) + 1
        top = cw.fill_rectangle(p, shipped.hword.power(k), shipped.vword.power(g.j)).top
        periodic = shipped.hword.power(k)
        agree = 0
        while agree < k * h and top.letters[agree] == periodic.letters[agree]:
            agree += 1
        assert agree == g.right_len

    def test_develop_right_reproduces_left_for_some_k(self, shipped):
        """The sideways pigeonhole: some width makes the developed right side
        equal the vertical power again."""
        p = shipped.complex
        j, _ = find_periodic_top(shipped, 1)
        left = shipped.vword.power(j)
        found = None
        for k in range(1, 200):
            if cw.fill_rectangle(p, shipped.hword.power(k), left).right == left:
                found = k
                break
        assert found is not None

    def test_ends_at_fixed_height_match_row_major(self, census22):
        """At heights j = 1..7 the orbit sweeps and the divergence streams
        measure the ends that row-major development finds: east with the
        horizontal word, west with its inverse on the mirrored complex.  The
        pair's west end lies further out than its east end at some of these
        heights, so a swap of the two directions fails."""
        p = census22[69]
        q = query(p, "b", "x -y")
        asymmetric = 0
        for j in range(1, 8):
            left, right = overlap_at_height(q, j)
            side = q.vword.power(j)
            assert periodic_agreement(p, q.hword.period, side, right + 1) == right
            assert periodic_agreement(p.mirrored, q.hword.inverse().period, side, left + 1) == left
            assert overlap_at_height_by_streaming(q, j) == (left, right)
            asymmetric += left != right
        assert asymmetric

    def test_gamma_ends_match_row_major(self, shipped):
        p = shipped.complex
        g = overlap_gamma(shipped, 2)
        assert g.j == pigeonhole_by_memory(shipped, 2)[0]
        side = shipped.vword.power(g.j)
        assert periodic_agreement(p, shipped.hword.period, side, g.right_len + 1) == g.right_len
        west = periodic_agreement(p.mirrored, shipped.hword.inverse().period, side, g.left_len + 1)
        assert west == g.left_len

    def test_detectors_are_exclusive(self, census22, torus_query, klein):
        """commuting-powers-found and finite-overlap-found never co-fire."""
        cases = [torus_query, query(klein, "a", "x")]
        cases += [q for _, _, q in list(screen_anti_torus(census22[78]))[:3]]
        for q in cases:
            commuting = commuting_powers_search(q, 6, 6)
            try:
                gamma = overlap_gamma(q, 1, k_max=100)
                finite = True
            except BudgetExceeded:
                finite = False
            assert not (commuting is not None and finite), (commuting, q)


#: Height cap of the oracle sweeps.  Screened pairs with words of length <= 2
#: exceed it by n = 6 only on a few rows, which must then fail alike on both
#: sides; it keeps the one-exponent-at-a-time references affordable.
ORACLE_I_MAX = 5000


@pytest.fixture
def develop_calls(monkeypatch):
    """A Counter whose "develop_ids" entry counts develop.develop_ids calls."""
    calls = Counter()

    def counted(*args):
        calls["develop_ids"] += 1
        return develop_ids(*args)

    monkeypatch.setattr(develop, "develop_ids", counted)
    return calls


def outcome(fn, *args, **kwargs):
    """The result of fn, or the type and text of the BudgetExceeded it raised."""
    try:
        return fn(*args, **kwargs)
    except BudgetExceeded as exc:
        return type(exc), str(exc)


class TestOverlapSweep:
    def test_matches_stream_and_memory_oracles(self, screened_pairs):
        """Derandomized sweep over screened 2+2, 1+3 and 3+1 pairs with words
        of length <= 2 and n <= 6: overlap_gamma equals the pigeonhole plus
        two divergence streams, and the remembering row-major pigeonhole plus
        row-major agreement east and west; the overlap reaches n periods east."""
        seen = Counter()

        @given(st.data())
        @settings(max_examples=150)
        def check(data):
            q = screened_pairs[data.draw(st.integers(0, len(screened_pairs) - 1), label="pair")]
            n = data.draw(st.integers(1, 6), label="n")
            got = outcome(overlap_gamma, q, n, i_max=ORACLE_I_MAX)
            assert got == outcome(overlap_gamma_by_streams, q, n, i_max=ORACLE_I_MAX)
            if not isinstance(got, GammaResult):
                seen["over i_max"] += 1
                return
            assert got.right_len >= n * len(q.hword)
            j, _ = pigeonhole_by_memory(q, n, i_max=ORACLE_I_MAX)
            side = q.vword.power(j)
            east = periodic_agreement(q.complex, q.hword.period, side, got.right_len + 1)
            west = periodic_agreement(
                q.complex.mirrored, q.hword.inverse().period, side, got.left_len + 1
            )
            assert (j, west, east) == (got.j, got.left_len, got.right_len)
            seen["unequal ends" if west != east else "equal ends"] += 1

        check()
        assert set(seen) == {"over i_max", "unequal ends", "equal ends"}, seen

    def test_budget_failures_match_streams(self, screened_pairs):
        """With small budgets the same exception type and text as the
        references, in the same precedence: i_max, then east, then west.
        Exponents from -6 to 6: n <= 0 takes its height from the inverse
        word, as h.power(n) does in the reference."""
        seen = Counter()

        @given(st.data())
        @settings(max_examples=200)
        def check(data):
            q = screened_pairs[data.draw(st.integers(0, len(screened_pairs) - 1), label="pair")]
            n = data.draw(st.integers(-6, 6), label="n")
            k_max = data.draw(st.integers(1, 12), label="k_max")
            i_max = data.draw(st.integers(1, 300), label="i_max")
            got = outcome(overlap_gamma, q, n, k_max=k_max, i_max=i_max)
            assert got == outcome(overlap_gamma_by_streams, q, n, k_max=k_max, i_max=i_max)
            seen["ok" if isinstance(got, GammaResult) else got[1].split(" within")[0]] += 1

        check()
        assert set(seen) == {
            "ok",
            "no repeated top",
            "no divergence east of the basepoint",
            "no divergence west of the basepoint",
        }, seen


    def test_results_do_not_depend_on_earlier_calls(self, screened_pairs):
        """A query keeps its two sweeps across calls with different budgets.
        Every result of a random sequence of calls on one query equals the
        result on a fresh copy of it: the value, or the BudgetExceeded type
        and text."""

        @given(st.data())
        @settings(max_examples=100)
        def check(data):
            q = screened_pairs[data.draw(st.integers(0, len(screened_pairs) - 1), label="pair")]
            shared = AntiTorusQuery(q.complex, q.hword, q.vword)
            calls = st.tuples(st.integers(-6, 6), st.integers(1, 12), st.integers(1, 300))
            for n, k_max, i_max in data.draw(st.lists(calls, min_size=2, max_size=8), label="calls"):
                fresh = AntiTorusQuery(q.complex, q.hword, q.vword)
                got = outcome(overlap_gamma, shared, n, k_max=k_max, i_max=i_max)
                assert got == outcome(overlap_gamma, fresh, n, k_max=k_max, i_max=i_max)

        check()

    def test_development_stops_at_the_height_cap(self, shipped):
        """On the shipped pair j(n) = 4*3^k for 3^(k-1) < n <= 3^k.  A call
        whose height exceeds i_max = 100 develops the east sweep up to the
        first length above 100 (108 = j(10)) and no further, and never
        touches the west sweep.

        Column 81 is the first of a walk of two columns, and only column 82
        rises (324 to 972).  A read that ends at column 81 walks one block
        of R: it fills at most one pair slot per chunk of R (324 ids, 41
        chunks), and the walk's other two blocks wait until column 82 is
        read."""
        for n in (3**5, 3**10):
            q = AntiTorusQuery(shipped.complex, shipped.hword, shipped.vword)
            with pytest.raises(BudgetExceeded, match="^no repeated top within 100 developed words"):
                overlap_gamma(q, n, i_max=100)
            east, west = q.sweeps
            assert east.cols == 10 and east.rises[-1] == (10, 108)
            assert max(j for _, j in east.rises[:-1]) <= 100
            assert west.cols == 0 and west.rises == [(0, 1)]
        p = shipped.complex
        memo = _Memo(p.tables)
        east = _Sweep(memo, _word_ids(p, shipped.hword.period), _word_ids(p, shipped.vword.period))

        def pair_slots():
            return sum(slot is not None for row in memo.rows for slot in row[memo.letters :])

        assert east.height(80, 324) == 324
        filled = pair_slots()
        assert east.height(81, 324) == 324 and east.cols == 81
        assert 0 < pair_slots() - filled <= 41
        filled = pair_slots()
        assert east.height(82, 324) == 972 and east.cols == 82
        assert pair_slots() > filled

    def test_directions_share_one_chunk_table(self, shipped, develop_calls):
        """On the shipped pair the two directions meet almost the same
        chunks, so overlap_gamma(q, 500), whose sweeps each develop 730
        columns, makes at most 52% of the 3,650 develop_ids calls of two
        sweeps with a memo each (1,870 with one memo), and both sweeps'
        right words index one memo."""
        q = AntiTorusQuery(shipped.complex, shipped.hword, shipped.vword)
        assert overlap_gamma(q, 500).total_len == 1458
        assert [s.cols for s in q.sweeps] == [730, 730]
        assert develop_calls["develop_ids"] <= 0.52 * 3650, develop_calls
        east_memo, west_memo = (next(s._lengths)[1]._memo for s in q.sweeps)
        assert east_memo is west_memo

    def test_no_developed_work_outlives_a_command(self, develop_calls, tmp_path):
        """Two gamma commands in one process make the same develop_ids calls:
        the memo lives on the command's query, not in the process."""
        path = str(files("cscwalls.data").joinpath("aperiodic22.sqc"))
        counts = []
        for i in range(2):
            argv = ["gamma", "--complex", path, "--w1", "a", "--w2", "x", "--n", "300", "--out", str(tmp_path / f"{i}.json")]
            assert main(argv) == 0
            counts.append(develop_calls.pop("develop_ids"))
        assert counts[0] == counts[1] > 0, counts

    def test_sweep_reads_match_a_column_scan(self, screened_pairs):
        """Derandomized sweep over the screened pairs: on one sweep per draw,
        east or west, a random sequence of height and agreement reads returns
        what a column-by-column scan of the block-by-block reference sweep
        returns, and leaves the same number of columns developed after every
        read.  Heights are drawn on the chain j(0), j(1), ... and off it, and
        caps at the columns where j rises, next to them and elsewhere.  The
        sweep's rises are the scan's lengths where they change."""
        seen = Counter()

        @given(st.data())
        @settings(max_examples=120)
        def check(data):
            q = screened_pairs[data.draw(st.integers(0, len(screened_pairs) - 1), label="pair")]
            p = q.complex
            hword = data.draw(st.sampled_from([q.hword, q.hword.inverse()]), label="direction")
            ids = _word_ids(p, hword.period), _word_ids(p, q.vword.period)
            sweep, scan, probe = _Sweep(_Memo(p.tables), *ids), SweepByScan(p.tables, *ids), SweepByScan(p.tables, *ids)
            probe.height(SCAN_COLS, SCAN_J)
            chain = probe.js
            edges = [c for c, (a, b) in enumerate(pairwise(chain), 1) if a != b] or [0]
            heights = st.one_of(st.sampled_from(chain), st.integers(1, 2 * SCAN_J))
            caps = st.one_of(
                st.sampled_from(edges).flatmap(lambda c: st.sampled_from([max(c - 1, 0), c, c + 1])),
                st.integers(0, SCAN_COLS),
            )
            max_js = st.one_of(heights, st.sampled_from(chain).map(lambda j: j - 1))
            reads = st.one_of(
                st.tuples(st.just("height"), caps, max_js),
                st.tuples(st.just("agreement"), heights, caps),
            )
            for read, x, cap in data.draw(st.lists(reads, min_size=1, max_size=10), label="reads"):
                got = getattr(sweep, read)(x, cap)
                assert got == getattr(scan, read)(x, cap)
                assert sweep.cols == scan.cols
                if read == "height":
                    seen["height above cap" if got > cap else "height"] += 1
                else:
                    seen["agreement at cap" if got is None else "agreement"] += 1
                    seen["height off the chain"] += x not in chain
            js = scan.js
            assert sweep.rises == [(c, j) for c, j in enumerate(js) if c == 0 or j != js[c - 1]]

        check()
        want = {"height", "height above cap", "agreement", "agreement at cap", "height off the chain"}
        assert set(seen) == want and min(seen.values()) >= 10, seen

    def test_pigeonhole_heights_divide_the_next(self, screened_pairs):
        """The lemma the sweep keeps its rises by, on the stacking reference,
        which stacks periods on each w1^n from scratch: for every screened
        pair with a one-letter w1, j(n) divides j(n+1) for n = 1..12 while j
        stays within i_max = 400.  Some heights must stay and some rise."""
        seen = Counter()
        for q in screened_pairs:
            if len(q.hword) != 1:
                continue
            heights = []
            for n in range(1, 13):
                try:
                    heights.append(find_periodic_top_by_stacking(q, n, i_max=400)[0])
                except BudgetExceeded:
                    break
            for a, b in pairwise(heights):
                assert b % a == 0, (str(q.hword.period), str(q.vword.period), heights)
                seen["rises" if b > a else "stays"] += 1
        assert min(seen["rises"], seen["stays"]) >= 10, seen


#: Column and height caps of the probe that draws the sweep reads' heights
#: and caps; reads draw heights up to twice SCAN_J.
SCAN_COLS, SCAN_J = 40, 300


@pytest.fixture(scope="module")
def screen_census(census22, census13, census31, census23):
    """A strategy over the 2+2, 1+3, 3+1 and 2+3 census entries that draws
    half the time from the entries with a pair of single letters that
    commuting_powers_search leaves open: only about one entry in ten yields
    any pair."""
    complexes = census22 + census13 + census31 + census23
    open_entries = [
        p
        for p in complexes
        if any(
            commuting_powers_search(AntiTorusQuery(p, hw, vw)) is None
            for hw in periodic_candidates(p, cw.HORIZONTAL, 1)
            for vw in periodic_candidates(p, cw.VERTICAL, 1)
        )
    ]
    return st.one_of(st.sampled_from(open_entries), st.sampled_from(complexes))


class TestScreening:
    def test_candidate_enumeration_is_deterministic(self, shipped):
        p = shipped.complex
        words = periodic_candidates(p, cw.HORIZONTAL, 2)
        assert [str(x.period) for x in words] == [str(x.period) for x in periodic_candidates(p, cw.HORIZONTAL, 2)]
        assert all(len(x) <= 2 for x in words)

    def test_candidates_match_brute_force_filter(self, shipped, census13, census31):
        """Edge counts 1, 2 and 3 in both classes, words up to length 3."""
        for p in (shipped.complex, census13[0], census31[0]):
            for klass, pool in ((cw.HORIZONTAL, p.hedges), (cw.VERTICAL, p.vedges)):
                words = periodic_candidates(p, klass, 3)
                ids = [tuple(p.germ_id(e) for e in x.period.letters) for x in words]
                assert ids == periodic_ids_by_filtering(2 * len(pool), 3)

    def test_candidates_are_one_cached_table_of_tuples(self):
        """A repeated (germ count, length) gets the same tuple object, and
        every id word and inverse-class key in it is a tuple."""
        for n_germs in (2, 4, 6):
            for max_len in (1, 2, 3):
                table = _candidates(n_germs, max_len)
                assert _candidates(n_germs, max_len) is table and type(table) is tuple
                assert all(type(ids) is tuple and type(key) is tuple for ids, key in table)

    def test_same_edge_counts_build_candidates_once(self, census22):
        """The screen of a second complex with the same edge counts misses no
        cache entry; on 2+2 both classes share one key."""
        _candidates.cache_clear()
        list(screen_anti_torus(census22[0], max_len=2))
        assert _candidates.cache_info().misses == 1
        list(screen_anti_torus(census22[1], max_len=2))
        assert _candidates.cache_info().misses == 1

    def test_shipped_complex_screens_positive(self, shipped):
        pairs = list(screen_anti_torus(shipped.complex, max_len=1))
        assert any(str(hw.period) == "a" and str(vw.period) == "x" for hw, vw, _ in pairs)

    @pytest.mark.parametrize(
        "max_len, pairs, digest",
        [
            (2, 336, "07ba7eb3645aa01bf3184c02fbae30d9f2dbf39d180e7c67cf8c1cac80ea818f"),
            (3, 3600, "1c7cf1c25679dc4271ec0cb56f185b1100ccb02b75ea436d3024fc4b14a112be"),
        ],
    )
    def test_yield_order_is_pinned(self, census22, max_len, pairs, digest):
        """Every pair the screen yields over the 2+2 census, unlimited, one
        ``index w1 w2`` line each, in yield order."""
        lines = [
            f"{i} {hw.period} {vw.period}\n"
            for i, p in enumerate(census22)
            for hw, vw, _ in screen_anti_torus(p, max_len=max_len)
        ]
        assert len(lines) == pairs
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest

    def test_screen_equals_per_pair_search(self, screen_census):
        """Derandomized sweep over the 2+2, 1+3, 3+1 and 2+3 census entries
        with max_len 1..3: the screen yields exactly the candidate pairs, in
        order, for which the block-by-block reference search on that very
        pair finds no commuting powers.  The screen decides one pair per
        inverse class, so this checks that the class shares the verdict; the
        reference shares no developed column, as the screen's verdicts do."""
        seen = Counter()

        @given(st.data())
        @settings(max_examples=40)
        def check(data):
            p = data.draw(screen_census, label="complex")
            max_len = data.draw(st.integers(1, 3), label="max_len")
            got = [(hw, vw) for hw, vw, _ in screen_anti_torus(p, max_len=max_len)]
            want = [
                (hw, vw)
                for hw in periodic_candidates(p, cw.HORIZONTAL, max_len)
                for vw in periodic_candidates(p, cw.VERTICAL, max_len)
                if commuting_powers_by_blocks(p.tables, _word_ids(p, hw.period), _word_ids(p, vw.period)) is None
            ]
            assert got == want
            seen["some yielded" if got else "none yielded"] += 1

        check()
        assert set(seen) == {"some yielded", "none yielded"}, seen

    def test_verdicts_sharing_columns_match_blocks(self, screen_census):
        """Derandomized sweep over the same census entries, words up to length
        3 and bounds 1..12, so that R outgrows one chunk: _commuting_powers
        with one memo per complex, shared by every draw on it and interleaved
        with the draws on a second complex, finds the same (k, j) as the
        block-by-block reference.  Some draws must reuse base-case columns
        that earlier draws filled, and some must meet an R longer than one
        chunk."""
        seen = Counter()

        @given(st.data())
        @settings(max_examples=60)
        def check(data):
            pair = [data.draw(screen_census, label=f"complex {i}") for i in range(2)]
            words = [[_candidates(len(p.germs[k]), 3) for k in (cw.HORIZONTAL, cw.VERTICAL)] for p in pair]
            memos = [_Memo(p.tables) for p in pair]
            for _ in range(data.draw(st.integers(2, 16), label="verdicts")):
                i = data.draw(st.integers(0, 1), label="complex")
                tables = pair[i].tables
                h, v = (data.draw(st.sampled_from(ws), label=klass)[0] for ws, klass in zip(words[i], "hv"))
                bounds = [data.draw(st.integers(1, 12), label=name) for name in ("k_bound", "j_bound")]
                filled = len(memos[i].columns)
                found = _commuting_powers(memos[i], h, v, *bounds)
                assert found == commuting_powers_by_blocks(tables, h, v, *bounds)
                seen["reused"] += filled > 0
                cols = (found[0] if found else bounds[0]) * len(h)
                for j, right in islice(orbit_lengths_by_blocks(tables, h, list(v)), cols):
                    if len(right) > CHUNK:
                        seen["long R"] += 1
                        break
                    if j > bounds[1]:
                        break
                seen["none" if found is None else "commuting"] += 1

        check()
        assert min(seen["reused"], seen["long R"], seen["none"], seen["commuting"]) >= 20, seen

    def test_inverse_words_commute_alike(self, screen_census):
        """Derandomized sweep over the same census entries, words up to
        length 3 and bounds 1..8: the from-scratch rectangle search finds the
        same (k, j) for (h, v), (h^-1, v) and (h, v^-1), the invariance the
        screen's one verdict per class rests on."""
        seen = Counter()

        @given(st.data())
        @settings(max_examples=150)
        def check(data):
            p = data.draw(screen_census, label="complex")
            hw = data.draw(st.sampled_from(periodic_candidates(p, cw.HORIZONTAL, 3)), label="h")
            vw = data.draw(st.sampled_from(periodic_candidates(p, cw.VERTICAL, 3)), label="v")
            bounds = [data.draw(st.integers(1, 8), label=name) for name in ("k_bound", "j_bound")]
            found = commuting_powers_by_rectangles(AntiTorusQuery(p, hw, vw), *bounds)
            for h, v in ((hw.inverse(), vw), (hw, vw.inverse())):
                assert commuting_powers_by_rectangles(AntiTorusQuery(p, h, v), *bounds) == found
            seen["none" if found is None else "commuting"] += 1

        check()
        assert set(seen) == {"none", "commuting"}, seen

    def test_multi_vertex_screen_rejected(self, two_vertex):
        with pytest.raises(UnsupportedComplexError):
            next(screen_anti_torus(two_vertex))
