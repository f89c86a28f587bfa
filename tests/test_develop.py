"""Development engine: determinism, algebraic laws, kernels, words."""

import itertools
import signal
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cscwalls as cw
from cscwalls import develop
from cscwalls.antitorus import _candidates
from cscwalls.develop import BACKEND, CHUNK, _word_ids, orbit_lengths, parse_word, stream_mismatch_ids
from cscwalls.errors import DevelopmentError, WordError

from .conftest import random_reduced_word
from .oracles import develop_row_major, orbit_lengths_by_blocks


def w(p, text, klass=None):
    return parse_word(p, text, klass)


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the main thread after `seconds`, so a sweep
    whose column never closes fails its example instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"sweep column still open after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestWords:
    def test_parse_compact_and_spaced(self, shipped):
        p = shipped.complex
        assert w(p, "a -b a").tokens() == ["a", "-b", "a"]
        assert w(p, "a-ba").tokens() == ["a", "-b", "a"]
        assert str(w(p, "a -b a")) == "a-ba"

    def test_not_reduced(self, shipped):
        with pytest.raises(WordError):
            w(shipped.complex, "a -a")

    def test_mixed_class(self, shipped):
        with pytest.raises(WordError):
            w(shipped.complex, "a x")

    def test_unknown_letter(self, shipped):
        with pytest.raises(WordError):
            w(shipped.complex, "q")

    def test_inverse_involution(self, shipped):
        word = w(shipped.complex, "a b a -b")
        assert word.inverse().inverse() == word
        assert word.inverse().tokens() == ["b", "-a", "-b", "-a"]

    def test_periodic_rejects_proper_power(self, torus):
        with pytest.raises(WordError):
            cw.PeriodicWord(w(torus, "a a"))

    def test_periodic_rejects_cyclically_unreduced(self, shipped):
        with pytest.raises(WordError):
            cw.PeriodicWord(w(shipped.complex, "a b -a"))

    def test_periodic_accepts_primitives(self, shipped):
        p = shipped.complex
        for text in ("a", "a b", "a a b"):
            assert len(cw.PeriodicWord(w(p, text))) == len(w(p, text))


class TestTrivialDevelopments:
    def test_torus_identity(self, torus):
        r = cw.fill_rectangle(torus, w(torus, "aaa"), w(torus, "xx"))
        assert str(r.top) == "aaa" and str(r.right) == "xx"
        assert r.width == 3 and r.height == 2

    def test_zero_height(self, shipped):
        p = shipped.complex
        word = w(p, "a b")
        r = cw.fill_rectangle(p, word, cw.Word((), cw.VERTICAL))
        assert r.top == word and len(r.right) == 0

    def test_zero_width(self, shipped):
        p = shipped.complex
        word = w(p, "x y")
        r = cw.fill_rectangle(p, cw.Word((), cw.HORIZONTAL), word)
        assert r.right == word and len(r.top) == 0

    def test_torus_develop_top(self, torus):
        assert str(cw.fill_rectangle(torus, w(torus, "aaaa"), w(torus, "xxx")).top) == "aaaa"


class TestLaws:
    def test_length_preservation(self, shipped, rng):
        p = shipped.complex
        for _ in range(50):
            bottom = random_reduced_word(p, cw.HORIZONTAL, rng.randint(0, 30), rng)
            left = random_reduced_word(p, cw.VERTICAL, rng.randint(0, 30), rng)
            r = cw.fill_rectangle(p, bottom, left)
            assert len(r.top) == len(bottom) and len(r.right) == len(left)

    def test_prefix_stability(self, shipped, rng):
        p = shipped.complex
        for _ in range(50):
            bottom = random_reduced_word(p, cw.HORIZONTAL, rng.randint(1, 30), rng)
            left = random_reduced_word(p, cw.VERTICAL, rng.randint(1, 20), rng)
            full = cw.fill_rectangle(p, bottom, left).top
            for cut in (1, len(bottom) // 2, len(bottom) - 1):
                prefix = cw.Word(bottom.letters[:cut], cw.HORIZONTAL)
                assert cw.fill_rectangle(p, prefix, left).top.letters == full.letters[:cut]

    def test_horizontal_compositionality(self, shipped, rng):
        p = shipped.complex
        for _ in range(50):
            bottom = random_reduced_word(p, cw.HORIZONTAL, rng.randint(2, 30), rng)
            left = random_reduced_word(p, cw.VERTICAL, rng.randint(1, 20), rng)
            cut = rng.randint(1, len(bottom) - 1)
            u1 = cw.Word(bottom.letters[:cut], cw.HORIZONTAL)
            u2 = cw.Word(bottom.letters[cut:], cw.HORIZONTAL)
            whole = cw.fill_rectangle(p, bottom, left)
            first = cw.fill_rectangle(p, u1, left)
            second = cw.fill_rectangle(p, u2, first.right)
            assert whole.top.letters == first.top.letters + second.top.letters
            assert whole.right == second.right

    def test_vertical_compositionality(self, shipped, rng):
        p = shipped.complex
        for _ in range(50):
            bottom = random_reduced_word(p, cw.HORIZONTAL, rng.randint(1, 20), rng)
            left = random_reduced_word(p, cw.VERTICAL, rng.randint(2, 30), rng)
            cut = rng.randint(1, len(left) - 1)
            v1 = cw.Word(left.letters[:cut], cw.VERTICAL)
            v2 = cw.Word(left.letters[cut:], cw.VERTICAL)
            whole = cw.fill_rectangle(p, bottom, left)
            lower = cw.fill_rectangle(p, bottom, v1)
            upper = cw.fill_rectangle(p, lower.top, v2)
            assert whole.right.letters == lower.right.letters + upper.right.letters
            assert whole.top == upper.top

    def test_developed_words_are_reduced(self, census22, rng):
        # Word.__post_init__ enforces reducedness, so construction is the assert
        for p in census22[::7]:
            bottom = random_reduced_word(p, cw.HORIZONTAL, 25, rng)
            left = random_reduced_word(p, cw.VERTICAL, 25, rng)
            cw.fill_rectangle(p, bottom, left)


class TestOracle:
    def test_row_major_agreement_fixed(self, shipped):
        p = shipped.complex
        hw, vw = shipped.hword, shipped.vword
        bottom, left = hw.power(2), vw.power(1)
        r = cw.fill_rectangle(p, bottom, left)
        top, right = develop_row_major(p, bottom, left)
        assert r.top.letters == tuple(top) and r.right.letters == tuple(right)

    def test_row_major_agreement_random(self, census22, rng):
        for i in range(200):
            p = census22[i % len(census22)]
            bottom = random_reduced_word(p, cw.HORIZONTAL, rng.randint(0, 25), rng)
            left = random_reduced_word(p, cw.VERTICAL, rng.randint(0, 25), rng)
            r = cw.fill_rectangle(p, bottom, left)
            top, right = develop_row_major(p, bottom, left)
            assert r.top.letters == tuple(top) and r.right.letters == tuple(right)


    def test_orbit_lengths_are_stacking_orbits(self, screened_pairs):
        """For every prefix length N up to three periods of the horizontal
        word, including prefixes that end inside a two-letter period, j(N) is
        the number of row-major stacks of one vertical period that bring the
        length-N prefix back, and R is the row-major right word of the
        rectangle of height j(N) periods over the prefix."""
        queries = screened_pairs[::7]
        assert any(len(q.hword) == 2 for q in queries)
        for q in queries:
            p = q.complex
            h = q.hword.period.letters
            lengths = orbit_lengths(
                develop._Memo(p.tables), [p.germ_id(e) for e in h], [p.germ_id(e) for e in q.vword.period.letters]
            )
            for N, (j, right) in zip(range(1, 3 * len(h) + 1), lengths):
                prefix = tuple(h[i % len(h)] for i in range(N))
                top, stacks = prefix, 0
                while stacks == 0 or top != prefix:
                    top = tuple(develop_row_major(p, cw.Word(top, cw.HORIZONTAL), q.vword.period)[0])
                    stacks += 1
                assert j == stacks, (q.hword.period, q.vword.period, N)
                expected = develop_row_major(p, cw.Word(prefix, cw.HORIZONTAL), q.vword.power(j))[1]
                assert list(right) == [p.germ_id(e) for e in expected], (q.hword.period, q.vword.period, N)


class TestChunkedSweep:
    """develop.orbit_lengths against the block-by-block reference sweep."""

    #: Columns per drawn sweep, and the length of R past which a sweep stops
    #: being compared (some census pairs multiply j at every column).
    MAX_COLS = 60
    MAX_LETTERS = 1500

    @pytest.fixture(scope="class")
    def census(self, census22, census13, census31, census23):
        """The 2+2, 1+3, 3+1 and 2+3 census complexes, and those among them
        whose first single-letter pair's reference sweep outgrows two chunks
        within 20 columns: a few dozen of the 1,143."""
        complexes = census22 + census13 + census31 + census23
        growing = [
            p
            for p in complexes
            if any(len(r) > 2 * CHUNK for _, (_, r) in zip(range(20), orbit_lengths_by_blocks(p.tables, [0], [0])))
        ]
        return complexes, growing

    @pytest.fixture(scope="class")
    def pairings(self, census, census22):
        """Two lists of (complex, h, v) sweeps that walk two columns at a
        time.  On a warm memo, each growing complex under its first four
        two-letter horizontal words and first two one-letter vertical words
        meets all three kinds of such walks.  Among the 2+2 complexes under
        their first letter and every three-letter vertical word, the sweeps
        whose reference R is v^j and longer than one chunk at some column
        within 60."""

        def words(p, klass, length, count=None):
            return [list(w) for w, _ in _candidates(len(p.germs[klass]), length) if len(w) == length][:count]

        def keeps_powers(p, h, v):
            sweep = itertools.islice(orbit_lengths_by_blocks(p.tables, h, v), self.MAX_COLS)
            short = itertools.takewhile(lambda column: len(column[1]) <= self.MAX_LETTERS, sweep)
            return any(len(r) > CHUNK and r == v * j for j, r in short)

        _, growing = census
        kinds = [(p, h, v) for p in growing for h in words(p, cw.HORIZONTAL, 2, 4) for v in words(p, cw.VERTICAL, 1, 2)]
        powers = [(p, h, v) for p in census22 for h in words(p, cw.HORIZONTAL, 1, 1) for v in words(p, cw.VERTICAL, 3)]
        return kinds, [sweep for sweep in powers if keeps_powers(*sweep)]

    #: Sweeps (census, entry, h, v, columns) whose walks of two columns meet
    #: every kind that test_matches_sweep_by_blocks counts, each run on a memo
    #: that an equal sweep filled first, with the kinds each one meets: only
    #: the first column's j rises, only the second's, both; a pending R that
    #: is v^j and one that is not; a second column whose j rises and that
    #: runs develop_ids only when read.
    FIXED = [
        ("shipped", 0, [0], [0], 20, {"second", "pending R = v^j False"}),
        ("2+3", 760, [1, 2], [0], 60, {"first", "second", "pending R = v^j False"}),
        ("2+3", 783, [0, 2], [0], 60, {"both", "developed on reading the second", "pending R = v^j False"}),
        ("2+2", 32, [0], [0, 0, 2], 60, {"pending R = v^j True"}),
    ]

    def test_matches_sweep_by_blocks(self, census, pairings, shipped, census22, census23, monkeypatch):
        """Column by column, (j, R) equal the reference's for pairs of
        periodic words of length <= 3 on the 2+2, 1+3, 3+1 and 2+3 census
        complexes, and for the shipped pair in both directions, over up to 60
        columns.  A third of the draws are on complexes whose sweeps grow,
        since most census sweeps never leave one chunk.  Every chunk of R but
        the last is full.  The sweep must meet right words of at least three
        chunks with a partial last chunk (|w2| = 3 gives lengths 3j), and
        columns of several blocks after them, whose blocks are cut again.
        The sweeps of ``pairings`` join the draws, and a draw may sweep a memo
        that an equal sweep filled first (the growing pairings always do), so
        it walks two columns at a time.  Such walks must occur in all three
        kinds: only the first column's j rises, only the second's, and both.
        The first column's R is pending there; its R = v^j test
        (``repeats``, as _commuting_powers reads it) must agree with the
        reference and come out both true and false.  The walk must stop at
        that column: some second columns whose j rises run develop_ids only
        when read.  The sweeps of FIXED are checked beside the draws, and
        alone meet each of these kinds as often as the test asks.  Every
        chunked R indexes the sweep's memo.  A column that never closes fails
        its example after 5 s."""
        complexes, growing = census
        p0 = shipped.complex
        shipped_ids = [_word_ids(p0, w.period) for w in (shipped.hword, shipped.hword.inverse())]
        candidates = {}
        seen = Counter()
        calls = Counter()
        kernel = develop.develop_ids

        def counted(*args):
            calls["develop_ids"] += 1
            return kernel(*args)

        monkeypatch.setattr(develop, "develop_ids", counted)

        def sweep_and_check(p, h_ids, v_ids, cols, warm):
            """Check cols columns of one sweep against the reference; the
            kinds it met, as a Counter."""
            met = Counter()
            memo = develop._Memo(p.tables)
            if warm:  # an equal sweep fills the memo first
                for _, (j, _) in zip(range(cols), orbit_lengths(memo, h_ids, v_ids)):
                    if j * len(v_ids) > self.MAX_LETTERS:
                        break
            sweep = orbit_lengths(memo, h_ids, v_ids)
            reference = orbit_lengths_by_blocks(p.tables, h_ids, v_ids)
            partial = recut = False
            prev_len = len(v_ids)
            js, developed, pending = [1], [False], []  # by column, from column 0
            for ref_j, ref_right in itertools.islice(reference, cols):
                before = calls["develop_ids"]
                with deadline(5):
                    j, right = next(sweep)
                js.append(j)
                developed.append(calls["develop_ids"] > before)
                letters = len(ref_right)
                if letters > CHUNK:
                    assert right._memo is memo
                    assert all(len(memo.chunks[c]) == CHUNK for c in right._ids[:-1])
                    if right._letter is not None:  # the first column of a walk of two
                        pending.append(len(js) - 1)
                        is_power = right.repeats(v_ids)
                        assert is_power == (ref_right == list(v_ids) * j)
                        met[f"pending R = v^j {is_power}"] += 1
                assert (j, list(right)) == (ref_j, ref_right)
                partial |= letters > 2 * CHUNK and letters % CHUNK != 0
                recut |= prev_len > 2 * CHUNK and prev_len % CHUNK != 0 and letters > prev_len
                if letters > self.MAX_LETTERS:
                    break
                prev_len = letters
            kinds = {(True, False): "first", (False, True): "second", (True, True): "both"}
            for n in pending:
                if n + 1 < len(js):
                    second_rises = js[n + 1] > js[n]
                    met[kinds.get((js[n] > js[n - 1], second_rises), "neither")] += 1
                    met["developed on reading the second"] += second_rises and developed[n + 1]
            met["partial"] += partial
            met["recut"] += recut
            return met

        @given(st.data())
        @settings(max_examples=150)
        def check(data):
            source = data.draw(st.sampled_from(["shipped", "growing", "census", "kinds", "powers"]), label="source")
            if source == "shipped":
                p = p0
                h_ids = data.draw(st.sampled_from(shipped_ids), label="direction")
                v_ids = _word_ids(p0, shipped.vword.period)
            elif source in ("kinds", "powers"):
                p, h_ids, v_ids = data.draw(st.sampled_from(pairings[source == "powers"]), label="sweep")
            else:
                p = data.draw(st.sampled_from(growing if source == "growing" else complexes), label="complex")
                if id(p) not in candidates:
                    candidates[id(p)] = [
                        [list(w) for w, _ in _candidates(len(p.germs[k]), 3)] for k in (cw.HORIZONTAL, cw.VERTICAL)
                    ]
                hwords, vwords = candidates[id(p)]
                h_ids, v_ids = data.draw(st.sampled_from(hwords), label="h"), data.draw(st.sampled_from(vwords), label="v")
            cols = data.draw(st.integers(1, self.MAX_COLS), label="columns")
            warm = source == "kinds" or data.draw(st.booleans(), label="warm")
            seen.update(sweep_and_check(p, h_ids, v_ids, cols, warm))

        check()
        entries = {"shipped": [p0], "2+2": census22, "2+3": census23}
        fixed = Counter()
        for name, entry, h_ids, v_ids, cols, kinds in self.FIXED:
            met = sweep_and_check(entries[name][entry], h_ids, v_ids, cols, True)
            assert all(met[kind] for kind in kinds), (name, entry, met)
            fixed.update(met)
        thresholds = {"first": 2, "second": 2, "both": 2, "developed on reading the second": 2}
        thresholds.update({"pending R = v^j True": 10, "pending R = v^j False": 10})
        assert all(fixed[kind] >= least for kind, least in thresholds.items()), fixed
        assert seen["partial"] >= 20 and seen["recut"] >= 10, seen

    def test_sweeps_sharing_a_memo_match_sweep_by_blocks(self, census, shipped):
        """Two or three sweeps on one memo, stepped in a drawn interleaving:
        on the shipped pair its two directions and one more drawn pair, on
        census complexes pairs of words of length <= 3.  Column by column,
        (j, R) equal the reference's, and at the end every yielded R still
        equals the reference's R of its column.  Every chunked R indexes the
        one memo, and some memo must be indexed by two sweeps."""
        complexes, growing = census
        p0 = shipped.complex
        shipped_v = _word_ids(p0, shipped.vword.period)
        shipped_pairs = [(_word_ids(p0, w.period), shipped_v) for w in (shipped.hword, shipped.hword.inverse())]
        candidates = {}
        seen = Counter()

        def run(p, pairs, steps, memo):
            """Step the sweeps of pairs on memo in the order steps, checking
            each (j, R); returns the chunked R's as (sweep, R, reference R)."""
            sweeps = [orbit_lengths(memo, h, v) for h, v in pairs]
            references = [orbit_lengths_by_blocks(p.tables, h, v) for h, v in pairs]
            log, cols = [], [0] * len(pairs)
            for i in steps:
                if cols[i] == self.MAX_COLS:
                    continue
                ref_j, ref_right = next(references[i])
                with deadline(5):
                    j, right = next(sweeps[i])
                assert (j, list(right)) == (ref_j, ref_right)
                cols[i] = self.MAX_COLS if len(ref_right) > self.MAX_LETTERS else cols[i] + 1
                if len(ref_right) > CHUNK:
                    assert right._memo is memo
                    log.append((i, right, ref_right))
            return log

        @given(st.data())
        @settings(max_examples=80)
        def check(data):
            source = data.draw(st.sampled_from(["shipped", "growing", "census"]), label="source")
            p = p0
            if source != "shipped":
                p = data.draw(st.sampled_from(growing if source == "growing" else complexes), label="complex")
            if id(p) not in candidates:
                candidates[id(p)] = [
                    [list(w) for w, _ in _candidates(len(p.germs[k]), 3)] for k in (cw.HORIZONTAL, cw.VERTICAL)
                ]
            hwords, vwords = candidates[id(p)]
            drawn = st.tuples(st.sampled_from(hwords), st.sampled_from(vwords))
            if source == "shipped":
                pairs = shipped_pairs + [data.draw(drawn, label="third pair")]
            else:
                pairs = data.draw(st.lists(drawn, min_size=2, max_size=3), label="pairs")
            order = data.draw(st.randoms(use_true_random=False), label="interleaving")
            steps = [order.randrange(len(pairs)) for _ in range(len(pairs) * self.MAX_COLS)]
            log = run(p, pairs, steps, develop._Memo(p.tables))
            for _, right, ref_right in log:
                assert list(right) == ref_right
            seen["shared"] += len({i for i, _, _ in log}) > 1

        check()
        assert seen["shared"] >= 20, seen

    def test_long_side_words_and_shared_columns(self, census, rng):
        """Side words of 1 to 20 letters, many longer than one chunk, under
        horizontal words of 1 to 3 letters on census complexes: over up to
        12 columns, (j, R) equal the reference's while one memo per complex
        is shared by all its sweeps, and no key of its dict of base-case
        columns holds more than CHUNK ids."""
        complexes, growing = census
        long_sides = stored = 0
        for p in rng.sample(complexes, 40) + growing[:10]:
            memo = develop._Memo(p.tables)
            for _ in range(5):
                h_ids = _word_ids(p, random_reduced_word(p, cw.HORIZONTAL, rng.randint(1, 3), rng))
                v_ids = _word_ids(p, random_reduced_word(p, cw.VERTICAL, rng.randint(1, 20), rng))
                long_sides += len(v_ids) > CHUNK
                sweep = orbit_lengths(memo, h_ids, v_ids)
                for ref_j, ref_right in itertools.islice(orbit_lengths_by_blocks(p.tables, h_ids, v_ids), 12):
                    with deadline(5):
                        j, right = next(sweep)
                    assert (j, list(right)) == (ref_j, ref_right)
                    if len(ref_right) > self.MAX_LETTERS:
                        break
            assert all(len(side) <= CHUNK for _, side in memo.columns)
            stored += len(memo.columns)
        assert long_sides >= 50 and stored >= 100


class TestCells:
    def test_grid_shares_interior_edges(self, shipped):
        p = shipped.complex
        r = cw.fill_rectangle(p, shipped.hword.power(3), shipped.vword.power(4), keep_cells=True)
        rows, cols = r.height, r.width
        assert len(r.cells) == rows and all(len(row) == cols for row in r.cells)
        for j in range(rows):
            for i in range(cols):
                cell = r.cells[j][i]
                if j + 1 < rows:
                    assert r.cells[j + 1][i].bottom == cell.top
                if i + 1 < cols:
                    assert r.cells[j][i + 1].left == cell.right
        # boundary words match the grid
        assert tuple(c.bottom for c in r.cells[0]) == r.bottom.letters
        assert tuple(c.top for c in r.cells[-1]) == r.top.letters
        assert tuple(row[0].left for row in r.cells) == r.left.letters
        assert tuple(row[-1].right for row in r.cells) == r.right.letters

    def test_cells_match_fast_path(self, shipped):
        p = shipped.complex
        fast = cw.fill_rectangle(p, shipped.hword.power(2), shipped.vword.power(3))
        slow = cw.fill_rectangle(p, shipped.hword.power(2), shipped.vword.power(3), keep_cells=True)
        assert fast.top == slow.top and fast.right == slow.right


class TestMultiVertex:
    def test_develop_traces_vertices(self, two_vertex):
        p = two_vertex
        r = cw.fill_rectangle(p, w(p, "a b"), w(p, "x"))
        assert str(r.top) == "ab" and str(r.right) == "x"

    def test_incompatible_path_raises(self, two_vertex):
        p = two_vertex
        with pytest.raises(DevelopmentError):
            cw.fill_rectangle(p, w(p, "a a"), w(p, "x"))  # a ends at Q, a starts at P

    def test_stream_raises_at_missing_corner(self, two_vertex):
        p = two_vertex
        period = [p.germ_id(e) for e in w(p, "a").letters]
        side = [p.germ_id(e) for e in w(p, "x").letters]
        # Column 0 turns x into y at Q; column 1 starts a at P against y at Q.
        assert stream_mismatch_ids(p.tables, period, side, 1) == -1
        # the kernel turned its copy of the side into y; the caller's x stays
        assert side == [p.germ_id(e) for e in w(p, "x").letters]
        with pytest.raises(DevelopmentError, match="missing corner"):
            stream_mismatch_ids(p.tables, period, side, 2)


@st.composite
def torus_words(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    m = draw(st.integers(min_value=0, max_value=12))
    return n, m


class TestHypothesis:
    @given(torus_words())
    @settings(max_examples=60, deadline=None)
    def test_torus_every_development_is_identity(self, nm):
        torus = cw.parse_complex("hedges: a\nvedges: x\nsquare: a x a x\n")
        n, m = nm
        bottom = cw.Word((cw.OrientedEdge(torus.hedges[0], 1),) * n, cw.HORIZONTAL)
        left = cw.Word((cw.OrientedEdge(torus.vedges[0], 1),) * m, cw.VERTICAL)
        r = cw.fill_rectangle(torus, bottom, left)
        assert r.top == bottom and r.right == left

    @given(st.integers(0, 20), st.integers(0, 20), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_row_column_agreement_shipped(self, blen, llen, hyp_rng):
        from importlib.resources import files

        p = cw.parse_complex(files("cscwalls.data").joinpath("aperiodic22.sqc").read_text())
        bottom = random_reduced_word(p, cw.HORIZONTAL, blen, hyp_rng)
        left = random_reduced_word(p, cw.VERTICAL, llen, hyp_rng)
        r = cw.fill_rectangle(p, bottom, left)
        top, right = develop_row_major(p, bottom, left)
        assert r.top.letters == tuple(top) and r.right.letters == tuple(right)


def test_backend_reported():
    assert BACKEND == "python"


def test_import_and_tables_load_only_the_standard_library():
    """The package has no runtime dependencies: importing it and building the
    shipped complex's corner tables in a fresh interpreter loads nothing
    outside the standard library."""
    src = Path(cw.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cscwalls\n"
        "from importlib.resources import files\n"
        "text = files('cscwalls.data').joinpath('aperiodic22.sqc').read_text()\n"
        "cscwalls.parse_complex(text).tables\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'cscwalls'}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
