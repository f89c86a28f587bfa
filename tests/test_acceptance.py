"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import random
from contextlib import contextmanager

import pytest

import cscwalls as cw
from cscwalls.antitorus import commuting_powers_search, find_periodic_top, overlap_gamma
from cscwalls.errors import BudgetExceeded, CommutingPowersFound
from cscwalls.obstruction import obstruction_table, well_separation
from cscwalls.staircase import StairParams, build_staircase, contact_graph, nonacyl_certificate

from .conftest import random_reduced_word
from .oracles import develop_row_major, periodic_agreement


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def _check_laws(p, bottom, left, rng):
    whole = cw.fill_rectangle(p, bottom, left)
    assert len(whole.top) == len(bottom) and len(whole.right) == len(left)
    if len(bottom) >= 1:
        cut = rng.randint(1, len(bottom))
        prefix = cw.Word(bottom.letters[:cut], cw.HORIZONTAL)
        assert cw.fill_rectangle(p, prefix, left).top.letters == whole.top.letters[:cut]
    if len(bottom) >= 2:
        cut = rng.randint(1, len(bottom) - 1)
        u1 = cw.Word(bottom.letters[:cut], cw.HORIZONTAL)
        u2 = cw.Word(bottom.letters[cut:], cw.HORIZONTAL)
        first = cw.fill_rectangle(p, u1, left)
        second = cw.fill_rectangle(p, u2, first.right)
        assert whole.top.letters == first.top.letters + second.top.letters
        assert whole.right == second.right
    if len(left) >= 2:
        cut = rng.randint(1, len(left) - 1)
        v1 = cw.Word(left.letters[:cut], cw.VERTICAL)
        v2 = cw.Word(left.letters[cut:], cw.VERTICAL)
        lower = cw.fill_rectangle(p, bottom, v1)
        upper = cw.fill_rectangle(p, lower.top, v2)
        assert whole.right.letters == lower.right.letters + upper.right.letters
        assert whole.top == upper.top


def test_criterion_1_development_laws(torus, census22):
    """Determinism, length preservation, prefix stability, compositionality on
    1000 random (bottom, left) pairs over the torus and 1000 over the census."""
    with criterion(1, "development determinism and compositionality"):
        rng = random.Random(101)
        for _ in range(1000):
            bottom = random_reduced_word(torus, cw.HORIZONTAL, rng.randint(0, 40), rng)
            left = random_reduced_word(torus, cw.VERTICAL, rng.randint(0, 40), rng)
            _check_laws(torus, bottom, left, rng)
        for trial in range(1000):
            p = census22[trial % len(census22)]
            bottom = random_reduced_word(p, cw.HORIZONTAL, rng.randint(0, 40), rng)
            left = random_reduced_word(p, cw.VERTICAL, rng.randint(0, 40), rng)
            _check_laws(p, bottom, left, rng)


def test_criterion_2_pigeonhole_overlaps(shipped):
    """For n = 1..8: the pigeonhole height reproduces the bottom and the
    overlap is finite, long enough, and contains the basepoint."""
    with criterion(2, "periodic-top pigeonhole and finite overlaps"):
        p = shipped.complex
        h = len(shipped.hword)
        for n in range(1, 9):
            j, _ = find_periodic_top(shipped, n)
            bottom = shipped.hword.power(n)
            assert cw.fill_rectangle(p, bottom, shipped.vword.power(j)).top == bottom
            g = overlap_gamma(shipped, n)
            assert g.j == j
            assert g.total_len >= n * h
            assert g.right_len >= n * h and g.left_len >= 0  # basepoint on the overlap


def test_criterion_3_obstruction_table(shipped):
    """Eight rows of unbounded-looking projection diameters, all through one
    vertex: no pair of uniform constants can hold simultaneously."""
    with criterion(3, "projection-diameter obstruction table"):
        h = len(shipped.hword)
        table = obstruction_table(shipped, 8)
        assert [r.n for r in table.rows] == list(range(1, 9))
        assert not table.failures
        for row in table.rows:
            assert row.diam >= row.n * h
            assert row.contains_basepoint
        # any candidate diameter threshold is exceeded by some row while every
        # row still contains the shared basepoint
        for xi in range(1, table.max_diam() + 1):
            assert any(r.diam >= xi for r in table.rows)
        assert all(r.contains_basepoint for r in table.rows)


def test_criterion_4_well_separation(shipped):
    """Per row: L is the overlap length, re-measured independently by
    row-major development one column past each end of the overlap, and the
    crossing set has one wall per overlap edge."""
    with criterion(4, "well-separation numbers"):
        p = shipped.complex
        for n in range(1, 9):
            r = well_separation(shipped, n)
            g = overlap_gamma(shipped, n)
            side = shipped.vword.power(g.j)
            east = periodic_agreement(p, shipped.hword.period, side, g.right_len + 1)
            west = periodic_agreement(
                p.mirrored, shipped.hword.inverse().period, side, g.left_len + 1
            )
            assert east == g.right_len and west == g.left_len
            assert east + west == r.L
            assert r.crossing_set_size == r.L
            assert r.facing_triple_free
            assert r.L <= 60


def test_criterion_5_staircase_certificates():
    """Certificates for (L, r) in {(4,2), (6,2), (10,3)} at steps = p = 3M."""
    with criterion(5, "staircase contact-graph certificates"):
        for L, r in ((4, 2), (6, 2), (10, 3)):
            m_expected = -(-L // r) + 1
            params = StairParams(L, r, steps=3 * m_expected, margin=1)
            assert params.crossing_bound == m_expected
            window = build_staircase(params)
            assert len(window.squares) <= 10**5
            graph = contact_graph(window)
            p = params.steps
            cert = nonacyl_certificate(params, p, graph=graph)
            assert cert.crossing_bound == m_expected
            for i, d in cert.family_distances:
                if i < m_expected:
                    assert d == 2
            assert all(c <= m_expected for c in cert.crossing_counts.values())
            assert cert.max_crossing == m_expected
            assert cert.crossing_counts[cert.witness_wall] == m_expected
            assert cert.bfs_distance >= p / m_expected


def test_criterion_6_torus_control(torus_query):
    """The detectors separate the periodic flat from aperiodic candidates."""
    with criterion(6, "torus control"):
        assert commuting_powers_search(torus_query, 8, 8) == (1, 1)
        with pytest.raises(BudgetExceeded) as info:
            overlap_gamma(torus_query, 1, k_max=100)
        assert "periodic flat" in str(info.value)
        rows_produced = None
        try:
            rows_produced = obstruction_table(torus_query, 3).rows
        except CommutingPowersFound:
            rows_produced = ()
        assert rows_produced == ()


def test_criterion_7_oracle_equivalence(census22):
    """Row-major reference development agrees with the column-major engine on
    10,000 random rectangles over census complexes."""
    with criterion(7, "row-major oracle equivalence"):
        rng = random.Random(707)
        for trial in range(10_000):
            p = census22[trial % len(census22)]
            bottom = random_reduced_word(p, cw.HORIZONTAL, rng.randint(0, 25), rng)
            left = random_reduced_word(p, cw.VERTICAL, rng.randint(0, 25), rng)
            rect = cw.fill_rectangle(p, bottom, left)
            top, right = develop_row_major(p, bottom, left)
            assert rect.top.letters == tuple(top)
            assert rect.right.letters == tuple(right)
