"""Mutations that the tests must kill: each row is a small fault, put into a
copy of the tree, and the tests that must fail once it is there.

A row is (name, file, old, new, tests): ``old`` is an exact text that occurs
once in ``file`` (relative to the repository root), ``new`` replaces it, and
every node id in ``tests`` must fail on the mutated copy.  Tier-1 checks only
that each ``old`` still occurs exactly once (tests/test_repo.py), so a change
that moves or rewrites the text must update its row.  Running this file
applies each row in turn to one copy of src/, tests/, pyproject.toml and
README.md in a temporary directory and runs the row's tests there in a
subprocess, under the Hypothesis profile ``mutants`` (tests/conftest.py),
which draws the same examples but does not shrink a failing one:

    python3 tests/mutants.py            # every row
    python3 tests/mutants.py NAME ...   # the named rows

Each row's test process runs for at most TIME_LIMIT_S seconds and within
MEMORY_LIMIT bytes of address space, so a mutant that makes a test loop or
grow instead of fail gives a verdict too: the row is reported as ``timeout``
or ``memory`` and counts as killed.

It prints one line per row and exits 1 if any row survives, that is if
some of its tests pass on the mutated copy.  A surviving row shows a check
that cannot fail; report it, do not delete the row.
"""

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name file old new tests")

#: Limits on each row's test process; a row that reaches one is killed.  A
#: row's tests take seconds and under 70 MB of address space when they end.
TIME_LIMIT_S = 120
MEMORY_LIMIT = 2**29

_STAIRCASE = "src/cscwalls/staircase.py"
_ORACLE = "tests/test_staircase.py::TestWalls::test_staircases_match_tuple_oracle"
_BANDS = "tests/test_staircase.py::TestBands::test_bands_agree_with_rows"
_DOT_ROW = "tests/test_golden.py::test_golden_row[certify-10-3-15-15-dot]"
_SUMMARY_ROW = "tests/test_golden.py::test_golden_row[staircase-4-2-9]"
_CLOSED_FORM = "tests/test_staircase.py::TestWindowValidation::test_staircases_validate_like_tuple_oracle"
_WIDE_COUNTS = "tests/test_staircase.py::TestWindowValidation::test_benchmark_scale_counts"
_DEVELOP = "src/cscwalls/develop.py"
_CHUNKED = "tests/test_develop.py::TestChunkedSweep::test_matches_sweep_by_blocks"

MUTANTS = [
    Mutant(
        "corner-rule-appends-a-crossing",
        _STAIRCASE,
        "if v != c and v not in near and v not in crossed:",
        "if v != c and v not in near:",
        [_DOT_ROW, "tests/test_staircase.py::TestWalls::test_unit_square_sets_match_tuple_oracle"],
    ),
    Mutant(
        "consecutive-pairs-dropped",
        _STAIRCASE,
        "consecutive.update(zip(own, islice(own, 1, None)))",
        "pass",
        [_ORACLE],
    ),
    Mutant(
        "transpose-loop-dropped",
        _STAIRCASE,
        "            for v in own:\n                across[v].extend(rows)\n",
        "",
        [_DOT_ROW, "tests/test_staircase.py::TestWindowValidation::test_run_rows_match_tuple_oracles"],
    ),
    Mutant(
        "band-bottom-row-only-transposed",
        _STAIRCASE,
        "across[v].extend(rows)",
        "across[v].extend(rows[:1])",
        [_BANDS],
    ),
    Mutant(
        "band-touching-pairs-dropped",
        _STAIRCASE,
        "        touching[0].extend(range(first, last))\n"
        "        touching[1].extend(range(first + 1, last + 1))\n",
        "",
        [_BANDS],
    ),
    Mutant(
        "run-end-key-without-tags",
        "tests/oracles.py",
        "ends[x + 1, y, se, ne] = run",
        "ends[x + 1, y] = run",
        [
            "tests/test_staircase.py::TestWalls::test_a_square_continues_the_run_ending_at_its_west_side",
            "tests/test_staircase.py::TestWalls::test_strip_of_squares[2]",
        ],
    ),
    Mutant(
        "crossings-left-as-labels",
        _STAIRCASE,
        "crossed[:] = map(number.__getitem__, crossed)",
        "pass",
        ["tests/test_staircase.py::TestWalls::test_consecutive_strip_walls_share_the_overlap_walls"],
    ),
    Mutant(
        "wall-count-off-by-one",
        "src/cscwalls/cli.py",
        '"walls": counts["edges"] - 2 * counts["squares"],',
        '"walls": counts["edges"] - 2 * counts["squares"] + 1,',
        [
            _SUMMARY_ROW,
            "tests/test_cli.py::TestStaircase::test_window_summary_builds_no_contact_graph",
        ],
    ),
    Mutant(
        "vertical-edges-one-short",
        _STAIRCASE,
        "(s - 1) * (w + r + 1)",
        "(s - 1) * (w + r)",
        [_SUMMARY_ROW, _CLOSED_FORM, _WIDE_COUNTS],
    ),
    Mutant(
        "inner-strip-vertices-one-short",
        _STAIRCASE,
        "(s - 1) * (w + 2 * r + 1)",
        "(s - 1) * (w + 2 * r)",
        [_SUMMARY_ROW, _CLOSED_FORM, _WIDE_COUNTS],
    ),
    Mutant(
        "bfs-misses-disconnection",
        _STAIRCASE,
        "if len(order) != len(dist):",
        "if False:",
        ["tests/test_staircase.py::TestContactGraph::test_disconnected_graph"],
    ),
    Mutant(
        "wall-numbers-inverted",
        _STAIRCASE,
        "number[i] = k",
        "number[k] = i",
        [_DOT_ROW, "tests/test_staircase.py::TestWalls::test_unit_square_sets_match_tuple_oracle"],
    ),
    Mutant(
        "dot-edge-line-dropped",
        _STAIRCASE,
        "chain(crossed, near) if j > k])",
        "chain(crossed, near) if j > k and k + j != 1])",
        ["tests/test_golden.py::test_certify_row_passes_the_checker[certify-3-2-420-420-margin-2]"],
    ),
    Mutant(
        "facing-triple-middle-out-of-order",
        "tests/test_staircase.py",
        "for a, b, c in combinations(ordered, 3):",
        "for a, c, b in combinations(ordered, 3):",
        ["tests/test_staircase.py::TestWalls::test_overlap_walls_have_no_facing_triple"],
    ),
    Mutant(
        "left-right-len-swapped",
        "src/cscwalls/antitorus.py",
        "left_len, right_len = overlap_at_height(query, j, k_max)",
        "right_len, left_len = overlap_at_height(query, j, k_max)",
        ["tests/test_golden.py::test_golden_row[gamma-a-xy-5]"],
    ),
    Mutant(
        "json-indent-1",
        "src/cscwalls/cli.py",
        "text = json.dumps(payload, sort_keys=True, indent=2)",
        "text = json.dumps(payload, sort_keys=True, indent=1)",
        ["tests/test_golden.py::test_golden_row[certify-3-2-420-420-margin-2]"],
    ),
    Mutant(
        "overlap-span-one-short",
        _STAIRCASE,
        "return a, a + params.overlap_len",
        "return a, a + params.overlap_len - 1",
        [_CLOSED_FORM, "tests/test_golden.py::test_certify_row_passes_the_checker[certify-10-3-15-15-dot]"],
    ),
    Mutant(
        "pair-code-letters-swapped",
        _DEVELOP,
        "start = (b1 + 1) * letters + period_ids[(col + 1) % plen]",
        "start = (period_ids[(col + 1) % plen] + 1) * letters + b1",
        [_CHUNKED],
    ),
    Mutant(
        "first-column-yielded-at-the-pair-return",
        _DEVELOP,
        "                yield j * s, _ChunkedWord(memo, right, b1, s)\n"
        "                size = len(chunks)\n"
        "            if code == start:\n"
        "                break\n",
        "                size = len(chunks)\n"
        "            if code == start:\n"
        "                break\n"
        "        if s1:\n"
        "            yield j * s1, _ChunkedWord(memo, right, b1, s1)\n",
        [_CHUNKED, "tests/test_antitorus.py::TestOverlapSweep::test_development_stops_at_the_height_cap"],
    ),
    Mutant(
        "column-key-without-letter",
        _DEVELOP,
        "key = b, tuple(word)",
        "key = tuple(word)",
        ["tests/test_golden.py::test_golden_row[gamma-5]", "tests/test_golden.py::test_golden_row[enumerate-2-2-screen]"],
    ),
    Mutant(
        "commuting-powers-always-null",
        "src/cscwalls/antitorus.py",
        "return (cols // len(h_ids), j)",
        "return None",
        ["tests/test_checker.py::test_antitorus_artifact_passes_the_checker[torus]"],
    ),
]


def _failed(output):
    """The node ids that pytest's -rf summary lists as failed."""
    return {line.split(" - ")[0] for line in re.findall(r"^FAILED (.+)$", output, re.M)}


def _limit_memory():
    """Cap the address space of the test process (run in the child only)."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run(mutants):
    """Apply each mutant to one copy of the tree and run its tests; return
    the rows that survive, as (mutant, node ids that did not fail)."""
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        for name in ("pyproject.toml", "README.md"):  # tests/test_cli.py reads README.md as it collects
            shutil.copy(ROOT / name, tree)
        # no bytecode: a mutant of the same size and second as the original
        # would otherwise run from a stale cached file
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        for m in mutants:
            path = tree / m.file
            original = path.read_text()
            if original.count(m.old) != 1:
                raise SystemExit(f"{m.name}: the old text occurs {original.count(m.old)} times in {m.file}")
            path.write_text(original.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                     "--hypothesis-profile=mutants", *m.tests],
                    cwd=tree, env=env, capture_output=True, text=True,
                    timeout=TIME_LIMIT_S, preexec_fn=_limit_memory,
                )
            except subprocess.TimeoutExpired:
                proc = None
            finally:
                path.write_text(original)
            if proc is None:
                status, alive = "timeout", []
            elif "MemoryError" in proc.stdout + proc.stderr:
                status, alive = "memory", []
            else:
                alive = [t for t in m.tests if t not in _failed(proc.stdout)]
                status = "survived" if alive else "killed"
            print(f"{status:8} {time.perf_counter() - start:5.1f} s  {m.name}", flush=True)
            if status in ("killed", "survived") and proc.returncode not in (0, 1):  # an error, not a verdict
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            if alive:
                survivors.append((m, alive))
    return survivors


def main(names):
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown rows: {sorted(unknown)}")
    survivors = run([m for m in MUTANTS if not names or m.name in names])
    for m, alive in survivors:
        print(f"{m.name}: passed on the mutated copy: {' '.join(alive)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
