"""Repository hygiene: generated files stay out of version control, the
names the benchmark looks up stay in the package, the package imports no
name it does not use, and a failing test does not stop the run."""

import ast
import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cscwalls
from cscwalls.staircase import StairParams, build_staircase, contact_graph, walls

from .oracles import contact_graph_by_tuples

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def _toplevel():
    if shutil.which("git") is None:
        return None
    out = _git("rev-parse", "--show-toplevel")
    return Path(out.stdout.strip()).resolve() if out.returncode == 0 else None


def test_no_tracked_file_is_gitignored():
    if _toplevel() != ROOT:
        pytest.skip("not a git checkout of this repository")
    ignored = _git("ls-files", "-ci", "--exclude-standard")
    assert ignored.returncode == 0, ignored.stderr
    assert ignored.stdout.splitlines() == []


def _traced():
    """``TRACED`` from perfbench/spans.py, read without importing the file."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED")


def test_benchmark_entry_points_exist():
    """perfbench wraps every TRACED name with getattr and prints BACKEND, and
    tier-1 does not collect perfbench, so a rename would break only the
    benchmark."""
    traced = _traced()
    assert traced
    for module, names in traced.items():
        mod = importlib.import_module(f"cscwalls.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"cscwalls.{module}.{name}"
    assert isinstance(cscwalls.BACKEND, str)


def test_benchmark_staircase_work_counts():
    """perfbench reads the staircase work counts off what build_staircase,
    walls and contact_graph return (INFO in perfbench/spans.py).  Those
    results build their squares and wall-id maps on first use, and tier-1
    does not run the benchmark, so a change there that broke a count would
    otherwise go unseen."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    params = StairParams(4, 2, 3)
    window = build_staircase(params)
    graph = contact_graph(window)
    oracle = contact_graph_by_tuples(window)
    assert spans.INFO["staircase.build_staircase"](window, params) == window.counts()["squares"] == 82
    assert spans.INFO["staircase.walls"](walls(window), window) == len(oracle.walls)
    contact_edges = sum(map(len, oracle.neighbors.values())) // 2
    assert spans.INFO["staircase.contact_graph"](graph, window) == contact_edges > 0


def test_import_loads_no_fractions_or_decimal():
    """Fraction is imported where a certificate is built, so importing the
    package, which the benchmark's setup_s times, loads neither module."""
    src = Path(cscwalls.__file__).resolve().parent.parent
    code = "import sys\nimport cscwalls\nprint(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


#: Run in a fresh interpreter: which package modules ``import cscwalls`` and a
#: first public call load, and what each lazily resolved name is.
FOOTPRINT_SCRIPT = """\
import importlib, json, sys
from pathlib import Path

def loaded():
    return sorted(m for m in sys.modules if m.startswith("cscwalls."))

import cscwalls
on_import = loaded()
listed = set(cscwalls.__all__) <= set(dir(cscwalls))
cscwalls.load_complex(str(Path(cscwalls.__file__).parent / "data" / "torus.sqc"))
on_load = loaded()
star = {}
exec("from cscwalls import *", star)
mismatched = []
for name in cscwalls.__all__:
    module = importlib.import_module("cscwalls." + cscwalls._SOURCE[name])
    expected = module if name == "errors" else getattr(module, name)
    if star[name] is not expected or getattr(cscwalls, name) is not expected:
        mismatched.append(name)
print(json.dumps([on_import, listed, on_load, mismatched]))
"""


def test_import_loads_submodules_on_first_use():
    """``import cscwalls`` loads no submodule, ``load_complex`` loads only its
    own module and ``errors``, and every public name resolves, through
    ``from cscwalls import *`` and attribute access, to its submodule's
    object."""
    src = Path(cscwalls.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT], cwd=src, capture_output=True, text=True, check=True
    )
    on_import, listed, on_load, mismatched = json.loads(out.stdout)
    assert on_import == []
    assert listed
    assert on_load == ["cscwalls.complexes", "cscwalls.errors"]
    assert mismatched == []


def test_public_names_resolve():
    names = cscwalls.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(cscwalls, name), name


def test_setup_probe_prints_one_float():
    """perfbench/setup_probe.py also builds the mirrored complexes' corner
    tables, which no code in the package reads; tier-1 does not collect
    perfbench, so dropping a name the probe uses would otherwise break only
    the benchmark's setup_s."""
    out = subprocess.run(
        [sys.executable, "perfbench/setup_probe.py", "src"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 1
    float(lines[0])


def _unused_imports(source):
    """Names that source imports, at any depth, and never reads as a name;
    ``__future__`` imports and the names in ``__all__`` do not count."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
        for elt in getattr(node.value, "elts", ())
    }
    return sorted(imported - read - exported)


def test_unused_import_check_catches_one():
    source = "from collections import Counter, defaultdict\nimport os.path\n\n\ndef f():\n    return defaultdict()\n"
    assert _unused_imports(source) == ["Counter", "os"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in (ROOT / "src" / "cscwalls").glob("*.py"))
)
def test_package_module_imports_only_what_it_uses(module):
    assert _unused_imports((ROOT / "src" / "cscwalls" / module).read_text()) == []


#: A failing Hypothesis test followed by a passing one.
TWO_TESTS = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    """Under this repository's warning filters, the module Hypothesis loads to
    report a failing example must not turn a warning into an internal error
    that ends the run before the next test."""
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    out = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
