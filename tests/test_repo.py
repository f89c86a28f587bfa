"""Repository hygiene: generated files stay out of version control, the
names the benchmark looks up stay in the package, the package imports no
name it does not use and defines no private helper or method it does not
call, every source file parses on the oldest declared Python, every row of
the mutation table names a text of the source, and a failing test does not
stop the run."""

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
from cscwalls import antitorus
from cscwalls.staircase import StairParams, build_staircase, contact_graph, walls

from .mutants import MUTANTS
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


def _spans():
    """perfbench/spans.py, loaded from its file without changing it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_staircase_work_counts():
    """perfbench reads the staircase work counts off what build_staircase,
    walls and contact_graph return (INFO in perfbench/spans.py).  Those
    results build their squares and wall-id maps on first use, and tier-1
    does not run the benchmark, so a change there that broke a count would
    otherwise go unseen."""
    spans = _spans()
    params = StairParams(4, 2, 3)
    window = build_staircase(params)
    graph = contact_graph(window)
    oracle = contact_graph_by_tuples(window)
    assert spans.INFO["staircase.build_staircase"](window, params) == params.counts()["squares"] == 82
    assert spans.INFO["staircase.walls"](walls(window), window) == len(oracle.walls)
    contact_edges = sum(map(len, oracle.neighbors.values())) // 2
    assert spans.INFO["staircase.contact_graph"](graph, window) == contact_edges > 0


def test_benchmark_overlap_metrics_are_live(shipped):
    """perfbench reads the pigeonhole and stream metrics off the spans of
    find_periodic_top and overlap_at_height, so overlap_gamma must reach the
    overlap through both: a refactor that bypassed them would make these
    metrics read 0 with no test failing.  On the shipped pair j(5) = 36."""
    spans = _spans()
    q = antitorus.AntiTorusQuery(shipped.complex, shipped.hword, shipped.vword)
    with spans.Tracer().installed() as tracer:
        gamma = antitorus.overlap_gamma(q, 5)
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["antitorus.pigeonhole_steps"] == gamma.j == 36
    assert metrics["antitorus.stream_s"] > 0


def test_import_loads_no_fractions_or_decimal():
    """Fraction is imported where a certificate is built, so importing the
    package, which the benchmark's setup_s times, loads neither module."""
    src = Path(cscwalls.__file__).resolve().parent.parent
    code = "import sys\nimport cscwalls\nprint(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


#: Run under ``python -S`` with the source directory as argv[1]: one small job
#: per subcommand through the CLI, then the heavy start-up modules loaded.
COLD_START_SCRIPT = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from cscwalls.cli import main

data = sys.argv[1] + "/cscwalls/data/"
pair = ["--complex", data + "aperiodic22.sqc", "--w1", "a", "--w2", "x"]
jobs = [
    ["validate", "--complex", data + "torus.sqc"],
    ["enumerate", "--hcount", "1", "--vcount", "2", "--screen"],
    ["develop", "--complex", data + "torus.sqc", "--bottom", "a", "--left", "x", "--dump-cells"],
    ["antitorus", *pair],
    ["gamma", *pair, "--n", "2"],
    ["obstruct", *pair, "--nmax", "2"],
    ["wellsep", *pair, "--n", "2"],
    ["staircase", "--L", "3", "--r", "2", "--steps", "2"],
    ["certify", "--L", "3", "--r", "2", "--steps", "2", "--p", "2"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(job) for job in jobs]
print(json.dumps([codes, sorted({"dataclasses", "inspect", "typing"} & set(sys.modules))]))
"""


def test_cold_start_loads_no_dataclasses_inspect_or_typing():
    """Every subcommand runs without ``dataclasses``, ``inspect`` or ``typing``,
    whose import and per-class code generation cost a fresh process more
    than the package's own modules; ``-S`` keeps site hooks from loading
    them first."""
    src = Path(cscwalls.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-S", "-c", COLD_START_SCRIPT, str(src)], capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == [[0] * 9, []]


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


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _reads(nodes):
    """The names that nodes read, as a name, an attribute or an imported name."""
    read = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                read.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                read.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                read.update(alias.name for alias in sub.names)
    return read


#: The namedtuple methods that a subclass may override; the base class calls them.
NAMEDTUPLE_API = {"_make", "_replace", "_asdict"}


def _on_namedtuple(node):
    """Whether class node has a ``namedtuple(...)`` call among its bases."""
    return any(
        isinstance(base, ast.Call) and getattr(base.func, "id", getattr(base.func, "attr", None)) == "namedtuple"
        for base in node.bases
    )


def _unused_helpers(sources):
    """The module-level private functions and classes, and the private methods
    of module-level classes, of sources that no other top-level statement or
    method of any of them reads, as a name, an attribute or an imported name;
    dunders do not count, and neither does a namedtuple method overridden in
    a class built on a ``namedtuple(...)`` base.  A class's private methods
    are statements of their own, so one that only calls itself is unused too;
    methods are reported as Class._method."""
    statements = []  # (private name the statement defines or None, names it reads)
    for source in sources:
        for node in ast.parse(source).body:
            name = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else ""
            rest = [node]
            if isinstance(node, ast.ClassDef):
                api = NAMEDTUPLE_API if _on_namedtuple(node) else set()
                methods = [
                    m for m in node.body if isinstance(m, ast.FunctionDef) and _private(m.name) and m.name not in api
                ]
                statements.extend((f"{name}.{m.name}", _reads([m])) for m in methods)
                rest = [sub for sub in ast.iter_child_nodes(node) if sub not in methods]
            statements.append((name if _private(name) else None, _reads(rest)))
    return sorted(
        name
        for i, (name, _) in enumerate(statements)
        if name
        and not any(name.rpartition(".")[2] in read for j, (_, read) in enumerate(statements) if j != i)
    )


def test_unused_helper_check_catches_one():
    kept = "def _used():\n    pass\n\n\ndef __getattr__(name):\n    return _used\n"
    other = "from .kept import _imported\n\n\nclass _Orphan:\n    pass\n\n\ndef _alone():\n    return _alone()\n"
    imported = "def _imported():\n    pass\n"
    methods = (
        "class Kept:\n"
        "    def __init__(self):\n        self._called()\n\n"
        "    def _called(self):\n        pass\n\n"
        "    def _dead(self):\n        return self._dead()\n"
    )
    assert _unused_helpers([kept, other, imported, methods]) == ["Kept._dead", "_Orphan", "_alone"]
    record = (
        "from collections import namedtuple\n\n\n"
        "class Record(namedtuple('Record', 'a')):\n"
        "    @classmethod\n    def _make(cls, iterable):\n        return cls(*iterable)\n\n"
        "    def _dead(self):\n        pass\n"
    )
    assert _unused_helpers([record]) == ["Record._dead"]
    assert _unused_helpers([record.replace("namedtuple('Record', 'a')", "tuple")]) == ["Record._dead", "Record._make"]


def test_package_private_helpers_are_used_in_the_package():
    """A private helper that only tests call is dead code in the package."""
    sources = [path.read_text() for path in sorted((ROOT / "src" / "cscwalls").glob("*.py"))]
    assert _unused_helpers(sources) == []


#: The oldest Python that pyproject.toml declares.
OLDEST_PYTHON = (3, 10)


def test_oldest_python_is_declared():
    text = (ROOT / "pyproject.toml").read_text()
    assert f'requires-python = ">={OLDEST_PYTHON[0]}.{OLDEST_PYTHON[1]}"' in text


def test_oldest_python_parse_check_catches_one():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST_PYTHON)


@pytest.mark.parametrize(
    "path", sorted(str(p.relative_to(ROOT)) for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
)
def test_source_parses_on_oldest_python(path):
    """Every source and test file uses only syntax that the oldest declared
    Python accepts."""
    ast.parse((ROOT / path).read_text(), filename=path, feature_version=OLDEST_PYTHON)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_text_occurs_once(mutant):
    """Each row of the mutation table (tests/mutants.py) names a text that
    occurs exactly once in its file, so the row still mutates what it says;
    whether the row's tests kill it is for the table's own runner."""
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1


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
