"""tests/checker.py on antitorus artifacts: the golden row's null verdict,
the torus's commuting (1, 1), and artifacts altered to claim what the
complex refutes."""

import json
from importlib.resources import files

import pytest

from cscwalls.cli import main

from .checker import antitorus_problems, main as check
from .test_golden import INPUTS, ROWS

TORUS_ROW = ("antitorus", "--complex", "torus.sqc", "--w1", "a", "--w2", "x", "--out", "out.json")


def _antitorus(argv, directory, monkeypatch):
    """Run an antitorus command in directory, beside copies of the packaged
    complexes; the paths of its artifact, manifest and complex."""
    directory.mkdir(exist_ok=True)
    for name in INPUTS:
        directory.joinpath(name).write_bytes(files("cscwalls.data").joinpath(name).read_bytes())
    monkeypatch.chdir(directory)
    assert main(list(argv)) == 0
    return "out.json", "out.json.manifest.json", argv[argv.index("--complex") + 1]


@pytest.mark.parametrize(
    "argv, commuting", [(ROWS["antitorus"][0], None), (TORUS_ROW, {"k": 1, "j": 1})], ids=["golden-null", "torus"]
)
def test_antitorus_artifact_passes_the_checker(argv, commuting, tmp_path, monkeypatch, capsys):
    paths = _antitorus(argv, tmp_path, monkeypatch)
    assert check(list(paths)) == 0, capsys.readouterr().out
    assert json.loads(tmp_path.joinpath(paths[0]).read_text())["commuting"] == commuting


def _altered(paths, directory, **fields):
    artifact, manifest = (json.loads(directory.joinpath(path).read_text()) for path in paths[:2])
    return antitorus_problems({**artifact, **fields}, manifest, directory.joinpath(paths[2]).read_bytes())


def test_checker_refuses_wrong_verdicts(tmp_path, monkeypatch):
    """A null on the torus, a commuting pair on the shipped complex, a pair
    that is not the least, and a candidate flag that contradicts the pair
    are each named."""
    torus = _antitorus(TORUS_ROW, tmp_path / "torus", monkeypatch)
    shipped = _antitorus(ROWS["antitorus"][0], tmp_path / "shipped", monkeypatch)
    assert _altered(torus, tmp_path / "torus", commuting=None, anti_torus_candidate=True) == [
        "commuting is null, but the 1 x 1 rectangle closes up"
    ]
    assert _altered(torus, tmp_path / "torus", commuting={"k": 2, "j": 1}) == [
        "commuting (2, 1) is not the least closing pair; the search finds (1, 1)"
    ]
    assert _altered(torus, tmp_path / "torus", anti_torus_candidate=True) == [
        "anti_torus_candidate True with commuting {'j': 1, 'k': 1}"
    ]
    found = _altered(shipped, tmp_path / "shipped", commuting={"k": 1, "j": 1}, anti_torus_candidate=False)
    assert found[0] == "the 1 x 1 rectangle does not close up into a torus"
