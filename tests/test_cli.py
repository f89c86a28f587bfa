"""End-to-end CLI runs: artifacts, manifests, exit codes, formats."""

import json
from importlib.resources import files

import pytest

from cscwalls.cli import main
from cscwalls.obstruction import obstruction_table


@pytest.fixture(scope="session")
def torus_path():
    return str(files("cscwalls.data").joinpath("torus.sqc"))


@pytest.fixture(scope="session")
def aperiodic_path():
    return str(files("cscwalls.data").joinpath("aperiodic22.sqc"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_torus(self, capsys, torus_path):
        code, out, _ = run(capsys, "validate", "--complex", torus_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["is_csc"] is True and payload["corner_count"] == 4

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "--complex", "no-such-file.sqc")
        assert code == 1 and "error" in err


class TestDevelop:
    def test_basic(self, capsys, aperiodic_path):
        code, out, _ = run(capsys, "develop", "--complex", aperiodic_path, "--bottom", "a", "--left", "x")
        assert code == 0
        payload = json.loads(out)
        assert payload["width"] == 1 and payload["height"] == 1
        assert len(payload["top"]) >= 1

    def test_dump_cells(self, capsys, aperiodic_path):
        code, out, _ = run(
            capsys, "develop", "--complex", aperiodic_path, "--bottom", "ab", "--left", "xy", "--dump-cells"
        )
        payload = json.loads(out)
        assert len(payload["cells"]) == 2 and len(payload["cells"][0]) == 2
        assert {"square", "corner", "bottom", "right", "top", "left"} <= set(payload["cells"][0][0])


class TestAntitorusGamma:
    def test_antitorus_torus(self, capsys, torus_path):
        code, out, _ = run(capsys, "antitorus", "--complex", torus_path, "--w1", "a", "--w2", "x", "--bounds", "4,4")
        payload = json.loads(out)
        assert code == 0 and payload["commuting"] == {"k": 1, "j": 1}
        assert payload["anti_torus_candidate"] is False

    def test_antitorus_candidate(self, capsys, aperiodic_path):
        code, out, _ = run(capsys, "antitorus", "--complex", aperiodic_path, "--w1", "a", "--w2", "x")
        payload = json.loads(out)
        assert code == 0 and payload["commuting"] is None and payload["anti_torus_candidate"]

    def test_gamma(self, capsys, aperiodic_path):
        code, out, _ = run(capsys, "gamma", "--complex", aperiodic_path, "--w1", "a", "--w2", "x", "--n", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["total_len"] >= 2 and payload["total_len"] == payload["left_len"] + payload["right_len"]

    def test_gamma_budget_exit_code(self, capsys, torus_path):
        code, _, err = run(
            capsys, "gamma", "--complex", torus_path, "--w1", "a", "--w2", "x", "--n", "1", "--kmax", "20"
        )
        assert code == 2 and "budget exceeded" in err


class TestObstruct:
    def test_matches_module_results(self, capsys, aperiodic_path, shipped, tmp_path):
        out_path = tmp_path / "table.json"
        code, _, _ = run(
            capsys,
            "obstruct", "--complex", aperiodic_path, "--w1", "a", "--w2", "x",
            "--nmax", "6", "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        table = obstruction_table(shipped, 6)
        assert [r["diam"] for r in payload["rows"]] == [r.diam for r in table.rows]
        assert payload["max_diam"] == table.max_diam()

    def test_csv(self, capsys, aperiodic_path):
        code, out, _ = run(
            capsys, "obstruct", "--complex", aperiodic_path, "--w1", "a", "--w2", "x",
            "--nmax", "3", "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert code == 0 and lines[0].startswith("# manifest: ")
        assert lines[1] == "n,diam,L" and len(lines) == 5

    def test_torus_is_input_error(self, capsys, torus_path):
        code, _, err = run(capsys, "obstruct", "--complex", torus_path, "--w1", "a", "--w2", "x", "--nmax", "2")
        assert code == 1 and "commute" in err


class TestWellsep:
    def test_basic(self, capsys, aperiodic_path):
        code, out, _ = run(capsys, "wellsep", "--complex", aperiodic_path, "--w1", "a", "--w2", "x", "--n", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["crossing_set_size"] == payload["L"] and payload["facing_triple_free"]


class TestStaircase:
    def test_window_summary(self, capsys):
        code, out, _ = run(capsys, "staircase", "--L", "4", "--r", "2", "--steps", "3")
        payload = json.loads(out)
        assert code == 0 and payload["crossing_bound"] == 3
        assert payload["window"]["squares"] == len_of_window(4, 2, 3, 1)

    def test_certificate(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        dot_path = tmp_path / "contact.dot"
        code, _, _ = run(
            capsys,
            "staircase", "--L", "4", "--r", "2", "--steps", "9", "--p", "9",
            "--out", str(out_path), "--dot", str(dot_path),
        )
        assert code == 0
        cert = json.loads(out_path.read_text())
        assert cert["crossing_bound"] == 3 and cert["bfs_distance"] >= 3
        dot = dot_path.read_text()
        assert "graph contact {" in dot
        manifest = json.loads((tmp_path / "cert.json.manifest.json").read_text())
        assert dot.splitlines()[0] == f"// manifest: {manifest['digest']}"
        assert cert["manifest_digest"] == manifest["digest"]

    def test_rejected_p_writes_nothing(self, capsys, tmp_path):
        """A p above steps is an input error and leaves neither DOT, artifact nor manifest."""
        code, out, err = run(
            capsys,
            "staircase", "--L", "4", "--r", "2", "--steps", "9", "--p", "12",
            "--dot", str(tmp_path / "x.dot"), "--out", str(tmp_path / "x.json"),
        )
        assert code == 1 and out == ""
        assert err == "error: p must be in 1..steps, got 12\n"
        assert list(tmp_path.iterdir()) == []

    def test_certify_requires_p(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["certify", "--L", "4", "--r", "2", "--steps", "9"])

    def test_certify(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "certify", "--L", "6", "--r", "2", "--steps", "12", "--p", "12", "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["crossing_bound"] == 4

    def test_invalid_params_exit_one(self, capsys):
        code, _, err = run(capsys, "staircase", "--L", "2", "--r", "3", "--steps", "1")
        assert code == 1 and "staircase" in err


def len_of_window(L, r, steps, margin):
    width = L + 2 * margin
    strip_squares = 2 * width + (steps - 1) * (width + r)
    return strip_squares + steps * 3 * width


class TestEnumerate:
    def test_counts_and_screen(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--hcount", "1", "--vcount", "1", "--screen", "--screen-len", "1"
        )
        payload = json.loads(out)
        assert code == 0 and payload["count"] == 3
        assert all("anti_torus_candidates" in e for e in payload["presentations"])
        # every 1+1 complex is flat: no candidates anywhere
        assert all(e["anti_torus_candidates"] == [] for e in payload["presentations"])

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--hcount", "1", "--vcount", "1", "--format", "text")
        assert code == 0 and out.count("# census entry") == 3

    def test_budget_exit(self, capsys):
        code, _, err = run(capsys, "enumerate", "--hcount", "4", "--vcount", "1")
        assert code == 2 and "budget" in err


BAD_NUMBERS = (
    ("antitorus", "--bounds", "x"),
    ("antitorus", "--bounds", "3,x"),
    ("antitorus", "--bounds", "0"),
    ("antitorus", "--bounds", "0,0"),
    ("antitorus", "--bounds", "3,0"),
    ("antitorus", "--bounds", "8,"),
    ("obstruct", "--bounds", "0"),
    ("obstruct", "--bounds", "3,"),
    ("obstruct", "--nmax", "0"),
    ("gamma", "--n", "0"),
    ("gamma", "--n", "-3"),
    ("wellsep", "--n", "0"),
    ("gamma", "--kmax", "0"),
    ("gamma", "--kmax", "-1"),
    ("gamma", "--imax", "-1"),
    ("obstruct", "--kmax", "0"),
    ("obstruct", "--kmax", "-1"),
    ("obstruct", "--imax", "-1"),
    ("wellsep", "--kmax", "0"),
    ("wellsep", "--kmax", "-1"),
    ("wellsep", "--imax", "-1"),
    ("enumerate", "--hcount", "-1"),
    ("enumerate", "--vcount", "-1"),
    ("enumerate", "--screen-len", "0"),
    ("enumerate", "--screen-limit", "0"),
)


@pytest.mark.parametrize("case", BAD_NUMBERS, ids=" ".join)
def test_bad_numeric_input_is_an_input_error(capsys, aperiodic_path, tmp_path, case):
    """Exit 1 with one error line, and neither artifact nor manifest."""
    command, flag, value = case
    argv = {
        "antitorus": ["--complex", aperiodic_path, "--w1", "a", "--w2", "x"],
        "obstruct": ["--complex", aperiodic_path, "--w1", "a", "--w2", "x", "--nmax", "3"],
        "gamma": ["--complex", aperiodic_path, "--w1", "a", "--w2", "x", "--n", "2"],
        "wellsep": ["--complex", aperiodic_path, "--w1", "a", "--w2", "x", "--n", "2"],
        "enumerate": ["--hcount", "1", "--vcount", "1", "--screen"],
    }[command]
    out_path = tmp_path / "artifact.json"
    code, out, err = run(capsys, command, *argv, flag, value, "--out", str(out_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err
    assert list(tmp_path.iterdir()) == []


class TestManifest:
    def test_embedded_digest_and_reproducibility(self, capsys, aperiodic_path, tmp_path):
        out1 = tmp_path / "g1.json"
        out2 = tmp_path / "g2.json"
        argv = ["gamma", "--complex", aperiodic_path, "--w1", "a", "--w2", "x", "--n", "3"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_text() == out2.read_text()  # byte-identical rerun

        manifest = json.loads((tmp_path / "g1.json.manifest.json").read_text())
        payload = json.loads(out1.read_text())
        assert payload["manifest_digest"] == manifest["digest"]
        assert manifest["subcommand"] == "gamma"
        assert str(out1) in manifest["outputs"]
        import hashlib

        assert manifest["outputs"][str(out1)] == hashlib.sha256(out1.read_bytes()).hexdigest()
        assert set(manifest["inputs"]) == {"complex"}

    def test_explicit_manifest_path(self, capsys, torus_path, tmp_path):
        mpath = tmp_path / "m.json"
        code, out, _ = run(
            capsys, "validate", "--complex", torus_path, "--manifest", str(mpath)
        )
        assert code == 0
        manifest = json.loads(mpath.read_text())
        assert manifest["digest"] == json.loads(out)["manifest_digest"]


#: The overlap workload's jobs in perfbench/run.py at the ends of its input
#: ranges; tier-1 does not collect perfbench, so its invariants are kept here.
BENCHMARK_OVERLAP_JOBS = (
    ("obstruct", "--nmax", "32"),
    ("gamma", "--n", "244"),
    ("gamma", "--n", "729"),
    ("wellsep", "--n", "82"),
    ("wellsep", "--n", "243"),
)


@pytest.mark.parametrize("job", BENCHMARK_OVERLAP_JOBS, ids=" ".join)
def test_benchmark_overlap_job(capsys, aperiodic_path, job):
    command, flag, value = job
    code, out, err = run(capsys, command, "--complex", aperiodic_path, "--w1", "a", "--w2", "x", flag, value)
    assert code == 0, err
    a = json.loads(out)
    if command == "obstruct":
        assert len(a["rows"]) == 32 and a["failures"] == []
    elif command == "gamma":
        assert (a["j"], a["total_len"]) == (2916, 1458) and a["right_len"] >= int(value)
    else:
        assert a["L"] == 486 and a["facing_triple_free"] is True
