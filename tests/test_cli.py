"""End-to-end CLI runs: artifacts, manifests, exit codes, formats."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

import cscwalls.staircase
from cscwalls.cli import build_parser, main
from cscwalls.obstruction import obstruction_table
from cscwalls.staircase import StairParams, build_staircase, walls

ROOT = Path(__file__).resolve().parent.parent


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

    @pytest.mark.parametrize(
        "data,line", [(b"\x7fELF\x02\x01\x01\x00\xff\xfe", 1), (b"# one\n# two\nh: a \xe9\n", 3)]
    )
    def test_binary_file_is_an_input_error(self, capsys, tmp_path, data, line):
        """A file that is not UTF-8 gives one error line naming the line of
        the first bad byte, not a traceback."""
        path = tmp_path / "binary.sqc"
        path.write_bytes(data)
        code, out, err = run(capsys, "validate", "--complex", str(path))
        assert (code, out, err) == (1, "", f"error: line {line}: not UTF-8 text\n")

    def test_vertex_after_edges_is_an_input_error(self, capsys, tmp_path):
        """A vertex: line after the edges is rejected, not parsed as a
        complete square complex whose declared vertices carry no edge."""
        path = tmp_path / "late.sqc"
        path.write_text("hedges: a\nvedges: x\nvertex: P Q\nsquare: a x a x\n")
        code, out, err = run(capsys, "validate", "--complex", str(path), "--out", str(tmp_path / "v.json"))
        assert (code, out) == (1, "")
        assert err.startswith("error: line 3: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["late.sqc"]


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["develop", "--bottom", "ab", "--left", "xy"], ["gamma", "--w1", "a", "--w2", "x", "--n", "5"]],
    ids=lambda argv: argv[0],
)
def test_complex_is_read_once(capsys, tmp_path, monkeypatch, aperiodic_path, argv):
    """--complex is opened once, and the manifest digests the bytes read."""
    data = Path(aperiodic_path).read_bytes()
    path = tmp_path / "in.sqc"
    path.write_bytes(data)
    opens = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opens.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    code = main([argv[0], "--complex", str(path), *argv[1:], "--out", str(tmp_path / "a.json")])
    monkeypatch.undo()
    assert code == 0, capsys.readouterr().err
    assert opens.count(str(path)) == 1
    manifest = json.loads((tmp_path / "a.json.manifest.json").read_text())
    assert manifest["inputs"]["complex"] == hashlib.sha256(data).hexdigest()


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

    @pytest.mark.parametrize(
        "shape,message",
        [
            (["--L", "110", "--r", "4", "--steps", "100", "--p", "101"], "p must be in 1..steps, got 101"),
            (["--L", "110", "--r", "4", "--steps", "100", "--p", "0"], "p must be in 1..steps, got 0"),
            (["--L", "10", "--r", "1", "--steps", "1", "--p", "1"], "steps=1 cannot attain the crossing bound 11; need steps >= 10"),
        ],
    )
    def test_bad_p_is_rejected_before_the_build(self, capsys, tmp_path, monkeypatch, shape, message):
        """A p the certificate cannot take is an input error found before any
        window is built, with the certificate's own message."""

        def no_build(params):
            raise AssertionError("build_staircase called")

        monkeypatch.setattr(cscwalls.staircase, "build_staircase", no_build)
        code, out, err = run(
            capsys, "certify", *shape, "--dot", str(tmp_path / "x.dot"), "--out", str(tmp_path / "x.json")
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_window_summary_builds_no_contact_graph(self, capsys, monkeypatch):
        """Without --p or --dot the summary reads its counts and wall count
        off the shape: no window, contact graph or wall partition is built.
        The summary's bytes are pinned from the run that built the whole
        contact graph."""

        def no_build(params):
            raise AssertionError("build_staircase called")

        def no_graph(window):
            raise AssertionError("contact_graph called")

        def no_walls(runs, layout):
            raise AssertionError("_walls called")

        monkeypatch.setattr(cscwalls.staircase, "build_staircase", no_build)
        monkeypatch.setattr(cscwalls.staircase, "contact_graph", no_graph)
        monkeypatch.setattr(cscwalls.staircase, "_walls", no_walls)
        code, out, _ = run(capsys, "staircase", "--L", "4", "--r", "2", "--steps", "9")
        monkeypatch.undo()
        assert code == 0
        assert json.loads(out)["walls"] == len(walls(build_staircase(StairParams(4, 2, 9)))) == 77
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "662314acd8f715c3983778e815727e934423caede2b5237316d79f2b2286e6f0"
        )

    @pytest.mark.parametrize(
        "argv",
        [["certify", "--p", "9"], ["certify", "--p", "9", "--dot"], ["staircase"], ["staircase", "--dot"]],
        ids=["certify", "certify-dot", "staircase", "staircase-dot"],
    )
    def test_each_command_lays_the_window_out_once(self, capsys, monkeypatch, tmp_path, argv):
        """Only the contact graph lays a window out, and only --p and --dot
        build one: the summary alone lays out nothing, and no command lays a
        window out twice."""
        layout = cscwalls.staircase._layout
        calls = []

        def counted(runs):
            calls.append(runs)
            return layout(runs)

        monkeypatch.setattr(cscwalls.staircase, "_layout", counted)
        if argv[-1] == "--dot":
            argv = [*argv, str(tmp_path / "g.dot")]
        code, _, _ = run(capsys, *argv, "--L", "4", "--r", "2", "--steps", "9")
        assert code == 0 and len(calls) == (argv != ["staircase"])

    def test_certify_requires_p(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--L", "4", "--r", "2", "--steps", "9"])
        assert exc.value.code == 1

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

    def test_screen_with_text_format_is_an_input_error(self, capsys, tmp_path):
        """The text format has no place for candidates, so a screen would be
        paid for and dropped: exit 1 with one error line and no file."""
        argv = ["enumerate", "--hcount", "1", "--vcount", "1", "--screen", "--format", "text"]
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "census.txt"))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "--screen" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "h, v, screen, digest",
        [
            (2, 2, True, "4d64126135a3c609740d3bebc4e875c8e220793859176c6516ed7613622eef09"),
            (1, 3, True, "8f3c1f6b7f6e9cf2e94dbf55876adb3a584c4eea12bbeff8cda2f9785d7f0516"),
            (3, 1, True, "ec442c288a3ea8d17e4a6ff8a35ed42b3c25727e6fc4666c0347ee5aae3ae351"),
            (2, 2, False, "c2494059e2a581ddb848bb338e4a6ba21b22326509258d1700a16d6c70204e81"),
            (2, 3, True, "5cabe4decd953f4d99c9f48e476ee03d5bef97fcc154ce2dface454885d699bf"),
        ],
    )
    def test_artifact_bytes_are_pinned(self, tmp_path, h, v, screen, digest):
        """SHA-256 of the --out artifact, which embeds the manifest digest but
        not the output path."""
        out = tmp_path / "census.json"
        argv = ["enumerate", "--hcount", str(h), "--vcount", str(v), "--out", str(out)]
        assert main(argv + ["--screen"] * screen) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_screen_options_are_in_the_manifest(self, capsys, tmp_path):
        """Two screen limits list different candidates, so they carry two
        digests; an unscreened run records neither screen option."""
        digests = []
        for limit in ("1", "4"):
            out_path = tmp_path / f"census{limit}.json"
            argv = ["enumerate", "--hcount", "2", "--vcount", "2", "--screen", "--screen-limit", limit]
            assert main(argv + ["--out", str(out_path)]) == 0
            manifest = json.loads((tmp_path / f"census{limit}.json.manifest.json").read_text())
            assert manifest["params"]["screen_len"] == 2
            assert manifest["params"]["screen_limit"] == int(limit)
            digests.append(json.loads(out_path.read_text())["manifest_digest"])
        assert digests[0] != digests[1]
        argv = ["enumerate", "--hcount", "1", "--vcount", "1", "--manifest", str(tmp_path / "m.json")]
        assert run(capsys, *argv)[0] == 0
        params = json.loads((tmp_path / "m.json").read_text())["params"]
        assert "screen_len" not in params and "screen_limit" not in params


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


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--n", "foo"],
        ["certify", "--L", "4", "--r", "2", "--steps", "x", "--p", "1"],
        ["staircase", "--L", "4"],
        ["validate", "--complex", "x", "--bogus"],
        ["nosuch"],
        [],
        # options match by full name only: these abbreviate --kmax and --imax
        ["wellsep", "--complex", "SHIPPED", "--w1", "a", "--w2", "x", "--n", "4", "--k", "3"],
        ["gamma", "--complex", "SHIPPED", "--w1", "a", "--w2", "x", "--n", "3", "--i", "100000"],
    ],
    ids=" ".join,
)
def test_malformed_command_line_is_an_input_error(capsys, aperiodic_path, argv):
    """argparse's usage errors exit 1 with one error line, as other input
    errors do: exit 2 means a budget was exceeded."""
    with pytest.raises(SystemExit) as exc:
        main([aperiodic_path if a == "SHIPPED" else a for a in argv])
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


SUBCOMMANDS = ["validate", "enumerate", "develop", "antitorus", "gamma", "obstruct", "wellsep", "staircase", "certify"]


@pytest.mark.parametrize("argv", [["--help"], ["--version"], *([name, "--help"] for name in SUBCOMMANDS)], ids=" ".join)
def test_help_and_version_exit_zero(capsys, argv):
    """The status and a nonempty text only: argparse's text differs across Python versions."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr().out


def exit_output(capsys, parse, argv):
    """Exit status, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize(
    "argv",
    [
        *([name, "--help"] for name in SUBCOMMANDS),
        ["--help"],
        ["--version"],
        ["nosuch"],
        [],
        ["certify", "--L", "3"],
        ["validate", "--complex", "x", "--bogus"],
        ["--out", "x", "validate"],
    ],
    ids=" ".join,
)
def test_help_and_usage_match_the_full_parser(capsys, argv):
    """main builds only the parser of the subcommand it is given; its help
    text and error lines are those of the parser with every subcommand."""
    assert exit_output(capsys, main, argv) == exit_output(capsys, build_parser().parse_args, argv)


def test_top_level_lists_every_subcommand(capsys):
    code, out, _ = exit_output(capsys, main, ["--help"])
    assert code == 0 and "{" + ",".join(SUBCOMMANDS) + "}" in out
    code, _, err = exit_output(capsys, main, ["nosuch"])
    assert code == 1 and all(name in err for name in SUBCOMMANDS)


def test_main_reads_sys_argv(capsys, monkeypatch, torus_path):
    """The console script calls main() with no arguments."""
    monkeypatch.setattr(sys, "argv", ["cscwalls", "validate", "--complex", torus_path])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["is_csc"] is True


@pytest.mark.parametrize("subcommand", ["antitorus", "gamma", "obstruct", "wellsep"])
def test_query_options_are_described(capsys, subcommand):
    """Every subcommand that takes a query describes its two words alike, and
    each that takes power bounds describes them alike."""
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert exc.value.code == 0
    assert "--w1 W1 horizontal periodic word" in out and "--w2 W2 vertical periodic word" in out
    assert ("--bounds BOUNDS K,J power bounds" in out) == (subcommand in ("antitorus", "obstruct"))


def readme_command_block():
    """The lines of the sh block under README's "Command line" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def test_readme_command_lines_run(capsys, tmp_path, monkeypatch):
    """Every example of README's Command line block runs through main and
    exits 0, so an API or CLI change cannot leave it stale.  --complex paths
    are read from the checkout; outputs land in tmp_path."""
    lines = [line for line in readme_command_block() if line and not line.startswith("#")]
    assert lines and all(line.startswith("cscwalls ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        argv = [str(ROOT / a) if flag == "--complex" else a for flag, a in zip(["", *argv], argv)]
        assert main(argv) == 0, line
        capsys.readouterr()


#: The package modules each handler calls, besides ``errors``, which the
#: command line imports itself.
HANDLER_MODULES = {
    "validate": {"complexes"},
    "enumerate": {"complexes"},
    "enumerate --screen": {"complexes", "develop", "antitorus"},
    "develop": {"complexes", "develop"},
    "antitorus": {"complexes", "develop", "antitorus"},
    "gamma": {"complexes", "develop", "antitorus"},
    "obstruct": {"complexes", "develop", "antitorus", "obstruction"},
    "wellsep": {"complexes", "develop", "antitorus", "obstruction"},
    "staircase": {"staircase"},
    "certify": {"staircase"},
}

PROCESS_LINES = [
    *(line for line in readme_command_block() if line and not line.startswith("#")),
    "cscwalls enumerate --hcount 1 --vcount 1",
]


@pytest.mark.parametrize("line", PROCESS_LINES)
def test_command_lines_run_as_processes(tmp_path, line):
    """Every README command line, and an unscreened census, runs as
    ``python -m cscwalls.cli`` in a fresh interpreter from tmp_path: it exits
    0, writes its stdout or --out file, and loads only the package modules
    its handler calls (read off ``-X importtime``).  In-process runs miss a
    handler that works only after another test's imports."""
    argv = shlex.split(line)[1:]
    argv = [str(ROOT / a) if flag == "--complex" else a for flag, a in zip(["", *argv], argv)]
    env = {**os.environ, "PYTHONPATH": str(Path(cscwalls.__file__).resolve().parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cscwalls.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [row.rsplit("|", 1)[1].strip() for row in proc.stderr.splitlines() if row.startswith("import time:")]
    if "--out" in argv:
        assert proc.stdout == "" and (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0
    else:
        assert proc.stdout.strip()
    loaded = {name.removeprefix("cscwalls.") for name in imported if name.startswith("cscwalls.")}
    assert loaded == HANDLER_MODULES[argv[0] + (" --screen" if "--screen" in argv else "")] | {"errors"}


@pytest.mark.parametrize("case", ["certify --dot", "certify --dot symlink", "gamma --out"])
def test_failed_write_leaves_no_artifact(capsys, aperiodic_path, tmp_path, case):
    """A write that fails after an earlier one succeeded exits 1 with one
    error line and removes what the run wrote: the DOT when --out cannot be
    written, the artifact when --manifest cannot.  A symlink the run wrote
    through, here one to the null device, is left in place."""
    missing = str(tmp_path / "nodir" / "x.json")
    link = tmp_path / "link.dot"
    kept = []
    if case == "certify --dot symlink":
        link.symlink_to(os.devnull)
        kept = [link]
    certify = ["certify", "--L", "4", "--r", "2", "--steps", "9", "--p", "9", "--out", missing]
    argv = {
        "certify --dot": [*certify, "--dot", str(tmp_path / "x.dot")],
        "certify --dot symlink": [*certify, "--dot", str(link)],
        "gamma --out": [
            "gamma", "--complex", aperiodic_path, "--w1", "a", "--w2", "x", "--n", "3",
            "--out", str(tmp_path / "g.json"), "--manifest", missing,
        ],
    }[case]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and missing in err
    assert list(tmp_path.iterdir()) == kept


CERTIFY = "certify --L 4 --r 2 --steps 3 --p 3"


@pytest.mark.parametrize(
    "line",
    [
        "validate --complex in.sqc --out in.sqc",
        "validate --complex in.sqc --out ./in.sqc",
        "validate --complex in.sqc --out link.sqc",
        "validate --complex in.sqc --manifest in.sqc",
        "validate --complex a.manifest.json --out a",
        "validate --complex in.sqc --out v.json --manifest v.json",
        f"{CERTIFY} --out c.json --manifest c.json",
        f"{CERTIFY} --out c.json --dot c.json",
        f"{CERTIFY} --out c.json --manifest m.json --dot m.json",
        f"{CERTIFY} --out c.json --dot c.json.manifest.json",
        f"{CERTIFY} --manifest d.dot --dot d.dot",
    ],
)
def test_colliding_paths_are_an_input_error(capsys, tmp_path, monkeypatch, line):
    """Two of --complex, --out, the manifest (given, or <out>.manifest.json)
    and --dot that name one file, by the same name, another spelling or a
    symlink, exit 1 with one error line before anything is read or written:
    no file is created and every file keeps its bytes."""
    monkeypatch.chdir(tmp_path)
    text = files("cscwalls.data").joinpath("torus.sqc").read_bytes()
    (tmp_path / "in.sqc").write_bytes(text)
    (tmp_path / "a.manifest.json").write_bytes(text)
    (tmp_path / "link.sqc").symlink_to("in.sqc")
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    code, out, err = run(capsys, *line.split())
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "name the same file" in err
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


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


#: Budget edges of `gamma --n 244` on the shipped pair, where j = 2916 and
#: the overlap runs 729 columns east: one budget below each edge fails with
#: its own message, and the edge itself passes.
BUDGET_EDGES = (
    ("--imax", "2915", "no repeated top within 2915 developed words"),
    ("--imax", "2916", None),
    ("--kmax", "729", "no divergence east of the basepoint within 729 periods"),
    ("--kmax", "730", None),
)


@pytest.mark.parametrize("flag, value, message", BUDGET_EDGES, ids=[" ".join(e[:2]) for e in BUDGET_EDGES])
def test_gamma_budget_edges(capsys, aperiodic_path, flag, value, message):
    code, out, err = run(
        capsys, "gamma", "--complex", aperiodic_path, "--w1", "a", "--w2", "x", "--n", "244", flag, value
    )
    if message is not None:
        assert code == 2 and out == "" and message in err
    else:
        a = json.loads(out)
        assert code == 0, err
        assert (a["j"], a["right_len"], a["left_len"]) == (2916, 729, 729)
