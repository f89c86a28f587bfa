"""Golden command lines for the staircase commands.

Each row runs in-process through cli.main in a fresh working directory, with
relative --out and --dot, and must reproduce its exit status and the SHA-256
of every byte it leaves: the artifact, its manifest, the DOT file, stdout
and stderr.  A file the run does not leave has the digest None.  A row that
fails prints the status and digests it got, ready to paste, so a change that
alters an artifact on purpose declares its new bytes in one edit.
"""

import hashlib

import pytest

from cscwalls.cli import main

#: The files a row may write, digested in this order before stdout and stderr.
FILES = ("out.json", "out.json.manifest.json", "out.dot")

#: SHA-256 of an empty stream.
EMPTY = hashlib.sha256(b"").hexdigest()

_CERTIFY = ("certify", "--out", "out.json")
_STAIRCASE = ("staircase", "--out", "out.json")

#: row id -> (argv, exit status, digests of (artifact, manifest, DOT, stdout, stderr)).
ROWS = {
    "certify-10-3-15-15-dot": (
        (*_CERTIFY, "--L", "10", "--r", "3", "--steps", "15", "--p", "15", "--dot", "out.dot"),
        0,
        (
            "a588be5c2c19296c534a4c5eba2fad1b0c53efeac8657a743b5e8fb3c8492671",
            "ef93718daa437a24b7d0fde0448d0273c9e67a1172b45c3d05e5378ebfd6e73f",
            "b6df27f7288e17a337b9f3aceab02528a09ea423dc8fb6c420d6c8d805aee0b1",
            EMPTY,
            EMPTY,
        ),
    ),
    "certify-100-5-100-100": (
        (*_CERTIFY, "--L", "100", "--r", "5", "--steps", "100", "--p", "100"),
        0,
        (
            "23232f1c84e3450ba9d08c543636f933556885df784c9e24eaffc41a87323c55",
            "d6bf9e010586b973a4ffb87af131a9b480dd8f012d1ce0c1b7317bbdc6b85402",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "certify-110-4-100-100": (
        (*_CERTIFY, "--L", "110", "--r", "4", "--steps", "100", "--p", "100"),
        0,
        (
            "60c3d4a5749e465e667f47b01aae67be03f277ed89617f3303a4dbf0da48d6f0",
            "af81c866d0155e556fc70a978a8b7d37bccd2645ae84f5e90880cd54d0d5ce8c",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "certify-3-2-420-420-margin-2": (
        (*_CERTIFY, "--L", "3", "--r", "2", "--steps", "420", "--p", "420", "--margin", "2"),
        0,
        (
            "43a63759bd5c513b8f7ca688478b7a43ca1a0c9adc63bd9a4789732717b02a7e",
            "4fc9df777e514d58ab250561379af2cf5f9fe96ceb5bd8db561e6a2f3d394f6b",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "staircase-4-2-9": (
        (*_STAIRCASE, "--L", "4", "--r", "2", "--steps", "9"),
        0,
        (
            "662314acd8f715c3983778e815727e934423caede2b5237316d79f2b2286e6f0",
            "91c82db4623beed76d4aa3b547f473d743a842aa37bd7652f61aef88f4748067",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "staircase-4-2-9-p-dot": (
        (*_STAIRCASE, "--L", "4", "--r", "2", "--steps", "9", "--p", "9", "--dot", "out.dot"),
        0,
        (
            "111d524f2ee4ab25f90fe99213a422c2c13ae1b8df0978f4d4d8a4b9acb86109",
            "e782db0a311fb1187499b4dd0a4801ccc0ad3c200943a1c86095abb98f119dcf",
            "3934d5d8562ae1042e26e4d0858c2fd3fb11787897a12421d04eefcba3085ee8",
            EMPTY,
            EMPTY,
        ),
    ),
    # exit 1: one error line, and no file left behind
    "certify-r-0": (
        (*_CERTIFY, "--L", "4", "--r", "0", "--steps", "9", "--p", "9"),
        1,
        (None, None, None, EMPTY, "a5425ab074ab428ba91b516e10020d25e7011279984652b4d91969b37526ee24"),
    ),
    "certify-p-0": (
        (*_CERTIFY, "--L", "4", "--r", "2", "--steps", "9", "--p", "0"),
        1,
        (None, None, None, EMPTY, "2b503eb964dbeacc734ac32ce34ce53d89991970162a8272ba208f0a09886b6f"),
    ),
    "certify-p-above-steps": (
        (*_CERTIFY, "--L", "4", "--r", "2", "--steps", "9", "--p", "10"),
        1,
        (None, None, None, EMPTY, "021798be68698b8fc427a85b68e27534bb5f7ac9b0868994d40e98ae8240dfc9"),
    ),
    "certify-dot-is-out": (
        (*_CERTIFY, "--L", "4", "--r", "2", "--steps", "9", "--p", "9", "--dot", "out.json"),
        1,
        (None, None, None, EMPTY, "a54e002889485bf6dbe7185b1d6ef380799fc56b9053ae6f6b3ba9c5e5816e7c"),
    ),
}


def _sha256(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("row", ROWS)
def test_golden_row(row, tmp_path, monkeypatch, capsys):
    argv, status, digests = ROWS[row]
    monkeypatch.chdir(tmp_path)
    got_status = main(list(argv))
    streams = capsys.readouterr()
    files = [path.read_bytes() if path.exists() else None for path in map(tmp_path.joinpath, FILES)]
    got = tuple(map(_sha256, [*files, streams.out.encode(), streams.err.encode()]))
    assert (got_status, got) == (status, digests), f"{row}: got status {got_status} and digests {got!r}"
