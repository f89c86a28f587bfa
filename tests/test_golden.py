"""Golden command lines for every subcommand.

Each row runs in-process through cli.main in a fresh working directory that
holds copies of the packaged complexes, named by relative path as are --out
and --dot, so no byte depends on where the checkout lives.  A row must
reproduce its exit status and the SHA-256 of every byte it leaves: the
artifact, its manifest, the DOT file, stdout and stderr.  A file the run
does not leave has the digest None, and no row may change an input's bytes.
A row that fails prints the status and digests it got, ready to paste, so a
change that alters an artifact on purpose declares its new bytes in one edit.
"""

import hashlib
import json
from importlib.resources import files

import pytest

from cscwalls.cli import main

from .checker import problems

#: The files a row may write, digested in this order before stdout and stderr.
FILES = ("out.json", "out.json.manifest.json", "out.dot")

#: SHA-256 of an empty stream.
EMPTY = hashlib.sha256(b"").hexdigest()

_CERTIFY = ("certify", "--out", "out.json")
_STAIRCASE = ("staircase", "--out", "out.json")
_OUT = ("--out", "out.json")

#: The packaged complexes each row finds in its working directory.
INPUTS = ("aperiodic22.sqc", "torus.sqc")

_SHIPPED = ("--complex", "aperiodic22.sqc")
_TORUS = ("--complex", "torus.sqc")
_QUERY = (*_SHIPPED, "--w1", "a", "--w2", "x")
_TORUS_QUERY = (*_TORUS, "--w1", "a", "--w2", "x")

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
    # the summary read off a window whose contact graph is built: counts outlive the layout
    "staircase-4-2-9-dot": (
        (*_STAIRCASE, "--L", "4", "--r", "2", "--steps", "9", "--dot", "out.dot"),
        0,
        (
            "662314acd8f715c3983778e815727e934423caede2b5237316d79f2b2286e6f0",
            "c3c1231c60c9d6f06595cc375565acece8ae9af42cfb0eecbf1469a24530a201",
            "d14aaec48f92348b54e06da3ba01de2b71cfdd93852f846ba2494afcc4798566",
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
    # the other subcommands, on copies of the packaged complexes
    "validate-aperiodic22": (
        ("validate", *_SHIPPED, *_OUT),
        0,
        (
            "be0721a2e20e1515c4109444b3bf7dbf366cf3adc43d8efc87467f58f05477e9",
            "9fb98ae77d96f0b2ac00561d311423f432a2d94462578b22b327e6634d554118",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "validate-torus": (
        ("validate", *_TORUS, *_OUT),
        0,
        (
            "c4422e8a8e0eabaa65d1f1272d54a6129f8eaf35317d3c772d5ba5841239d3fb",
            "0ad3f613d1397f15f63566ee19850a82026d7d9eee36033a7eec5df766f1ce84",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "develop-ab-xy": (
        ("develop", *_SHIPPED, "--bottom", "ab", "--left", "xy", *_OUT),
        0,
        (
            "8d988bd3cd423ddbbcbf2efb52f77ad8be2594dd1d9dcf8133db8a85264b7364",
            "8f8aee2d11aa55d761b817ba31e7d1fba821781ebec0454c1e1998d7385a98c8",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "develop-ab-xy-dump-cells": (
        ("develop", *_SHIPPED, "--bottom", "ab", "--left", "xy", "--dump-cells", *_OUT),
        0,
        (
            "aa2b4812f310c1f3a4c59d05f044d03cbcd834690fc2ea4c0a75c5cf5fddbcd2",
            "1001301ddc3fd5c056cf961498df0fb77a82c7777cc6a8729795e5e060592672",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "enumerate-2-2": (
        ("enumerate", "--hcount", "2", "--vcount", "2", *_OUT),
        0,
        (
            "c2494059e2a581ddb848bb338e4a6ba21b22326509258d1700a16d6c70204e81",
            "9e000058f8025fce7d28f1d441401e56148fae2bd104cc1c22214644623897dd",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "enumerate-2-2-screen": (
        ("enumerate", "--hcount", "2", "--vcount", "2", *_OUT, "--screen", "--screen-limit", "50"),
        0,
        (
            "527f75f485747fcf8424924095b293ad321f6cff5f80863969ac4ed52af7fd60",
            "cfc88c1c051236a4161cf0de81a29b99380709f2c57063750715dde9ef6a7e04",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "enumerate-2-2-text": (
        ("enumerate", "--hcount", "2", "--vcount", "2", *_OUT, "--format", "text"),
        0,
        (
            "2c8dcd8e9558e0a62d6cf0e9dafecf7cd101caff646aabee0d73dd123202392f",
            "ca4e66334082323cb024f328bdd98d107cdfda99aacb8fa3c052212e0a1b6322",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "enumerate-1-3": (
        ("enumerate", "--hcount", "1", "--vcount", "3", *_OUT),
        0,
        (
            "173b75ab8cae626d278ec453a2895bc1bc02033f8b66be9f90e8bb9c4af63f04",
            "d32b471128a81405285246ded6912bcb55fa6014ef606383bc742af434b3c498",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "enumerate-1-3-screen": (
        ("enumerate", "--hcount", "1", "--vcount", "3", *_OUT, "--screen", "--screen-limit", "50"),
        0,
        (
            "cf4f54c0e70e12a66d653379968b12155ddcfeabc2bd6e308eef456bc9296381",
            "3e0343f7ad332cdd3c2dbf72fb5df1191acb79d05a3a358972f9a8db49cc5a81",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "enumerate-1-3-text": (
        ("enumerate", "--hcount", "1", "--vcount", "3", *_OUT, "--format", "text"),
        0,
        (
            "8e022848f9b12a538ce0ee1327e39d5ad6aa24111bf238982536f140c0df1738",
            "1d29d8b6fa83bf3d84305fa905c32bef78a7a4b7db1e1c6e5e74c49dddd0edb5",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "enumerate-3-1": (
        ("enumerate", "--hcount", "3", "--vcount", "1", *_OUT),
        0,
        (
            "e9a06214f45558bf8a894e0d6fcd7ff380991dede453944e4b122971c4b60e5c",
            "5e6ab653ae4743bf63e7c610dd2efadca408fc73420048a927397e953f7dddf7",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "enumerate-3-1-screen": (
        ("enumerate", "--hcount", "3", "--vcount", "1", *_OUT, "--screen", "--screen-limit", "50"),
        0,
        (
            "b73bb37e0c6c427839a169769435887d188e5e9fca370675d555cd8f54c2915d",
            "e0c82a7127632f9a88cb63b9c2bcde0b4ee15803a87dd9faaebc8cd97be9cc05",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "enumerate-3-1-text": (
        ("enumerate", "--hcount", "3", "--vcount", "1", *_OUT, "--format", "text"),
        0,
        (
            "1b58d2224baa730be18579145b76d4ca86985a0b69e4dc0e0c4ea7c4f51197d5",
            "898415b250d3d96a43d5656c111a7dd7a6514a6d1106c9c6f7f8efe94f2d1f93",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "enumerate-2-3": (
        ("enumerate", "--hcount", "2", "--vcount", "3", *_OUT),
        0,
        (
            "431398c55c272849b5d95d21e56ac42d4d9709c551f003229c42130ad023e4e1",
            "a49f7dd7847d2810e5bb391f2bbe9126c103201ca9d859eaa9f0dd7d70e3856c",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "enumerate-2-3-screen": (
        ("enumerate", "--hcount", "2", "--vcount", "3", *_OUT, "--screen", "--screen-limit", "50"),
        0,
        (
            "b9a62fd21f13317373e045a66b246a544394c16e8931a5bb670346b6286fd5ef",
            "9b36196008c7277616eaf95d7b420e378564ed241a0f89a31ef077ec653a8051",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "enumerate-2-3-text": (
        ("enumerate", "--hcount", "2", "--vcount", "3", *_OUT, "--format", "text"),
        0,
        (
            "54b7ac2b2c58e331ce89a4bec4f7650497f04c9468e1e4d870c56dd73d258d29",
            "9c93bc8740e6d2acd9e0b75543bc8a8948450b506a4ded12c6445368c0b597a8",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "antitorus": (
        ("antitorus", *_QUERY, *_OUT),
        0,
        (
            "9e4f118a5ce3b6854f62e6e64726416a9c94b0424f3f73e0ae3c730185ec4b75",
            "845114f438e821a3ad826911a467fc4b98f9cc50ddf1a1b104913411ac2480db",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "gamma-5": (
        ("gamma", *_QUERY, "--n", "5", *_OUT),
        0,
        (
            "903cb6f7d183c9b94ebb4742f07db75f9a9a0e6d2a9b6ac5d6b92dbfddcefcaa",
            "6d8db6c2527c34b1915b71550f909957440f8069253e4c119c1d61cf58ff34eb",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "gamma-300": (
        ("gamma", *_QUERY, "--n", "300", *_OUT),
        0,
        (
            "5d22a9c0b35651ee70c333b786437de1d176d04b47e032e885375db15bcac92b",
            "8341fd8e9f98d5ad2d8c41e9820a446780233fd837154422f0cf7ad57d1d1384",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "gamma-2187": (
        ("gamma", *_QUERY, "--n", "2187", *_OUT),
        0,
        (
            "302fd4ae2509d5bff805acbf613e53001414ca96f2bed23419d7d448c6644b60",
            "ede06f0431dfc6a7f9322b6e4118f33ba1e261f1ec38e76f49d3aab0c765c2ac",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    # w2 = xy: the overlap is lopsided (14 edges west, 13 east), so a row sees the two ends swapped
    "gamma-a-xy-5": (
        ("gamma", *_SHIPPED, "--w1", "a", "--w2", "xy", "--n", "5", *_OUT),
        0,
        (
            "6fa5ec25c7f079b0358c26803b760c0a5189067b75999d620c5ee56500d09354",
            "d02309e22758f54d21b1f815734161c66457bd79de0da86fe4e07aa1897d9b0d",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "gamma-5-stdout": (
        ("gamma", *_QUERY, "--n", "5"),
        0,
        (
            None,
            None,
            None,
            "903cb6f7d183c9b94ebb4742f07db75f9a9a0e6d2a9b6ac5d6b92dbfddcefcaa",
            EMPTY,
        ),
    ),
    "obstruct-32": (
        ("obstruct", *_QUERY, "--nmax", "32", *_OUT),
        0,
        (
            "afd5b82824f108c98e6f7090c8662377c9089cdaa76561b928cf697212cdf595",
            "c7aabb0e80aa8d3fbd09d2249a5f558b23f0261a632c244299688d8001a25efc",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "obstruct-32-csv": (
        ("obstruct", *_QUERY, "--nmax", "32", "--format", "csv", *_OUT),
        0,
        (
            "e826624410d332784fb5f00c2ab7d729d7f0ce8c02bd849d8e8c4be3f678bcc6",
            "bf5f963086ee45ecd65c5aa55c68551c7e64317f0e749531d2dbe398734716ff",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "wellsep-40": (
        ("wellsep", *_QUERY, "--n", "40", *_OUT),
        0,
        (
            "4785a88931f7b71a74948bb9ff3546509fcb2fa5507fb819eb25c79bbff0a0ae",
            "c7ad4cfcf9e79a3fa64146b62c096d03f0070a89c9a006f3eaf9bbe4cc4d7e08",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    "wellsep-200": (
        ("wellsep", *_QUERY, "--n", "200", *_OUT),
        0,
        (
            "2c02dda3f5fdde7d7d1018d06687b7ad3905839880a5a4e7d77a54c262e0d7d9",
            "45158bf1e115d0c922647940913e84505c9b3ad329f32c2363c6aa0d42fc085f",
            None,
            EMPTY,
            EMPTY,
        ),
    ),
    # exit 2: one budget line, and no file left behind
    "gamma-torus-kmax-3": (
        ("gamma", *_TORUS_QUERY, "--n", "1", "--kmax", "3", *_OUT),
        2,
        (None, None, None, EMPTY, "285039dcf0a3f2bdaefa257f8061e36479fa8f285bdc7fb51971230fa61f81e4"),
    ),
    "gamma-5-imax-3": (
        ("gamma", *_QUERY, "--n", "5", "--imax", "3", *_OUT),
        2,
        (None, None, None, EMPTY, "6515d2ebe224ded749488d228f89153a6c5f32268aa3b1d2123361ae69c61a9d"),
    ),
    # exit 1; the last row's input keeps its bytes
    "obstruct-torus": (
        ("obstruct", *_TORUS_QUERY, "--nmax", "2", *_OUT),
        1,
        (None, None, None, EMPTY, "8b71ba742ce66b4a229f17c882eb3a9b86ebd8475c95a7c38792e48fcd8faec1"),
    ),
    "gamma-n-0": (
        ("gamma", *_QUERY, "--n", "0", *_OUT),
        1,
        (None, None, None, EMPTY, "2c9b34d60bf82f01312b559a847fc5e52684b11a1f8152a16354aab1d9010078"),
    ),
    "enumerate-screen-text": (
        ("enumerate", "--hcount", "2", "--vcount", "2", "--screen", "--format", "text", *_OUT),
        1,
        (None, None, None, EMPTY, "b69a1d6fb5e07185a97e9cabe9e068d2d267706f02cc081fcff138ff9d840182"),
    ),
    "validate-out-is-complex": (
        ("validate", *_TORUS, "--out", "torus.sqc"),
        1,
        (None, None, None, EMPTY, "4a1cfa8355f3abd859e415264198aa72987e7ca42936a5cbfbb7d1af2592409f"),
    ),

}


def _sha256(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("row", ROWS)
def test_golden_row(row, tmp_path, monkeypatch, capsys):
    argv, status, digests = ROWS[row]
    inputs = {name: files("cscwalls.data").joinpath(name).read_bytes() for name in INPUTS}
    for name, data in inputs.items():
        tmp_path.joinpath(name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    got_status = main(list(argv))
    streams = capsys.readouterr()
    files_left = [path.read_bytes() if path.exists() else None for path in map(tmp_path.joinpath, FILES)]
    got = tuple(map(_sha256, [*files_left, streams.out.encode(), streams.err.encode()]))
    assert (got_status, got) == (status, digests), f"{row}: got status {got_status} and digests {got!r}"
    assert {name: tmp_path.joinpath(name).read_bytes() for name in INPUTS} == inputs



#: The certify rows that exit 0; each is run again with --dot for tests/checker.py.
CERTIFY_ROWS = [row for row, (argv, status, _) in ROWS.items() if argv[0] == "certify" and status == 0]


def _certify(argv, directory, monkeypatch):
    """Run a certify row in directory with --dot out.dot; its certificate and DOT text."""
    monkeypatch.chdir(directory)
    assert main([*argv, *(() if "--dot" in argv else ("--dot", "out.dot"))]) == 0
    return json.loads(directory.joinpath("out.json").read_text()), directory.joinpath("out.dot").read_text()


@pytest.mark.parametrize("row", CERTIFY_ROWS)
def test_certify_row_passes_the_checker(row, tmp_path, monkeypatch):
    """The certificate's distances, witness and bounds hold on the graph its
    DOT file draws, by the checker's own search of the edge lines."""
    assert problems(*_certify(ROWS[row][0], tmp_path, monkeypatch)) == []


def test_checker_refuses_a_dropped_edge(tmp_path, monkeypatch):
    """Without the edge line between family[0] and the witness, the checker
    names the missing adjacency."""
    cert, dot = _certify(ROWS[CERTIFY_ROWS[0]][0], tmp_path, monkeypatch)
    base, witness = sorted((cert["family"][0], cert["witness_wall"]))
    line = f'  "{base}" -- "{witness}";\n'
    assert line in dot
    found = problems(cert, dot.replace(line, ""))
    assert f"witness {cert['witness_wall']} is not adjacent to family[0] {cert['family'][0]}" in found
