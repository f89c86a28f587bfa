"""Command-line entry point.

Every run is deterministic (no clocks, no randomness) and emits a manifest
recording input digests, parameters, bounds and output digests; artifacts
embed the manifest digest so a rerun can be diffed byte for byte.

Exit codes: 0 success, 1 input error, 2 budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys

from . import __version__
from .antitorus import (
    DEFAULT_I_MAX,
    DEFAULT_K_MAX,
    AntiTorusQuery,
    commuting_powers_search,
    overlap_gamma,
    screen_anti_torus,
)
from .complexes import enumerate_csc, load_complex, serialize_complex, validate_csc
from .develop import PeriodicWord, fill_rectangle, parse_word
from .errors import BudgetExceeded, CscwallsError
from .obstruction import obstruction_table, well_separation
from .staircase import (
    StairParams,
    build_staircase,
    contact_graph,
    contact_graph_dot,
    nonacyl_certificate,
)

SCHEMA_PREFIX = "cscwalls"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class Run:
    """Collects inputs/params/outputs of one invocation into a manifest."""

    def __init__(self, subcommand):
        self.subcommand = subcommand
        self.inputs = {}
        self.params = {}
        self.bounds = {}
        self.outputs = {}

    def input_file(self, role, path):
        with open(path, "rb") as fh:
            self.inputs[role] = _sha256(fh.read())

    def _head(self):
        """The manifest fields covered by the digest."""
        return {
            "schema": f"{SCHEMA_PREFIX}/manifest/v1",
            "tool": "cscwalls",
            "version": __version__,
            "subcommand": self.subcommand,
            "inputs": self.inputs,
            "params": self.params,
            "bounds": self.bounds,
        }

    @property
    def digest(self):
        return _sha256(_canonical_json(self._head()))

    def manifest(self):
        return {**self._head(), "digest": self.digest, "outputs": self.outputs}

    def write(self, path, text):
        """Write one artifact file and record its digest among the outputs."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.outputs[path] = _sha256(text.encode())

    def emit(self, payload, args, kind):
        """Write the artifact (stdout or --out) plus the manifest sidecar.

        Every artifact embeds the manifest digest: JSON as a field, text
        formats as a leading comment line.
        """
        fmt = getattr(args, "format", None) or "json"
        if fmt == "json":
            payload = dict(payload)
            payload["schema"] = f"{SCHEMA_PREFIX}/{kind}/v1"
            payload["manifest_digest"] = self.digest
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        else:
            text = f"# manifest: {self.digest}\n" + payload
        out = getattr(args, "out", None)
        if out:
            self.write(out, text)
        else:
            sys.stdout.write(text)
        manifest_path = getattr(args, "manifest", None)
        if manifest_path is None and out:
            manifest_path = out + ".manifest.json"
        if manifest_path:
            mtext = json.dumps(self.manifest(), sort_keys=True, indent=2) + "\n"
            with open(manifest_path, "w", encoding="utf-8") as fh:
                fh.write(mtext)
        return 0


def _load_query(args, run):
    run.input_file("complex", args.complex)
    p = load_complex(args.complex)
    hw = PeriodicWord(parse_word(p, args.w1))
    vw = PeriodicWord(parse_word(p, args.w2))
    run.params.update({"w1": args.w1, "w2": args.w2})
    return AntiTorusQuery(p, hw, vw)


#: The least value each numeric option accepts, by argparse dest.
_MINIMUMS = {
    "n": 1, "nmax": 1, "kmax": 1, "imax": 1,
    "hcount": 0, "vcount": 0, "screen_len": 1, "screen_limit": 1,
}


def _check_minimums(args):
    for dest, low in _MINIMUMS.items():
        value = getattr(args, dest, None)
        if value is not None and value < low:
            raise CscwallsError(f"--{dest.replace('_', '-')} must be at least {low}, got {value}")


def _parse_bounds(text):
    k, comma, j = text.partition(",")
    try:
        bounds = int(k), int(j if comma else k)
    except ValueError:
        raise CscwallsError(f"--bounds must be K or K,J in integers, got {text!r}") from None
    if min(bounds) < 1:
        raise CscwallsError(f"--bounds must be at least 1, got {text!r}")
    return bounds


# -- subcommand handlers ----------------------------------------------------


def _cmd_validate(args, run):
    run.input_file("complex", args.complex)
    report = validate_csc(load_complex(args.complex))
    return run.emit(
        {
            "is_csc": report.is_csc,
            "corner_count": report.corner_count,
            "violations": [
                {"vertex": v, "pair": list(pair), "count": c}
                for v, pair, c in report.violations
            ],
        },
        args,
        "validation",
    )


def _cmd_enumerate(args, run):
    run.params.update({"hcount": args.hcount, "vcount": args.vcount, "screen": args.screen})
    census = list(enumerate_csc(args.hcount, args.vcount))
    entries = []
    for i, p in enumerate(census):
        entry = {"index": i, "text": serialize_complex(p)}
        if args.screen:
            screened = screen_anti_torus(p, max_len=args.screen_len)
            entry["anti_torus_candidates"] = [
                {"w1": str(hw.period), "w2": str(vw.period)}
                for hw, vw, _ in itertools.islice(screened, args.screen_limit)
            ]
        entries.append(entry)
    if args.format == "text":
        chunks = [f"# census entry {e['index']}\n{e['text']}" for e in entries]
        return run.emit("\n".join(chunks), args, "census")
    return run.emit({"count": len(entries), "presentations": entries}, args, "census")


def _cmd_develop(args, run):
    run.input_file("complex", args.complex)
    p = load_complex(args.complex)
    bottom = parse_word(p, args.bottom) if args.bottom else parse_word(p, "", klass="horizontal")
    left = parse_word(p, args.left) if args.left else parse_word(p, "", klass="vertical")
    run.params.update({"bottom": args.bottom, "left": args.left, "dump_cells": args.dump_cells})
    rect = fill_rectangle(p, bottom, left, keep_cells=args.dump_cells)
    payload = {
        "width": rect.width,
        "height": rect.height,
        "bottom": str(rect.bottom),
        "left": str(rect.left),
        "top": str(rect.top),
        "right": str(rect.right),
    }
    if args.dump_cells:
        payload["cells"] = [
            [
                {
                    "square": c.square,
                    "corner": c.corner,
                    "bottom": c.bottom.token(),
                    "right": c.right.token(),
                    "top": c.top.token(),
                    "left": c.left.token(),
                }
                for c in row
            ]
            for row in rect.cells
        ]
    return run.emit(payload, args, "develop")


def _cmd_antitorus(args, run):
    query = _load_query(args, run)
    k_bound, j_bound = _parse_bounds(args.bounds)
    run.bounds.update({"k_bound": k_bound, "j_bound": j_bound})
    found = commuting_powers_search(query, k_bound, j_bound)
    return run.emit(
        {
            "commuting": None if found is None else {"k": found[0], "j": found[1]},
            "anti_torus_candidate": found is None,
            "bounds_used": {"k_bound": k_bound, "j_bound": j_bound},
        },
        args,
        "antitorus",
    )


def _cmd_gamma(args, run):
    query = _load_query(args, run)
    run.params["n"] = args.n
    run.bounds.update({"k_max": args.kmax, "i_max": args.imax})
    gamma = overlap_gamma(query, args.n, k_max=args.kmax, i_max=args.imax)
    payload = gamma.to_dict()
    payload["bounds_used"] = {"k_max": args.kmax, "i_max": args.imax}
    return run.emit(payload, args, "gamma")


def _cmd_obstruct(args, run):
    query = _load_query(args, run)
    k_bound, j_bound = _parse_bounds(args.bounds)
    run.params["nmax"] = args.nmax
    run.bounds.update(
        {"k_bound": k_bound, "j_bound": j_bound, "k_max": args.kmax, "i_max": args.imax}
    )
    table = obstruction_table(
        query,
        args.nmax,
        k_bound=k_bound,
        j_bound=j_bound,
        k_max=args.kmax,
        i_max=args.imax,
    )
    if args.format == "csv":
        lines = ["n,diam,L"]
        lines += [f"{r.n},{r.diam},{r.gamma.total_len}" for r in table.rows]
        return run.emit("\n".join(lines) + "\n", args, "obstruction")
    return run.emit(table.to_dict(), args, "obstruction")


def _cmd_wellsep(args, run):
    query = _load_query(args, run)
    run.params["n"] = args.n
    run.bounds.update({"k_max": args.kmax, "i_max": args.imax})
    result = well_separation(query, args.n, k_max=args.kmax, i_max=args.imax)
    return run.emit(result.to_dict(), args, "wellsep")


def _cmd_staircase(args, run):
    params = StairParams(
        overlap_len=args.L, shift=args.r, steps=args.steps, margin=args.margin
    )
    run.params.update(params.to_dict())
    if args.p is not None:
        run.params["p"] = args.p
    window = build_staircase(params)
    graph = contact_graph(window)
    # p is recorded and checked first: the DOT carries the manifest's digest, a bad p writes nothing.
    cert = None if args.p is None else nonacyl_certificate(params, args.p, window=window, graph=graph)
    if args.dot:
        run.write(args.dot, f"// manifest: {run.digest}\n" + contact_graph_dot(graph))
    if cert is not None:
        return run.emit(cert.to_dict(), args, "nonacyl")
    payload = {
        "params": params.to_dict(),
        "window": window.counts(),
        "euler_characteristic": window.euler_characteristic(),
        "walls": len(graph.walls),
        "crossing_bound": params.crossing_bound,
    }
    return run.emit(payload, args, "staircase")


_HANDLERS = {
    "validate": _cmd_validate,
    "enumerate": _cmd_enumerate,
    "develop": _cmd_develop,
    "antitorus": _cmd_antitorus,
    "gamma": _cmd_gamma,
    "obstruct": _cmd_obstruct,
    "wellsep": _cmd_wellsep,
    "staircase": _cmd_staircase,
    "certify": _cmd_staircase,
}


def _add_common(sub):
    sub.add_argument("--out", help="write the artifact here instead of stdout")
    sub.add_argument("--manifest", help="manifest path (default: <out>.manifest.json)")


def _add_budgets(sub):
    sub.add_argument(
        "--kmax", type=int, default=DEFAULT_K_MAX, help="cap on the columns of each orbit sweep, in periods of w1"
    )
    sub.add_argument(
        "--imax", type=int, default=DEFAULT_I_MAX, help="cap on j, the orbit length of w1^n, in periods of w2"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cscwalls",
        description="Complete square complexes: development, overlap certificates, staircase contact graphs",
    )
    parser.add_argument("--version", action="version", version=f"cscwalls {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    s = subs.add_parser("validate", help="check the completeness condition of a presentation")
    s.add_argument("--complex", required=True)
    _add_common(s)

    s = subs.add_parser("enumerate", help="census of one-vertex complete square complexes")
    s.add_argument("--hcount", type=int, required=True)
    s.add_argument("--vcount", type=int, required=True)
    s.add_argument("--screen", action="store_true", help="screen each entry for anti-torus candidate pairs")
    s.add_argument("--screen-len", type=int, default=2, help="max candidate word length")
    s.add_argument("--screen-limit", type=int, default=4, help="candidates reported per entry")
    s.add_argument("--format", choices=("json", "text"), default="json")
    _add_common(s)

    s = subs.add_parser("develop", help="fill a rectangle from its bottom and left words")
    s.add_argument("--complex", required=True)
    s.add_argument("--bottom", default="")
    s.add_argument("--left", default="")
    s.add_argument("--dump-cells", action="store_true")
    _add_common(s)

    s = subs.add_parser("antitorus", help="bounded search for commuting powers")
    s.add_argument("--complex", required=True)
    s.add_argument("--w1", required=True, help="horizontal periodic word")
    s.add_argument("--w2", required=True, help="vertical periodic word")
    s.add_argument("--bounds", default="8,8", help="K,J power bounds")
    _add_common(s)

    s = subs.add_parser("gamma", help="overlap of the pigeonhole geodesic with the flat")
    s.add_argument("--complex", required=True)
    s.add_argument("--w1", required=True)
    s.add_argument("--w2", required=True)
    s.add_argument("--n", type=int, required=True)
    _add_budgets(s)
    _add_common(s)

    s = subs.add_parser("obstruct", help="projection-diameter table over n = 1..nmax")
    s.add_argument("--complex", required=True)
    s.add_argument("--w1", required=True)
    s.add_argument("--w2", required=True)
    s.add_argument("--nmax", type=int, required=True)
    s.add_argument("--bounds", default="8,8")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    _add_budgets(s)
    _add_common(s)

    s = subs.add_parser("wellsep", help="well-separation numbers at exponent n")
    s.add_argument("--complex", required=True)
    s.add_argument("--w1", required=True)
    s.add_argument("--w2", required=True)
    s.add_argument("--n", type=int, required=True)
    _add_budgets(s)
    _add_common(s)

    for name, help_text in (
        ("staircase", "build a staircase window; with --p also emit the certificate"),
        ("certify", "emit the non-acylindricity certificate for the p-th translate"),
    ):
        s = subs.add_parser(name, help=help_text)
        s.add_argument("--L", type=int, required=True, help="overlap length")
        s.add_argument("--r", type=int, required=True, help="step shift")
        s.add_argument("--steps", type=int, required=True)
        s.add_argument("--margin", type=int, default=1)
        s.add_argument("--p", type=int, default=None, required=(name == "certify"))
        s.add_argument("--dot", help="also write the contact graph in DOT format")
        _add_common(s)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    run = Run(args.subcommand)
    try:
        _check_minimums(args)
        return _HANDLERS[args.subcommand](args, run)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (CscwallsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
