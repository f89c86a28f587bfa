"""Command-line entry point.

Every run is deterministic (no clocks, no randomness) and emits a manifest
recording input digests, parameters, bounds and output digests; artifacts
embed the manifest digest so a rerun can be diffed byte for byte.

Exit codes: 0 success, 1 input error (a malformed command line too), 2 budget
exceeded.  A run that fails removes the regular files it wrote, so it leaves
neither artifact nor manifest, and never unlinks a symlink or device.
"""

import argparse
import hashlib
import itertools
import json
import os
import sys

from . import __version__
from .errors import DEFAULT_BOUND, DEFAULT_I_MAX, DEFAULT_K_MAX, BudgetExceeded, CscwallsError

# Each handler imports the package modules it calls, so one run loads only
# its own subcommand's modules and building the parser loads none.

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
        manifest_path = _manifest_path(args)
        if manifest_path:
            mtext = json.dumps(self.manifest(), sort_keys=True, indent=2) + "\n"
            with open(manifest_path, "w", encoding="utf-8") as fh:
                fh.write(mtext)
        return 0


def _manifest_path(args):
    """--manifest, by default <out>.manifest.json; no manifest is written when
    it is empty or None."""
    out = getattr(args, "out", None)
    manifest = getattr(args, "manifest", None)
    return out + ".manifest.json" if manifest is None and out else manifest


def _load_complex(args, run):
    """Read --complex once: the manifest's digest is of the bytes parsed."""
    from .complexes import _parse_bytes

    with open(args.complex, "rb") as fh:
        data = fh.read()
    run.inputs["complex"] = _sha256(data)
    return _parse_bytes(data)


def _load_query(args, run):
    from .antitorus import AntiTorusQuery
    from .develop import PeriodicWord, parse_word

    p = _load_complex(args, run)
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


def _check_paths(args):
    """Refuse two path options that name one file (after symlinks), before
    anything is read or written: an output written over the input or over
    another output would leave a corrupted file behind a run that succeeds."""
    paths = {
        "--complex": getattr(args, "complex", None),
        "--out": getattr(args, "out", None),
        "the manifest": _manifest_path(args),
        "--dot": getattr(args, "dot", None),
    }
    seen = {}
    for role, path in paths.items():
        if path:
            real = os.path.realpath(path)
            if real in seen:
                raise CscwallsError(f"{seen[real]} and {role} name the same file {path!r}")
            seen[real] = role


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
    from .complexes import validate_csc

    report = validate_csc(_load_complex(args, run))
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
    from .complexes import enumerate_csc, serialize_complex

    run.params.update({"hcount": args.hcount, "vcount": args.vcount, "screen": args.screen})
    if args.screen:
        if args.format == "text":
            raise CscwallsError("--screen needs --format json: text output has no candidate lists")
        run.params.update({"screen_len": args.screen_len, "screen_limit": args.screen_limit})
        from .antitorus import screen_anti_torus
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
    from .develop import fill_rectangle, parse_word

    p = _load_complex(args, run)
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
    from .antitorus import commuting_powers_search

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
    from .antitorus import overlap_gamma

    query = _load_query(args, run)
    run.params["n"] = args.n
    run.bounds.update({"k_max": args.kmax, "i_max": args.imax})
    gamma = overlap_gamma(query, args.n, k_max=args.kmax, i_max=args.imax)
    payload = gamma.to_dict()
    payload["bounds_used"] = {"k_max": args.kmax, "i_max": args.imax}
    return run.emit(payload, args, "gamma")


def _cmd_obstruct(args, run):
    from .obstruction import obstruction_table

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
    from .obstruction import well_separation

    query = _load_query(args, run)
    run.params["n"] = args.n
    run.bounds.update({"k_max": args.kmax, "i_max": args.imax})
    result = well_separation(query, args.n, k_max=args.kmax, i_max=args.imax)
    return run.emit(result.to_dict(), args, "wellsep")


def _cmd_staircase(args, run):
    from .staircase import (
        StairParams,
        build_staircase,
        check_certifiable,
        contact_graph,
        contact_graph_dot,
        nonacyl_certificate,
    )

    params = StairParams(
        overlap_len=args.L, shift=args.r, steps=args.steps, margin=args.margin
    )
    run.params.update(params.to_dict())
    if args.p is not None:
        run.params["p"] = args.p
        check_certifiable(params, args.p)  # before the build, so a bad p costs nothing and writes nothing
    if args.p is not None or args.dot:
        graph = contact_graph(build_staircase(params))
        cert = None if args.p is None else nonacyl_certificate(params, args.p, graph=graph)
        if args.dot:
            run.write(args.dot, f"// manifest: {run.digest}\n" + contact_graph_dot(graph))
        del graph  # the certificate names its walls: encode it without them
        if cert is not None:
            return run.emit(cert.to_dict(), args, "nonacyl")
    # the summary builds no window: under the link condition a window has
    # edges - 2 * squares walls (see staircase.walls)
    counts = params.counts()
    payload = {
        "params": params.to_dict(),
        "window": counts,
        "euler_characteristic": counts["vertices"] - counts["edges"] + counts["squares"],
        "walls": counts["edges"] - 2 * counts["squares"],
        "crossing_bound": params.crossing_bound,
    }
    return run.emit(payload, args, "staircase")


def _add_common(sub):
    sub.add_argument("--out", help="write the artifact here instead of stdout")
    sub.add_argument("--manifest", help="manifest path (default: <out>.manifest.json)")


def _add_query(sub):
    sub.add_argument("--complex", required=True)
    sub.add_argument("--w1", required=True, help="horizontal periodic word")
    sub.add_argument("--w2", required=True, help="vertical periodic word")


def _add_bounds(sub):
    sub.add_argument("--bounds", default=f"{DEFAULT_BOUND},{DEFAULT_BOUND}", help="K,J power bounds")


def _add_budgets(sub):
    sub.add_argument(
        "--kmax", type=int, default=DEFAULT_K_MAX, help="cap on the columns of each orbit sweep, in periods of w1"
    )
    sub.add_argument(
        "--imax", type=int, default=DEFAULT_I_MAX, help="cap on j, the orbit length of w1^n, in periods of w2"
    )


def _args_validate(s):
    s.add_argument("--complex", required=True)


def _args_enumerate(s):
    s.add_argument("--hcount", type=int, required=True)
    s.add_argument("--vcount", type=int, required=True)
    s.add_argument("--screen", action="store_true", help="screen each entry for anti-torus candidate pairs")
    s.add_argument("--screen-len", type=int, default=2, help="max candidate word length")
    s.add_argument("--screen-limit", type=int, default=4, help="candidates reported per entry")
    s.add_argument("--format", choices=("json", "text"), default="json")


def _args_develop(s):
    s.add_argument("--complex", required=True)
    s.add_argument("--bottom", default="")
    s.add_argument("--left", default="")
    s.add_argument("--dump-cells", action="store_true")


def _args_antitorus(s):
    _add_query(s)
    _add_bounds(s)


def _args_exponent(s):
    """gamma and wellsep: a query at one exponent n."""
    _add_query(s)
    s.add_argument("--n", type=int, required=True)
    _add_budgets(s)


def _args_obstruct(s):
    _add_query(s)
    s.add_argument("--nmax", type=int, required=True)
    _add_bounds(s)
    s.add_argument("--format", choices=("json", "csv"), default="json")
    _add_budgets(s)


def _args_staircase(s, p_required=False):
    s.add_argument("--L", type=int, required=True, help="overlap length")
    s.add_argument("--r", type=int, required=True, help="step shift")
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--margin", type=int, default=1)
    s.add_argument("--p", type=int, default=None, required=p_required)
    s.add_argument("--dot", help="also write the contact graph in DOT format")


def _args_certify(s):
    _args_staircase(s, p_required=True)


#: Each subcommand, in help order: its help line, the function that adds its
#: arguments (--out and --manifest are added to all), and its handler.
_SUBCOMMANDS = {
    "validate": ("check the completeness condition of a presentation", _args_validate, _cmd_validate),
    "enumerate": ("census of one-vertex complete square complexes", _args_enumerate, _cmd_enumerate),
    "develop": ("fill a rectangle from its bottom and left words", _args_develop, _cmd_develop),
    "antitorus": ("bounded search for commuting powers", _args_antitorus, _cmd_antitorus),
    "gamma": ("overlap of the pigeonhole geodesic with the flat", _args_exponent, _cmd_gamma),
    "obstruct": ("projection-diameter table over n = 1..nmax", _args_obstruct, _cmd_obstruct),
    "wellsep": ("well-separation numbers at exponent n", _args_exponent, _cmd_wellsep),
    "staircase": ("summarize a staircase window; with --p also emit the certificate", _args_staircase, _cmd_staircase),
    "certify": ("emit the non-acylindricity certificate for the p-th translate", _args_certify, _cmd_staircase),
}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one error line and exit status 1,
    like any other input error; status 2 stays reserved for budgets.

    Options are matched by their full names only (no abbreviations), so an
    option added later cannot change what an existing command line means.
    Subparsers are built from this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser(name=None):
    """The command-line parser with every subcommand, or with subcommand
    name alone.  Everything after a subcommand's name is parsed by that
    subcommand's parser, so for a command line that starts with the name the
    two give the same result, help text and error lines; the one-subcommand
    parser spares the argument set-up of the others."""
    parser = _Parser(
        prog="cscwalls",
        description="Complete square complexes: development, overlap certificates, staircase contact graphs",
    )
    parser.add_argument("--version", action="version", version=f"cscwalls {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for sub_name, (help_text, add_arguments, _) in _SUBCOMMANDS.items():
        if name is None or sub_name == name:
            s = subs.add_parser(sub_name, help=help_text)
            add_arguments(s)
            _add_common(s)
    return parser


def main(argv=None):
    """Run one command line (default: sys.argv[1:]) and return its exit status."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None).parse_args(argv)
    _, _, handler = _SUBCOMMANDS[args.subcommand]
    run = Run(args.subcommand)
    try:
        _check_minimums(args)
        _check_paths(args)
        return handler(args, run)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        status = 2
    except (CscwallsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 1
    for path in run.outputs:  # a failed run leaves no artifact, and unlinks no symlink or device
        if os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)
    return status


if __name__ == "__main__":
    sys.exit(main())
