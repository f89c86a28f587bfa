"""Check a cscwalls artifact against its inputs, choosing the checks by the
artifact's ``schema``.

A certify artifact (schema nonacyl) is checked against the contact graph
of its DOT file.  The checker reads the certificate JSON and the DOT text
that ``cscwalls certify --dot`` wrote, takes the graph from the DOT edge
lines ``"a" -- "b";`` alone, and checks the certificate's claims on that
graph with a breadth-first search of its own:

- family_distances and bfs_distance are the distances from family[0];
- the witness wall is adjacent to family[i] for every i < crossing_bound;
- each wall of crossing_counts is adjacent to at least that many family walls;
- crossing_bound is ceil(L/r) + 1 and lower_bound is p/crossing_bound.

These checks import nothing from cscwalls.

An antitorus artifact is checked against its manifest and its complex.  The
words are the manifest's w1 and w2, parsed by cscwalls; rectangles are
developed row by row by the test oracles (tests/oracles.py), never by the
package's sweeps:

- the complex's SHA-256 is the manifest's, the artifact's manifest_digest is
  the manifest's digest, and bounds_used are the manifest's bounds;
- anti_torus_candidate holds exactly when commuting is null;
- a commuting (k, j) lies within the bounds, the k x j rectangle of w1^k and
  w2^j closes up into a torus, and no pair before it, lexicographically,
  closes (commuting_powers_by_rectangles);
- a null agrees with commuting_powers_by_rectangles at bounds_used, which
  develops up to k_bound * j_bound rectangles, so large bounds are slow.

From the repository root:

    python3 tests/checker.py CERT.json GRAPH.dot
    python3 tests/checker.py ANTITORUS.json MANIFEST.json COMPLEX.sqc

prints nothing and exits 0 when every check passes; otherwise it prints one
line per failed check and exits 1.
"""

import hashlib
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

EDGE = re.compile(r'\s*"([^"]+)" -- "([^"]+)";')


def dot_adjacency(text):
    """Wall id -> the set of its neighbours, from the edge lines of DOT text."""
    adjacent = {}
    for line in text.splitlines():
        match = EDGE.fullmatch(line)
        if match:
            a, b = match.groups()
            adjacent.setdefault(a, set()).add(b)
            adjacent.setdefault(b, set()).add(a)
    return adjacent


def bfs(adjacent, source):
    """Hop counts from source to every wall it reaches."""
    dist = {source: 0}
    queue = [source]
    for cur in queue:
        for nxt in adjacent.get(cur, ()):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def problems(cert, dot_text):
    """A message for each claim of cert that its parameters or the DOT graph refute."""
    params, p = cert["params"], cert["p"]
    family, witness, m = cert["family"], cert["witness_wall"], cert["crossing_bound"]
    out = []
    expected = -(-params["overlap_len"] // params["shift"]) + 1
    if m != expected:
        out.append(f"crossing_bound {m} is not ceil(L/r) + 1 = {expected}")
    bound = Fraction(p, expected)
    got = cert["lower_bound"]
    if (got["numerator"], got["denominator"], got["value"]) != (bound.numerator, bound.denominator, float(bound)):
        out.append(f"lower_bound {got} is not p/M = {bound}")
    if len(family) != params["steps"] + 1 or not 1 <= p < len(family):
        return [*out, f"family of {len(family)} walls does not hold translates 0..p = {p}"]

    adjacent = dot_adjacency(dot_text)
    dist = bfs(adjacent, family[0])
    want = [[i, dist.get(family[i])] for i in range(1, p + 1)]
    if cert["family_distances"] != want:
        out.append(f"family_distances {cert['family_distances']} are not the BFS distances {want}")
    if cert["bfs_distance"] != dist.get(family[p]):
        out.append(f"bfs_distance {cert['bfs_distance']} is not the BFS distance {dist.get(family[p])}")
    near = adjacent.get(witness, set())
    out.extend(
        f"witness {witness} is not adjacent to family[{i}] {family[i]}"
        for i in range(min(expected, len(family)))
        if family[i] not in near
    )
    # two walls that cross are in contact
    members = set(family)
    out.extend(
        f"{wall} crosses {c} family walls but is adjacent to {len(adjacent.get(wall, set()) & members)}"
        for wall, c in cert["crossing_counts"].items()
        if len(adjacent.get(wall, set()) & members) < c
    )
    return out


def antitorus_problems(artifact, manifest, complex_bytes):
    """A message for each claim of an antitorus artifact that its manifest
    or the complex refutes."""
    from cscwalls import PeriodicWord, parse_complex, parse_word
    from tests.oracles import commuting_powers_by_rectangles, develop_row_major

    out = []
    if hashlib.sha256(complex_bytes).hexdigest() != manifest["inputs"]["complex"]:
        out.append("the complex's SHA-256 is not the manifest's inputs.complex")
    if artifact["manifest_digest"] != manifest["digest"]:
        out.append(f"manifest_digest {artifact['manifest_digest']} is not the manifest's digest {manifest['digest']}")
    bounds, found = artifact["bounds_used"], artifact["commuting"]
    if bounds != manifest["bounds"]:
        out.append(f"bounds_used {bounds} are not the manifest's bounds {manifest['bounds']}")
    if artifact["anti_torus_candidate"] != (found is None):
        out.append(f"anti_torus_candidate {artifact['anti_torus_candidate']} with commuting {found}")
    p = parse_complex(complex_bytes.decode("utf-8"))
    hword, vword = (PeriodicWord(parse_word(p, manifest["params"][w])) for w in ("w1", "w2"))
    query = SimpleNamespace(complex=p, hword=hword, vword=vword)
    k_bound, j_bound = bounds["k_bound"], bounds["j_bound"]
    if found is None:
        least = commuting_powers_by_rectangles(query, k_bound, j_bound)
        if least is not None:
            out.append(f"commuting is null, but the {least[0]} x {least[1]} rectangle closes up")
        return out
    k, j = found["k"], found["j"]
    if not (1 <= k <= k_bound and 1 <= j <= j_bound):
        return [*out, f"commuting ({k}, {j}) lies outside the bounds ({k_bound}, {j_bound})"]
    bottom, left = hword.power(k), vword.power(j)
    top, right = develop_row_major(p, bottom, left)
    if (tuple(top), tuple(right)) != (bottom.letters, left.letters):
        out.append(f"the {k} x {j} rectangle does not close up into a torus")
    least = commuting_powers_by_rectangles(query, k, j_bound)
    if least != (k, j):
        out.append(f"commuting ({k}, {j}) is not the least closing pair; the search finds {least}")
    return out


def main(argv):
    artifact = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    schema = artifact.get("schema")
    if schema == "cscwalls/nonacyl/v1" and len(argv) == 2:
        found = problems(artifact, Path(argv[1]).read_text(encoding="utf-8"))
    elif schema == "cscwalls/antitorus/v1" and len(argv) == 3:
        manifest = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
        found = antitorus_problems(artifact, manifest, Path(argv[2]).read_bytes())
    else:
        raise SystemExit(f"no checks for schema {schema!r} with {len(argv) - 1} more files")
    for message in found:
        print(message)
    return 1 if found else 0


if __name__ == "__main__":
    # the package and the oracles of this checkout
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    sys.exit(main(sys.argv[1:]))
