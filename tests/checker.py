"""Check a certify artifact against the contact graph of its DOT file.

Reads the certificate JSON and the DOT text that ``cscwalls certify --dot``
wrote, takes the graph from the DOT edge lines ``"a" -- "b";`` alone, and
checks the certificate's claims on that graph with a breadth-first search of
its own:

- family_distances and bfs_distance are the distances from family[0];
- the witness wall is adjacent to family[i] for every i < crossing_bound;
- each wall of crossing_counts is adjacent to at least that many family walls;
- crossing_bound is ceil(L/r) + 1 and lower_bound is p/crossing_bound.

It imports nothing from cscwalls.  From the repository root:

    python3 tests/checker.py CERT.json GRAPH.dot

prints nothing and exits 0 when every check passes; otherwise it prints one
line per failed check and exits 1.
"""

import json
import re
import sys
from fractions import Fraction

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


def main(argv):
    cert_path, dot_path = argv
    with open(cert_path, encoding="utf-8") as f:
        cert = json.load(f)
    with open(dot_path, encoding="utf-8") as f:
        found = problems(cert, f.read())
    for message in found:
        print(message)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
