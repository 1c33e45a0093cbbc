#!/usr/bin/env python3
"""Generate the desk-scale corpus of cubic 3-edge-connected graphs.

Exhaustive up to isomorphism for n <= 10, grown from K4 by edge
insertion; named constructions for n in {12, 14}.  Writes one graph6
line per graph, sorted by (n, key), to data/cubic_3ec_n4_14.g6 and
prints a census table.  Takes no arguments; regeneration takes about a
second, and the tests check that it reproduces the committed file.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cubic2ec.canon import canonical_form
from cubic2ec.connectivity import edge_connectivity, is_essentially_4ec
from cubic2ec.graphs import Graph, builtin, parse_graph6

OUT = HERE.parent / "data" / "cubic_3ec_n4_14.g6"


def edge_insertion_levels(max_n: int):
    """Yield (n, keys) for n = 4, 6, ..., max_n: the sorted canonical
    graph6 keys of every cubic 3-edge-connected graph on n vertices.

    Level n + 2 subdivides two distinct edges of each level-n graph and
    joins the two new vertices.  From K4 these edge insertions reach every
    3-connected cubic graph, the basis of cubic-graph generators
    (Brinkmann, Goedgebeur and McKay, *Generation of cubic graphs*, DMTCS
    13(2), 2011), and on cubic graphs 3-connectivity and 3-edge-
    connectivity coincide.

    An insertion keeps λ >= 3, so no insertion is filtered.  Let G' be G
    with its subdivision vertices x and y joined.  A cut of G' with x and
    y on one side is δ({x, y}) (4 edges) or crosses every edge of a cut of
    G, on the edge itself or on one half of it (>= 3 edges).  A cut
    between x and y is δ({x}) or δ({y}) (3 edges), or holds xy and one
    edge for each crossing edge of a cut of G (>= 4 edges).  Each kept
    graph is still checked once, at the end of its level; a failure raises
    ValueError.
    """
    level = [canonical_form(builtin("k4"))[0]]
    yield 4, level
    for n in range(4, max_n - 1, 2):
        found = set()
        for key in level:
            es = parse_graph6(key).edges
            for i, j in combinations(range(len(es)), 2):
                (a, b), (c, d) = es[i], es[j]
                rest = es[:i] + es[i + 1:j] + es[j + 1:]
                new = ((a, n), (n, b), (c, n + 1), (n + 1, d), (n, n + 1))
                found.add(canonical_form(Graph(n + 2, rest + new))[0])
        level = sorted(found)
        for key in level:
            if edge_connectivity(parse_graph6(key)) < 3:
                raise ValueError(f"edge insertion made {key}, which has λ < 3")
        yield n + 2, level


def circular_ladder(k: int) -> Graph:
    n = 2 * k
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return Graph(n, tuple(edges))


def moebius_ladder(k: int) -> Graph:
    n = 2 * k
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, i + k) for i in range(k)]
    return Graph(n, tuple(edges))


def generalized_petersen(k: int, step: int) -> Graph:
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    inner = {tuple(sorted((k + i, k + (i + step) % k))) for i in range(k)}
    edges += sorted(inner)
    return Graph(2 * k, tuple(edges))


def heawood() -> Graph:
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(14) if i % 2 == 0]
    return Graph(14, tuple(edges))


def truncated_k4() -> Graph:
    tris = [(3 * t + i, 3 * t + (i + 1) % 3) for t in range(4) for i in range(3)]
    cross = [(0, 3), (1, 6), (2, 9), (4, 7), (5, 10), (8, 11)]
    return Graph(12, tuple(tris + cross))


def expand_vertex_to_triangle(g: Graph, v: int) -> Graph:
    """Replace vertex v by a triangle, one corner per former neighbor."""
    if g.degree(v) != 3:
        raise ValueError(f"vertex {v} has degree {g.degree(v)}, not 3")
    nbrs = sorted(g.neighbors(v))
    relabel = {}
    nxt = 0
    for w in range(g.n):
        if w != v:
            relabel[w] = nxt
            nxt += 1
    corners = [nxt, nxt + 1, nxt + 2]
    edges = [
        (relabel[a], relabel[b]) for a, b in g.edges if v not in (a, b)
    ]
    edges += [(corners[i], corners[(i + 1) % 3]) for i in range(3)]
    edges += [(relabel[w], corners[i]) for i, w in enumerate(nbrs)]
    return Graph(g.n + 2, tuple(edges))


def constructions():
    petersen = builtin("petersen")
    petersen_tri = expand_vertex_to_triangle(petersen, 0)
    yield "circular_ladder_6", circular_ladder(6)
    yield "moebius_ladder_6", moebius_ladder(6)
    yield "gen_petersen_6_2", generalized_petersen(6, 2)
    yield "truncated_k4", truncated_k4()
    yield "petersen_triangle", petersen_tri
    yield "circular_ladder_7", circular_ladder(7)
    yield "moebius_ladder_7", moebius_ladder(7)
    yield "gen_petersen_7_2", generalized_petersen(7, 2)
    yield "heawood", heawood()
    yield "petersen_double_triangle", expand_vertex_to_triangle(petersen_tri, 0)


def main():
    keys: dict[str, int] = {}
    t0 = time.process_time()
    for n, level in edge_insertion_levels(10):
        keys.update(dict.fromkeys(level, n))
        print(
            f"n={n}: {len(level)} three-edge-connected"
            f" ({time.process_time() - t0:.2f}s CPU so far)"
        )
    for name, g in constructions():
        if not g.is_cubic:
            raise ValueError(f"{name} is not cubic")
        if edge_connectivity(g) < 3:
            print(f"skipping {name}: not 3-edge-connected")
            continue
        key = canonical_form(g)[0]
        if key in keys:
            print(f"{name}: duplicate of a generated graph")
        keys[key] = g.n

    ordered = sorted(keys, key=lambda k: (keys[k], k))
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text("\n".join(ordered) + "\n")

    census = Counter()
    for key in ordered:
        g = parse_graph6(key)
        census[(g.n, is_essentially_4ec(g))] += 1
    print(f"\nwrote {len(ordered)} graphs to {OUT}")
    print("n  essentially4ec  count")
    for (n, e4), cnt in sorted(census.items()):
        print(f"{n:<3}{str(e4).lower():<16}{cnt}")


if __name__ == "__main__":
    main()
