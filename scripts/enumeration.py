"""Exhaustive generation of small connected cubic graphs up to isomorphism.

Backtracking over the first deficient vertex with the neighborhood of
vertex 0 pinned to {1, 2, 3}; duplicates are removed via canonical forms.
Feasible for n <= 10 on a desk machine; the corpus script uses named
constructions beyond that.  Used only by ``make_corpus.py``; import it with
``src`` on the path.
"""

from __future__ import annotations

from itertools import combinations

from cubic2ec.canon import canonical_form
from cubic2ec.graphs import Graph, parse_graph6


def _connected(n: int, adj: list[set[int]]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_cubic_graphs(n: int) -> list[Graph]:
    """All connected cubic graphs on n vertices, one per isomorphism class,
    sorted by canonical graph6 key."""
    if n < 4 or n % 2:
        return []
    adj: list[set[int]] = [set() for _ in range(n)]
    deg = [0] * n
    edges: list[tuple[int, int]] = []
    found: dict[str, None] = {}

    def add(u, v):
        adj[u].add(v)
        adj[v].add(u)
        deg[u] += 1
        deg[v] += 1
        edges.append((u, v))

    def pop():
        u, v = edges.pop()
        adj[u].discard(v)
        adj[v].discard(u)
        deg[u] -= 1
        deg[v] -= 1

    def rec():
        v = next((w for w in range(n) if deg[w] < 3), None)
        if v is None:
            if _connected(n, adj):
                g = Graph(n, tuple(edges))
                key, _ = canonical_form(g)
                found.setdefault(key)
            return
        need = 3 - deg[v]
        candidates = [u for u in range(v + 1, n) if deg[u] < 3 and u not in adj[v]]
        if len(candidates) < need:
            return
        for group in combinations(candidates, need):
            for u in group:
                add(v, u)
            rec()
            for _ in group:
                pop()

    for u in (1, 2, 3):
        add(0, u)
    rec()
    return [parse_graph6(key) for key in sorted(found)]
