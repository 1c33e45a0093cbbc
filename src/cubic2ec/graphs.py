"""Simple undirected graphs with positional edge identities.

Edge identity is positional: edge ``e`` of a graph is the ``e``-th pair in
its edge list.  Transforms never relabel edges silently; they return a
:class:`Reduction` carrying explicit provenance maps instead.

Supported text formats:

* graph6 — standard 6-bit encoding, upper triangle in column-major order,
  one graph per line, zero padding.  Edge ids follow the bit order.
* edge list — first line ``"n m"``, then ``m`` lines ``"u v"`` (0-based).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import GraphFormatError, InvariantViolation, StructuralViolation

if TYPE_CHECKING:  # pragma: no cover
    from .connectivity import Cut

GRAPH6_MAX_N = 62


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph.

    ``edges[e]`` is the pair ``(u, v)`` with ``u < v``; the position ``e``
    is the edge's id.  Construction rejects loops, parallel edges and
    out-of-range endpoints.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    _adj: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _ids: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            norm.append((u, v) if u < v else (v, u))
        ids = {}
        for i, e in enumerate(norm):
            if e in ids:
                raise ValueError(f"parallel edge {e}")
            ids[e] = i
        adj = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(norm):
            adj[u].append(i)
            adj[v].append(i)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "_adj", tuple(tuple(a) for a in adj))
        object.__setattr__(self, "_ids", ids)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def incident(self, v: int) -> tuple[int, ...]:
        """Edge ids incident to vertex v, in ascending order."""
        return self._adj[v]

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.edges[e]

    def other_end(self, e: int, v: int) -> int:
        u, w = self.edges[e]
        return w if v == u else u

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self.other_end(e, v) for e in self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._ids

    def edge_id(self, u: int, v: int) -> int:
        return self._ids[(min(u, v), max(u, v))]

    @property
    def is_cubic(self) -> bool:
        return self.n >= 4 and all(len(a) == 3 for a in self._adj)

    def edges_adjacent_to(self, e: int) -> tuple[int, ...]:
        """Edge ids sharing an endpoint with edge e (excluding e itself)."""
        u, v = self.edges[e]
        out = [f for f in self._adj[u] if f != e]
        out += [f for f in self._adj[v] if f != e]
        return tuple(sorted(set(out)))


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a Graph.

    Edge ids follow the graph6 bit order (columns j=1..n-1, rows i<j).
    Raises :class:`GraphFormatError` with a byte offset on malformed input.
    """
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise GraphFormatError("empty graph6 line", offset=0)
    data = []
    for i, ch in enumerate(line):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise GraphFormatError(f"character {ch!r} outside graph6 range", offset=i)
        data.append(val)
    if data[0] == 63:
        raise GraphFormatError(
            f"multi-byte vertex counts (n > {GRAPH6_MAX_N}) not supported", offset=0
        )
    n = data[0]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - 1 != nbytes:
        raise GraphFormatError(
            f"expected {nbytes} payload bytes for n={n}, got {len(data) - 1}",
            offset=min(len(line) - 1, nbytes),
        )
    bits = []
    for val in data[1:]:
        bits.extend((val >> k) & 1 for k in (5, 4, 3, 2, 1, 0))
    for j in range(nbits, len(bits)):
        if bits[j]:
            raise GraphFormatError("nonzero padding bits", offset=1 + j // 6)
    edges = []
    k = 0
    for col in range(1, n):
        for row in range(col):
            if bits[k]:
                edges.append((row, col))
            k += 1
    try:
        return Graph(n, tuple(edges))
    except ValueError as exc:  # unreachable for well-formed graph6; defensive
        raise GraphFormatError(str(exc), offset=0)


def to_graph6(g: Graph) -> str:
    """Encode a Graph as a graph6 line with canonical zero padding."""
    if g.n < 1:
        raise ValueError("graph6 requires n >= 1")
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 encoding limited to n <= {GRAPH6_MAX_N}")
    bits = []
    for col in range(1, g.n):
        for row in range(col):
            bits.append(1 if g.has_edge(row, col) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text format: first line "n m", then m lines "u v"."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError(f"non-integer header {lines[0]!r}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphFormatError(f"non-integer edge line {ln!r}")
    try:
        return Graph(n, tuple(edges))
    except ValueError as exc:
        raise GraphFormatError(str(exc))


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# named graphs
# ---------------------------------------------------------------------------


def builtin(name: str) -> Graph:
    """Return a named graph with a fixed documented labeling.

    * ``k4`` — complete graph, vertices 0..3.
    * ``k33`` — complete bipartite, parts {0,1,2} and {3,4,5}.
    * ``prism`` — triangles (0,1,2) and (3,4,5), matching i—i+3.
    * ``petersen`` — outer cycle 0..4, spokes i—i+5, inner pentagram
      5+i — 5+((i+2) mod 5).
    """
    key = name.strip().lower()
    if key == "k4":
        return Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    if key == "k33":
        return Graph(6, tuple((i, j) for i in range(3) for j in range(3, 6)))
    if key == "prism":
        return Graph(
            6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5))
        )
    if key == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return Graph(10, tuple(outer + spokes + inner))
    raise ValueError(f"unknown builtin graph {name!r} (try k4, k33, prism, petersen)")


BUILTIN_NAMES = ("k4", "k33", "prism", "petersen")


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reduction:
    """A structural transform from ``parent`` to a smaller cubic ``child``.

    ``edge_provenance[ce]`` lists the parent edges that child edge ``ce``
    stands for: a single edge for untouched edges, the underlying path for
    an edge produced by smoothing; no provenance edge is in
    ``forced_exclude``.  ``vertex_map[v]`` is the child vertex for parent
    vertex ``v`` (None if suppressed or contracted away).
    """

    kind: str  # "case1_removal" | "case2_contraction"
    parent: Graph
    child: Graph
    edge_provenance: tuple[tuple[int, ...], ...]
    forced_include: frozenset[int]
    forced_exclude: frozenset[int]
    vertex_map: tuple[int | None, ...]
    pseudo_vertex: int | None = None
    cut_correspondence: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.forced_include & self.forced_exclude:
            raise ValueError("forced_include and forced_exclude overlap")
        seen: set[int] = set()
        for path in self.edge_provenance:
            for pe in path:
                if pe in seen:
                    raise ValueError(f"parent edge {pe} in two provenance lists")
                seen.add(pe)
        if seen & self.forced_exclude:
            raise ValueError(
                f"provenance edges {sorted(seen & self.forced_exclude)} are "
                "also forced_exclude"
            )
        covered = seen | self.forced_include | self.forced_exclude
        if covered != set(range(self.parent.m)):
            raise ValueError("provenance does not cover the parent edge set")


def remove_edges_and_smooth(g: Graph, e1: int, e2: int) -> Reduction:
    """Delete two non-adjacent edges and suppress the degree-2 vertices.

    The child is cubic and simple, with n-4 vertices and m-6 edges.  The
    edges adjacent to the removed pair are recorded as forced_include; the
    removed pair is forced_exclude.  Raises StructuralViolation if a
    suppression would create a loop or parallel edge (the pair was unsafe).
    """
    if not g.is_cubic:
        raise ValueError("remove_edges_and_smooth requires a cubic graph")
    for e in (e1, e2):
        if not 0 <= e < g.m:
            raise ValueError(f"edge id {e} must lie in [0, {g.m})")
    if e1 == e2:
        raise ValueError("the two removed edges must be distinct")
    p1 = set(g.endpoints(e1))
    p2 = set(g.endpoints(e2))
    if p1 & p2:
        raise ValueError("the two removed edges must not share an endpoint")
    removed = {e1, e2}
    deg2 = sorted(p1 | p2)
    deg2set = set(deg2)

    survivors = [v for v in range(g.n) if v not in deg2set]
    vmap = {old: new for new, old in enumerate(survivors)}

    child_edges: list[tuple[int, int]] = []
    provenance: list[tuple[int, ...]] = []
    for pe, (u, v) in enumerate(g.edges):
        if pe in removed or u in deg2set or v in deg2set:
            continue
        child_edges.append((vmap[u], vmap[v]))
        provenance.append((pe,))

    # Walk the maximal paths through suppressed vertices.  Each path is
    # replaced by a single child edge between its surviving endpoints.
    def walk(start: int, first_edge: int) -> tuple[int, list[int]]:
        path = [first_edge]
        prev, cur = start, g.other_end(first_edge, start)
        while cur in deg2set:
            nxt = [
                f
                for f in g.incident(cur)
                if f not in removed and g.other_end(f, cur) != prev
            ]
            if not nxt:  # pragma: no cover - impossible in a simple cubic graph
                raise StructuralViolation("smoothing walk dead-ends")
            path.append(nxt[0])
            prev, cur = cur, g.other_end(nxt[0], cur)
            if cur == start:
                raise StructuralViolation("smoothing would contract a cycle of degree-2 vertices")
        return cur, path

    merged: list[tuple[tuple[int, int], tuple[int, ...]]] = []
    done: set[int] = set()
    for s in deg2:
        if s in done:
            continue
        rem = [f for f in g.incident(s) if f not in removed]
        if len(rem) != 2:
            raise InvariantViolation(
                f"suppressed vertex {s} keeps {len(rem)} edges, expected 2"
            )
        end_a, path_a = walk(s, rem[0])
        end_b, path_b = walk(s, rem[1])
        chain = list(reversed(path_a)) + path_b
        # mark every suppressed vertex on the chain as handled
        for f in chain:
            for w in g.endpoints(f):
                if w in deg2set:
                    done.add(w)
        if end_a == end_b:
            raise StructuralViolation(
                f"smoothing would create a loop at vertex {end_a}"
            )
        x, y = (end_a, end_b) if end_a < end_b else (end_b, end_a)
        if x == end_a:
            ordered = tuple(chain)
        else:
            ordered = tuple(reversed(chain))
        if g.has_edge(x, y):
            raise StructuralViolation(
                f"smoothing would create an edge parallel to existing ({x}, {y})"
            )
        if any(pair == (vmap[x], vmap[y]) for pair, _ in merged):
            raise StructuralViolation(
                f"two smoothed paths both produce edge ({x}, {y})"
            )
        merged.append(((vmap[x], vmap[y]), ordered))

    merged.sort(key=lambda t: t[0])
    for pair, path in merged:
        child_edges.append(pair)
        provenance.append(path)

    forced_include = frozenset(
        f
        for v in deg2
        for f in g.incident(v)
        if f not in removed
    )
    if forced_include != {f for _, path in merged for f in path}:
        raise InvariantViolation(
            "forced edges differ from the smoothed path edges"
        )

    child = Graph(len(survivors), tuple(child_edges))
    if not child.is_cubic:
        raise InvariantViolation("smoothing must yield a cubic child")
    if child.n != g.n - 4 or child.m != g.m - 6:
        raise InvariantViolation(
            f"smoothing must remove 4 vertices and 6 edges "
            f"(got n={child.n}, m={child.m} from n={g.n}, m={g.m})"
        )

    return Reduction(
        kind="case1_removal",
        parent=g,
        child=child,
        edge_provenance=tuple(provenance),
        forced_include=forced_include,
        forced_exclude=frozenset(removed),
        vertex_map=tuple(vmap.get(v) for v in range(g.n)),
    )


def contract_shore(g: Graph, cut: "Cut", side: str) -> Reduction:
    """Contract one shore of an essential 3-edge cut to a pseudo-vertex.

    ``side="inside"`` keeps the cut's shore, ``side="outside"`` keeps the
    complement.  The pseudo-vertex gets the last child index; the three
    child edges at it correspond one-to-one with the parent cut edges
    (``cut_correspondence``).
    """
    if side not in ("inside", "outside"):
        raise ValueError("side must be 'inside' or 'outside'")
    if not g.is_cubic:
        raise ValueError("contract_shore requires a cubic graph")
    shore = set(cut.shore)
    if not shore or not shore < set(range(g.n)):
        raise ValueError("cut shore must be a proper nonempty vertex subset")
    crossing = [
        e for e, (u, v) in enumerate(g.edges) if (u in shore) != (v in shore)
    ]
    if tuple(crossing) != tuple(sorted(cut.crossing)):
        raise ValueError("cut crossing set is inconsistent with its shore")
    if len(crossing) != 3:
        raise ValueError("contract_shore requires a 3-edge cut")
    other = set(range(g.n)) - shore
    for part in (shore, other):
        if len(part) < 2 or not any(
            u in part and v in part for u, v in g.edges
        ):
            raise ValueError("cut is not essential")
    ends = [w for e in crossing for w in g.endpoints(e)]
    if len(set(ends)) != 6:
        raise ValueError("the three cut edges must have six distinct endpoints")

    kept = sorted(shore if side == "inside" else other)
    keptset = set(kept)
    vmap = {old: new for new, old in enumerate(kept)}
    pseudo = len(kept)

    child_edges: list[tuple[int, int]] = []
    provenance: list[tuple[int, ...]] = []
    correspondence: list[tuple[int, int]] = []
    for pe, (u, v) in enumerate(g.edges):
        inside_u, inside_v = u in keptset, v in keptset
        if inside_u and inside_v:
            child_edges.append((vmap[u], vmap[v]))
            provenance.append((pe,))
        elif inside_u or inside_v:
            w = u if inside_u else v
            correspondence.append((len(child_edges), pe))
            child_edges.append((vmap[w], pseudo))
            provenance.append((pe,))
        # edges entirely on the contracted side vanish from this child

    child = Graph(len(kept) + 1, tuple(child_edges))
    if not child.is_cubic:
        raise InvariantViolation("contraction must yield a cubic child")

    # provenance covers only the kept side plus the cut; pad the Reduction
    # coverage check by marking the vanished edges as excluded-for-this-child.
    seen = {pe for path in provenance for pe in path}
    vanished = frozenset(set(range(g.m)) - seen)
    return Reduction(
        kind="case2_contraction",
        parent=g,
        child=child,
        edge_provenance=tuple(provenance),
        forced_include=frozenset(),
        forced_exclude=vanished,
        vertex_map=tuple(vmap.get(v) for v in range(g.n)),
        pseudo_vertex=pseudo,
        cut_correspondence=tuple(correspondence),
    )
