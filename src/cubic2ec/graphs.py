"""Simple undirected graphs with positional edge identities.

Edge identity is positional: edge ``e`` of a graph is the ``e``-th pair in
its edge list.  Transforms never relabel edges silently; they return a
:class:`Reduction` carrying explicit provenance maps instead.

Supported text formats:

* graph6 — standard 6-bit encoding, upper triangle in column-major order,
  one graph per line, zero padding.  Edge ids follow the bit order, which
  only :func:`graph6_bits` encodes; ``canon`` builds its leaf encodings
  with it and its keys with :func:`render_graph6`.
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
    out-of-range endpoints.  ``is_cubic`` (n >= 4 and every degree 3) is
    decided once, at construction.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    _adj: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _ids: dict = field(init=False, repr=False, compare=False, default=None)
    is_cubic: bool = field(init=False, repr=False, compare=False, default=False)

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
        object.__setattr__(
            self, "is_cubic", self.n >= 4 and all(len(a) == 3 for a in adj)
        )

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


def graph6_bits(n: int, edges, at) -> int:
    """The graph6 adjacency bits of an n-vertex graph as one integer, with
    vertex v at position ``at[v]``.

    Edge {u, v} at positions p < q sets bit ``n(n-1)/2 - 1 - (q(q-1)/2 + p)``,
    one shift per edge: the first bit of the graph6 string is the most
    significant, so comparing these integers compares the adjacency strings.
    """
    top = n * (n - 1) // 2 - 1
    bits = 0
    for u, v in edges:
        p, q = at[u], at[v]
        if p > q:
            p, q = q, p
        bits |= 1 << (top - (q * (q - 1) // 2 + p))
    return bits


def render_graph6(n: int, bits: int) -> str:
    """The graph6 line of :func:`graph6_bits` ``bits`` on n vertices, zero
    padded to whole 6-bit groups."""
    if n < 1:
        raise ValueError("graph6 requires n >= 1")
    if n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 encoding limited to n <= {GRAPH6_MAX_N}")
    nbits = n * (n - 1) // 2
    groups = (nbits + 5) // 6
    bits <<= 6 * groups - nbits
    return chr(n + 63) + "".join(
        [chr(((bits >> (6 * k)) & 63) + 63) for k in range(groups - 1, -1, -1)]
    )


def to_graph6(g: Graph) -> str:
    """Encode a Graph as a graph6 line with canonical zero padding."""
    return render_graph6(g.n, graph6_bits(g.n, g.edges, range(g.n)))


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
    cut_correspondence: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        m, provenance = self.parent.m, self.edge_provenance
        ids = [*self.forced_include, *self.forced_exclude]
        ids += [pe for path in provenance for pe in path]
        if any(type(e) is not int or not 0 <= e < m for e in ids):  # bools too
            raise ValueError("provenance does not cover the parent edge set")
        _check_provenance(m, provenance, self.forced_include, self.forced_exclude)


def _check_provenance(m: int, provenance, include: frozenset, exclude):
    """The Reduction's checks on edge masks, for ids that are ints in [0, m),
    each of ``exclude`` once: forced_include and forced_exclude are disjoint,
    and the provenance lists and forced_exclude hold each parent edge at
    most once and, with forced_include, all of them."""
    if not include.isdisjoint(exclude):
        raise ValueError("forced_include and forced_exclude overlap")
    # the sum of the provenance bits is their OR iff no edge is in two lists
    bits = [1 << pe for path in provenance for pe in path]
    seen = sum(bits)
    if seen.bit_count() != len(bits):
        twice = next(b for i, b in enumerate(bits) if b in bits[:i]).bit_length() - 1
        raise ValueError(f"parent edge {twice} in two provenance lists")
    gone = sum(1 << e for e in exclude)
    if seen & gone:
        both = [e for e in sorted(exclude) if seen >> e & 1]
        raise ValueError(f"provenance edges {both} are also forced_exclude")
    missing = ((1 << m) - 1) ^ (seen | gone)
    if missing and missing & ~sum(1 << e for e in include):
        raise ValueError("provenance does not cover the parent edge set")


def remove_edges_and_smooth(g: Graph, e1: int, e2: int) -> Reduction:
    """Delete two non-adjacent edges and suppress the degree-2 vertices.

    The child is cubic and simple, with n-4 vertices and m-6 edges.  Its
    edges are the untouched parent edges in parent order, then one edge
    per smoothed path in ascending order of the path's surviving ends
    (x, y), x < y, whose provenance lists the path's edges from x to y.
    The path edges, the edges adjacent to the removed pair, are
    forced_include; the removed pair is forced_exclude.  Raises
    StructuralViolation if a suppression would create a loop or parallel
    edge (the pair was unsafe).

    The child, its provenance and forced_include come from the private
    kernel ``_smooth``, which makes every check, the Reduction's own
    included; the certifier calls the kernel and builds no Reduction.
    """
    child, provenance, forced = _smooth(g, e1, e2)
    gone = {*g.edges[e1], *g.edges[e2]}
    survivors = iter(range(child.n))
    return Reduction(
        kind="case1_removal",
        parent=g,
        child=child,
        edge_provenance=provenance,
        forced_include=forced,
        forced_exclude=frozenset((e1, e2)),
        vertex_map=tuple(None if v in gone else next(survivors) for v in range(g.n)),
    )


def _smooth(g: Graph, e1: int, e2: int):
    """The body of :func:`remove_edges_and_smooth`: ``(child,
    edge_provenance, forced_include)``.

    Makes every check that function and :class:`Reduction` make, with the
    same exceptions and messages, the Reduction's in the one
    ``_check_provenance`` it calls.
    """
    if not g.is_cubic:
        raise ValueError("remove_edges_and_smooth requires a cubic graph")
    m = g.m
    for e in (e1, e2):
        if type(e) is not int or not 0 <= e < m:  # a bool is no edge id
            raise ValueError(f"edge id {e} must lie in [0, {m})")
    if e1 == e2:
        raise ValueError("the two removed edges must be distinct")
    edges, adj = g.edges, g._adj
    p1, p2 = edges[e1], edges[e2]
    if p1[0] in p2 or p1[1] in p2:
        raise ValueError("the two removed edges must not share an endpoint")
    removed = (e1, e2)
    suppressed = {*p1, *p2}
    survivors = [v for v in range(g.n) if v not in suppressed]
    vmap = {old: new for new, old in enumerate(survivors)}

    # The untouched parent edges, in parent order, then one child edge per
    # smoothed path.  Each path is walked once from each of its surviving
    # ends, taking its boundary edges in parent order, and kept from the
    # smaller end.
    touched = {f for v in suppressed for f in adj[v]}
    kept = [pe for pe in range(m) if pe not in touched]
    ends = [(vmap[edges[pe][0]], vmap[edges[pe][1]]) for pe in kept]
    provenance = [(pe,) for pe in kept]
    through = {}  # the two edges each suppressed vertex keeps
    for y in suppressed:
        through[y] = [f for f in adj[y] if f not in removed]
        if len(through[y]) != 2:
            raise InvariantViolation(f"suppressed vertex {y} has no single onward edge")
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    walked: set[int] = set()
    for pe in sorted(touched):
        u, v = edges[pe]
        if u in suppressed:
            if v in suppressed:
                continue  # a removed edge, or one inside a smoothed path
            x, y = v, u
        else:
            x, y = u, v
        path = [pe]
        while y in suppressed:
            walked.add(y)
            f, h = through[y]
            if f == path[-1]:
                f = h
            path.append(f)
            a, b = edges[f]
            y = b if a == y else a
        if y == x:
            raise StructuralViolation(f"smoothing would create a loop at vertex {x}")
        if x < y:
            if (x, y) in g._ids:
                raise StructuralViolation(
                    f"smoothing would create an edge parallel to existing ({x}, {y})"
                )
            if (x, y) in paths:
                raise StructuralViolation(f"two smoothed paths both produce edge ({x}, {y})")
            paths[x, y] = tuple(path)
    if walked != suppressed:
        raise StructuralViolation("smoothing would contract a cycle of degree-2 vertices")
    for (x, y), path in sorted(paths.items()):
        ends.append((vmap[x], vmap[y]))
        provenance.append(path)
    forced = frozenset([f for path in paths.values() for f in path])

    child = Graph(len(survivors), tuple(ends))
    if not child.is_cubic:
        raise InvariantViolation("smoothing must yield a cubic child")
    if child.n != g.n - 4 or child.m != m - 6:
        raise InvariantViolation(
            f"smoothing must remove 4 vertices and 6 edges "
            f"(got n={child.n}, m={child.m} from n={g.n}, m={m})"
        )

    _check_provenance(m, provenance, forced, removed)
    return child, tuple(provenance), forced


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
    # Summing degrees over a side P of a 3-edge cut in a cubic graph gives
    # 3|P| = 2 (edges inside P) + 3, so P has an inside edge iff |P| >= 2.
    other = set(range(g.n)) - shore
    if len(shore) < 2 or len(other) < 2:
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
        cut_correspondence=tuple(correspondence),
    )
