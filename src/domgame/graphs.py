"""Graph core: immutable simple graphs, generators, components, edge
subdivision, canonical forms, automorphisms and small-order enumeration up
to isomorphism.

Vertices are dense integer indices 0..n-1.  Adjacency is kept both as sorted
tuples and as bitmasks; ``closed_mask[v]`` is N[v] (neighbors plus v itself),
which is what the domination games query constantly.

Enumeration grows each (n-1)-vertex representative P by one vertex joined
to an attachment set A, and keeps A only when (a) the new vertex has minimum
degree in the child and (b) A is the least set of its orbit under Aut(P).
Every graph arises this way (delete a minimum-degree vertex; rule (a) is
invariant under Aut(P), so the orbit's least set survives it), and canonical
keys remove the isomorphic children of different parents.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Invalid graph construction or query."""


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph: no self-loops, no parallel edges.

    Immutable after construction and safe to share across threads.
    """

    __slots__ = ("n", "m", "adj", "nbr_mask", "closed_mask", "full_mask", "_comps")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} not allowed")
            sets[u].add(v)
            sets[v].add(u)
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in sets)
        self.m = sum(len(a) for a in self.adj) // 2
        nbr = []
        closed = []
        for v in range(n):
            mask = 0
            for u in self.adj[v]:
                mask |= 1 << u
            nbr.append(mask)
            closed.append(mask | (1 << v))
        self.nbr_mask = tuple(nbr)
        self.closed_mask = tuple(closed)
        self.full_mask = (1 << n) - 1
        self._comps: tuple[tuple[int, ...], ...] | None = None

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def min_degree(self) -> int:
        return min((len(a) for a in self.adj), default=0)

    def has_isolates(self) -> bool:
        return any(not a for a in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.nbr_mask[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def component_masks(self) -> tuple[int, ...]:
        """Bitmasks of connected components, ordered by smallest member."""
        if self._comps is None:
            seen = 0
            comps = []
            for v in range(self.n):
                if seen >> v & 1:
                    continue
                frontier = 1 << v
                comp = 0
                while frontier:
                    comp |= frontier
                    nxt = 0
                    for u in bits(frontier):
                        nxt |= self.nbr_mask[u]
                    frontier = nxt & ~comp
                seen |= comp
                comps.append(comp)
            self._comps = tuple(comps)
        return self._comps

    def component_of(self, v: int) -> int:
        for mask in self.component_masks():
            if mask >> v & 1:
                return mask
        raise GraphError(f"vertex {v} out of range")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def is_connected(g: Graph) -> bool:
    return len(g.component_masks()) <= 1


def nested_pair(g: Graph) -> int | None:
    """Least v having some u != v with N[u] contained in N[v], or None.
    Coloring such a v first makes N[v] permanently bichromatic."""
    for v, cv in enumerate(g.closed_mask):
        if any(u != v and cu & ~cv == 0 for u, cu in enumerate(g.closed_mask)):
            return v
    return None


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_path(n: int) -> Graph:
    if n < 2:
        raise GraphError(f"path needs at least 2 vertices, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def gen_complete(n: int) -> Graph:
    if n < 2:
        raise GraphError(f"complete graph needs at least 2 vertices, got {n}")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def gen_petersen() -> Graph:
    """Outer 5-cycle, inner pentagram, five spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph(10, edges)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Relabel g2 by offset g1.n and take the union."""
    off = g1.n
    edges = g1.edges() + [(u + off, v + off) for u, v in g2.edges()]
    return Graph(g1.n + g2.n, edges)


@dataclass(frozen=True)
class SubdivisionMap:
    """Bookkeeping for replacing every edge wz by a path w-x-y-z.

    ``edge_points[(w, z)] = (x, y)`` with w < z; x is adjacent to w, y to z.
    Base vertices keep their ids in the subdivided graph.
    """

    base: Graph
    edge_points: dict[tuple[int, int], tuple[int, int]]

    def inner_partner(self, sub_vertex: int) -> int:
        """The other inserted vertex on the same subdivided edge."""
        for x, y in self.edge_points.values():
            if sub_vertex == x:
                return y
            if sub_vertex == y:
                return x
        raise GraphError(f"{sub_vertex} is not a subdivision vertex")

    def is_sub_vertex(self, v: int) -> bool:
        return v >= self.base.n

    def paths_at(self, base_vertex: int) -> list[tuple[int, int, int]]:
        """For each edge at base_vertex: (near subdivision vertex, far
        subdivision vertex, opposite base vertex)."""
        out = []
        for (w, z), (x, y) in self.edge_points.items():
            if w == base_vertex:
                out.append((x, y, z))
            elif z == base_vertex:
                out.append((y, x, w))
        return out


def subdivide3(g: Graph) -> tuple[Graph, SubdivisionMap]:
    """Replace every edge by a path of length 3 (two fresh inner vertices)."""
    edges = []
    points: dict[tuple[int, int], tuple[int, int]] = {}
    nxt = g.n
    for w, z in g.edges():
        x, y = nxt, nxt + 1
        nxt += 2
        points[(w, z)] = (x, y)
        edges += [(w, x), (x, y), (y, z)]
    sub = Graph(g.n + 2 * g.m, edges)
    return sub, SubdivisionMap(base=g, edge_points=points)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph plus the tuple mapping new ids to old ids."""
    old = tuple(sorted(set(vertices)))
    pos = {v: i for i, v in enumerate(old)}
    edges = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
    return Graph(len(old), edges), old


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply the permutation perm (old id -> new id) to the vertices."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("perm is not a permutation of the vertex set")
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_isolate_free(n: int, rng: random.Random) -> Graph:
    """Seeded Erdos-Renyi draw with edge probability 1/2, resampled until it
    has no isolated vertex.  A draw has one with probability at most 1/2
    (reached at n = 2 and 3), so the expected number of draws is at most 2."""
    if n < 2:
        raise GraphError("need at least 2 vertices for an isolate-free graph")
    while True:
        g = Graph(n, [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ])
        if not g.has_isolates():
            return g


# --- canonical forms and enumeration -------------------------------------

def _wl_colors(g: Graph) -> list[int]:
    """1-dimensional Weisfeiler-Leman refinement; stable color per vertex."""
    color = [g.degree(v) for v in range(g.n)]
    while True:
        sig = [
            (color[v], tuple(sorted(color[u] for u in g.adj[v])))
            for v in range(g.n)
        ]
        order = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [order[s] for s in sig]
        if new == color:
            return color
        color = new


def _swap_interchangeable(g: Graph, u: int, v: int) -> bool:
    # Swapping u and v is an automorphism iff they see the same vertices
    # apart from each other.
    return (g.nbr_mask[u] & ~(1 << v)) == (g.nbr_mask[v] & ~(1 << u))


def canonical_key(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Isomorphism-invariant key: the smallest adjacency bitstring over all
    vertex orderings compatible with the WL color classes.

    Row k of the result packs the adjacency of the k-th placed vertex against
    the previously placed ones (earliest placed = most significant bit).
    """
    n = g.n
    if n <= 1:
        return (n, ())
    color = _wl_colors(g)
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(color[v], []).append(v)
    class_order = sorted(by_color)
    pos_class = []
    for c in class_order:
        pos_class += [c] * len(by_color[c])

    best: list[int] | None = None

    def search(placed: list[int], placed_mask: int, rows: list[int], tight: bool):
        nonlocal best
        pos = len(placed)
        if pos == n:
            if best is None or rows < best:
                best = rows.copy()
            return
        cands = [v for v in by_color[pos_class[pos]] if not placed_mask >> v & 1]
        row_of = {}
        for v in cands:
            r = 0
            for u in placed:
                r = (r << 1) | (g.nbr_mask[v] >> u & 1)
            row_of[v] = r
        mn = min(row_of.values())
        if tight and best is not None:
            if mn > best[pos]:
                return
            tight = mn == best[pos]
        taken: list[int] = []
        for v in sorted(cands):
            if row_of[v] != mn:
                continue
            if any(_swap_interchangeable(g, v, u) for u in taken):
                continue
            taken.append(v)
            rows.append(mn)
            search(placed + [v], placed_mask | (1 << v), rows, tight)
            rows.pop()

    search([], 0, [], True)
    assert best is not None
    return (n, tuple(best))


def automorphisms(g: Graph, limit: int) -> list[tuple[int, ...]]:
    """Up to ``limit`` non-identity automorphisms of g, as image tuples
    (vertex v goes to ``img[v]``), in the order a depth-first search finds
    them; all of them when the group has at most ``limit + 1`` elements.

    Vertices are matched in breadth-first order, each to an unused vertex of
    its WL class (a neighbor of its parent's image, past a component's first
    vertex) whose adjacency to the vertices already placed agrees.  A
    discrete WL coloring admits only the identity.
    """
    n = g.n
    color = _wl_colors(g)
    if limit <= 0 or len(set(color)) == n:
        return []
    order: list[int] = []
    parent: dict[int, int] = {}
    nbr = g.nbr_mask
    for comp in g.component_masks():
        head = len(order)
        seen = comp & -comp
        order.append(seen.bit_length() - 1)
        while head < len(order):
            v = order[head]
            head += 1
            for u in bits(nbr[v] & ~seen):
                seen |= 1 << u
                parent[u] = v
                order.append(u)
    img = [0] * n
    found: list[tuple[int, ...]] = []

    def extend(pos: int, placed: int, used: int) -> bool:
        """Place order[pos:]; True once ``limit`` automorphisms are found."""
        if pos == n:
            if any(img[v] != v for v in range(n)):
                found.append(tuple(img))
            return len(found) >= limit
        v = order[pos]
        mapped = 0
        for u in bits(nbr[v] & placed):
            mapped |= 1 << img[u]
        cands = nbr[img[parent[v]]] if v in parent else g.full_mask
        for w in bits(cands & ~used):
            if color[w] == color[v] and nbr[w] & used == mapped:
                img[v] = w
                if extend(pos + 1, placed | 1 << v, used | 1 << w):
                    return True
        return False

    extend(0, 0, 0)
    return found


def graph_from_canonical(key: tuple[int, tuple[int, ...]]) -> Graph:
    n, rows = key
    edges = []
    for pos in range(1, n):
        r = rows[pos]
        for earlier in range(pos):
            if r >> (pos - 1 - earlier) & 1:
                edges.append((earlier, pos))
    return Graph(n, edges)


_ENUM_LIMIT = 8
_all_graphs_cache: dict[int, tuple[Graph, ...]] = {}


def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """All simple graphs on n vertices up to isomorphism, 1 <= n <= 8.

    Built by augmenting each (n-1)-vertex representative P with one fresh
    vertex joined to an attachment set A, deduplicated by canonical key.  A
    set A is augmented only when

    (a) the fresh vertex has minimum degree in the child:
        ``|A| <= deg_P(u) + [u in A]`` for every vertex u of P, and
    (b) A is the least set (as a bitmask) of its orbit under Aut(P).

    Neither rule loses a graph.  Every graph G has a minimum-degree vertex
    v; G - v is isomorphic to some representative P, and P joined to the
    image of N(v) passes (a).  Rule (a) is invariant under Aut(P), so the
    least set of that set's orbit passes both rules and yields a graph
    isomorphic to G.  The canonical key removes the duplicates left across
    parents, so the result (sorted by key) is the same as augmenting every
    subset.
    """
    if not 1 <= n <= _ENUM_LIMIT:
        raise GraphError(f"enumeration supports 1 <= n <= {_ENUM_LIMIT}, got {n}")
    if n in _all_graphs_cache:
        return _all_graphs_cache[n]
    if n == 1:
        out = (Graph(1, []),)
    else:
        seen: dict[tuple, Graph] = {}
        for parent in enumerate_graphs(n - 1):
            base_edges = parent.edges()
            deg = [len(a) for a in parent.adj]
            group = automorphisms(parent, math.factorial(parent.n))
            for attach in range(1 << (n - 1)):
                size = attach.bit_count()
                if any(size > deg[u] + (attach >> u & 1) for u in range(n - 1)):
                    continue
                if any(sum(1 << img[u] for u in bits(attach)) < attach for img in group):
                    continue
                edges = base_edges + [(u, n - 1) for u in bits(attach)]
                key = canonical_key(Graph(n, edges))
                if key not in seen:
                    seen[key] = graph_from_canonical(key)
        out = tuple(seen[k] for k in sorted(seen))
    _all_graphs_cache[n] = out
    return out


def enumerate_connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected simple graphs on n vertices up to isomorphism."""
    if not 2 <= n <= _ENUM_LIMIT:
        raise GraphError(f"connected enumeration supports 2 <= n <= {_ENUM_LIMIT}, got {n}")
    return tuple(g for g in enumerate_graphs(n) if is_connected(g))


def enumerate_isolate_free_graphs(n: int) -> tuple[Graph, ...]:
    """All isolate-free graphs (connected or not) on n vertices up to iso."""
    if not 2 <= n <= _ENUM_LIMIT:
        raise GraphError(f"isolate-free enumeration supports 2 <= n <= {_ENUM_LIMIT}, got {n}")
    return tuple(g for g in enumerate_graphs(n) if not g.has_isolates())


def corpus(spec: str) -> list[Graph]:
    """Expand a corpus specifier into graphs.

    "connected:6"       all connected graphs with 2 <= n <= 6
    "isolatefree:6"     all isolate-free graphs with 2 <= n <= 6
    "perfectmatching:6" isolate-free graphs with a perfect matching, n <= 6
    """
    try:
        kind, bound_s = spec.split(":")
        bound = int(bound_s)
    except ValueError:
        raise GraphError(f"bad corpus specifier {spec!r}") from None
    if kind not in ("connected", "isolatefree", "perfectmatching"):
        raise GraphError(f"unknown corpus kind {kind!r}")
    if bound < 2:
        raise GraphError(f"corpus bound {bound} is below 2: the corpus would be empty")
    # refuse before enumerating: a perfect matching needs an even n
    top = bound - bound % 2 if kind == "perfectmatching" else bound
    if top > _ENUM_LIMIT:
        raise GraphError(f"corpus {spec!r} needs graphs on {top} vertices; "
                         f"enumeration supports n <= {_ENUM_LIMIT}")
    out: list[Graph] = []
    if kind == "connected":
        for n in range(2, bound + 1):
            out += enumerate_connected_graphs(n)
    elif kind == "isolatefree":
        for n in range(2, bound + 1):
            out += enumerate_isolate_free_graphs(n)
    else:
        from .matching import maximum_matching

        for n in range(2, bound + 1, 2):
            for g in enumerate_isolate_free_graphs(n):
                if len(maximum_matching(g).pairs) * 2 == n:
                    out.append(g)
    return out
