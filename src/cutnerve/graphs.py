"""Graph families and independent-set machinery.

Vertices are dense integer indices 0..n-1; every vertex carries a display
label (cycle vertices "1".."n", ladder vertices "1+", "1-", subset vertices
"{1,4}").  All algorithms run on the indices, labels exist for reports and
for identifying vertices across derived constructions.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb

from .errors import InvalidParameterError


class Graph:
    """Immutable undirected graph with labeled vertices.

    ``adj[i]`` is the frozenset of neighbors of vertex i.  The adjacency is
    validated to be symmetric and irreflexive on construction.
    """

    __slots__ = ("labels", "adj", "_masks")

    def __init__(self, labels: list[str] | tuple[str, ...], edges):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise InvalidParameterError("vertex labels must be unique")
        n = len(labels)
        nbrs = [set() for _ in range(n)]
        for e in edges:
            i, j = e
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidParameterError(f"edge {e} references unknown vertex")
            if i == j:
                raise InvalidParameterError(f"self-loop at vertex {i}")
            nbrs[i].add(j)
            nbrs[j].add(i)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "adj", tuple(frozenset(s) for s in nbrs))
        object.__setattr__(self, "_masks", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def n(self) -> int:
        return len(self.labels)

    def edges(self) -> list[tuple[int, int]]:
        return sorted((i, j) for i in range(self.n) for j in self.adj[i] if i < j)

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, i: int) -> int:
        return len(self.adj[i])

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.adj[i]

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbor bitmasks, built lazily; used by the set enumerators."""
        if self._masks is None:
            masks = tuple(sum(1 << j for j in self.adj[i]) for i in range(self.n))
            object.__setattr__(self, "_masks", masks)
        return self._masks

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.labels == other.labels
            and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.labels, self.adj))

    def __repr__(self):
        return f"Graph({self.n} vertices, {self.edge_count()} edges)"

    def to_json(self) -> str:
        """Canonical JSON: vertices in lexicographic label order, edges sorted."""
        order = sorted(range(self.n), key=lambda i: self.labels[i])
        pos = {v: p for p, v in enumerate(order)}
        edges = sorted(tuple(sorted((pos[i], pos[j]))) for i, j in self.edges())
        doc = {"vertices": [self.labels[i] for i in order], "edges": [list(e) for e in edges]}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "Graph":
        doc = json.loads(text)
        return Graph(doc["vertices"], [tuple(e) for e in doc["edges"]])


# ---------------------------------------------------------------------------
# graph families
# ---------------------------------------------------------------------------

def cycle(n: int) -> Graph:
    """The n-cycle on vertices 1..n."""
    if n < 3:
        raise InvalidParameterError(f"cycle requires n >= 3, got {n}")
    labels = [str(i + 1) for i in range(n)]
    return Graph(labels, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError(f"complete requires n >= 1, got {n}")
    return Graph([str(i + 1) for i in range(n)], combinations(range(n), 2))


def star(n: int) -> Graph:
    """Star with center "c" and n leaves labeled 1..n."""
    if n < 1:
        raise InvalidParameterError(f"star requires n >= 1, got {n}")
    labels = ["c"] + [str(i) for i in range(1, n + 1)]
    return Graph(labels, [(0, i) for i in range(1, n + 1)])


def squared_cycle(n: int) -> Graph:
    """Cycle plus distance-2 chords; needs n >= 5 so the two edge orbits differ."""
    if n < 5:
        raise InvalidParameterError(f"squared cycle requires n >= 5, got {n}")
    labels = [str(i + 1) for i in range(n)]
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 2) % n) for i in range(n)]
    return Graph(labels, edges)


def _two_level_labels(n: int) -> list[str]:
    labels = []
    for i in range(1, n + 1):
        labels.append(f"{i}+")
        labels.append(f"{i}-")
    return labels


def prism(n: int) -> Graph:
    """Two copies of the complete graph on 1..n joined by rungs i+ i-."""
    if n < 2:
        raise InvalidParameterError(f"prism requires n >= 2, got {n}")
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            edges.append((2 * i, 2 * j))
            edges.append((2 * i + 1, 2 * j + 1))
        edges.append((2 * i, 2 * i + 1))
    return Graph(_two_level_labels(n), edges)


def circular_ladder(n: int) -> Graph:
    """Outer cycle on i+, inner cycle on i-, rungs i+ i-; 3-regular on 2n vertices."""
    if n < 3:
        raise InvalidParameterError(f"circular ladder requires n >= 3, got {n}")
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges.append((2 * i, 2 * j))
        edges.append((2 * i + 1, 2 * j + 1))
        edges.append((2 * i, 2 * i + 1))
    return Graph(_two_level_labels(n), edges)


def kneser(n: int, k: int) -> Graph:
    """KG(n, k): the induced k-independent graph of the edgeless graph on
    [n], so the vertices are all k-subsets and edges join disjoint ones."""
    if k < 1 or k > n:
        raise InvalidParameterError(f"kneser requires n >= k >= 1, got ({n}, {k})")
    return induced_k_independent(Graph([str(i + 1) for i in range(n)], []), k)


def stable_kneser(n: int, k: int) -> Graph:
    """SG(n, k) = I_k(C_n): the induced k-independent graph of the ring on
    [n], so the vertices are the 2-stable k-subsets.  The ring is the
    n-cycle, one edge at n = 2 and no edge at n = 1.

    For 1 < n < 2k there are no 2-stable k-subsets and the empty graph is
    returned; callers can treat zero vertices as the void signal.
    """
    if k < 1 or n < 1:
        raise InvalidParameterError(f"stable_kneser requires n, k >= 1, got ({n}, {k})")
    ring = cycle(n) if n >= 3 else Graph([str(i + 1) for i in range(n)], [(0, 1)] if n == 2 else [])
    return induced_k_independent(ring, k)


# ---------------------------------------------------------------------------
# independent sets
# ---------------------------------------------------------------------------

def independent_sets(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All independent sets of exactly k vertices, as sorted index tuples in
    lexicographic order.  Backtracks over sorted indices with adjacency
    bitmask pruning."""
    if k < 0:
        raise InvalidParameterError(f"k must be >= 0, got {k}")
    if k == 0:
        return [()]
    masks = g.adjacency_masks()
    n = g.n
    out: list[tuple[int, ...]] = []
    stack: list[int] = []

    def extend(start: int, forbidden: int):
        need = k - len(stack)
        # not enough vertices left to finish
        if n - start < need:
            return
        for v in range(start, n):
            if (forbidden >> v) & 1:
                continue
            stack.append(v)
            if len(stack) == k:
                out.append(tuple(stack))
            else:
                extend(v + 1, forbidden | masks[v])
            stack.pop()

    extend(0, 0)
    return out


def induced_k_independent(g: Graph, k: int) -> Graph:
    """Graph on the independent k-sets of ``g``, joined when disjoint.

    Vertex labels are the set labels built from the base labels, e.g.
    "{1+,2-}".  The graph may have zero vertices.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    sets = independent_sets(g, k)
    labels = [set_label(g, s) for s in sets]
    frozen = [frozenset(s) for s in sets]
    edges = [
        (a, b)
        for a in range(len(frozen))
        for b in range(a + 1, len(frozen))
        if not frozen[a] & frozen[b]
    ]
    return Graph(labels, edges)


def set_label(g: Graph, indices) -> str:
    """Label for a vertex set of ``g``, members listed in index order."""
    return "{" + ",".join(g.labels[i] for i in sorted(indices)) + "}"


def isomorphism_witness_valid(g: Graph, h: Graph, mapping: dict[int, int]) -> bool:
    """Check a claimed witness: bijective and edge-preserving both ways."""
    if sorted(mapping) != list(range(g.n)) or sorted(mapping.values()) != list(range(h.n)):
        return False
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.has_edge(i, j) != h.has_edge(mapping[i], mapping[j]):
                return False
    return True


def stable_kneser_facet_count(n: int, k: int) -> int:
    """Number of 2-stable k-subsets of [n]: (n / (n - k)) * C(n - k, k)."""
    if n <= k:
        return 0
    num = n * comb(n - k, k)
    assert num % (n - k) == 0
    return num // (n - k)
