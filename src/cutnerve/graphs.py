"""Graph families and independent-set machinery.

Vertices are dense integer indices 0..n-1; every vertex carries a display
label (cycle vertices "1".."n", ladder vertices "1+", "1-", subset vertices
"{1,4}").  All algorithms run on the indices, labels exist for reports and
for identifying vertices across derived constructions.  A graph is built
from its labels and one neighbor bitmask per vertex, the form it stores:
the families write their masks directly, and I_k(G) is
``Graph(*k_independent_masks(g, k))``.
"""

from __future__ import annotations

import json
from functools import reduce
from math import comb
from operator import or_

from .complexes import face_budget, permute_mask
from .errors import InvalidParameterError, ResourceLimitError
from .values import Value


class Graph(Value, caches=("_sets",)):
    """Immutable undirected graph with labeled vertices, built from its
    stored form: one neighbor bitmask per vertex.  Duplicate labels, a mask
    count other than n, and a mask that is no int (a bool included), is
    negative, reaches a bit at or above n, holds its own vertex or names a
    neighbor whose mask does not name it back raise InvalidParameterError.
    ``_sets`` caches ``independent_sets`` by k.
    """

    __slots__ = ("labels", "_masks", "_sets")

    def __init__(self, labels: list[str] | tuple[str, ...], masks):
        labels, masks = tuple(labels), tuple(masks)
        n = len(labels)
        if len(set(labels)) != n:
            raise InvalidParameterError("vertex labels must be unique")
        if len(masks) != n or any(type(m) is not int or not 0 <= m < 1 << n or m >> v & 1
                                  for v, m in enumerate(masks)):
            raise InvalidParameterError("masks must be one neighbor mask per vertex, on the other vertices")
        # each neighbor j of v must name v back: one step per set bit, O(n + E)
        for v, m in enumerate(masks):
            while m:
                j = m.bit_length() - 1
                m ^= 1 << j
                if not masks[j] >> v & 1:
                    raise InvalidParameterError("neighbor masks must be symmetric")
        super().__init__(labels, masks, {})

    @property
    def n(self) -> int:
        return len(self.labels)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, m in enumerate(self._masks) for j in range(i + 1, m.bit_length()) if m >> j & 1]

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self._masks)) // 2

    def degree(self, i: int) -> int:
        return self._masks[i].bit_count()

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbor bitmasks: the stored form."""
        return self._masks

    def __repr__(self):
        return f"Graph({self.n} vertices, {self.edge_count()} edges)"

    def to_json(self) -> str:
        """Canonical JSON: vertices in lexicographic label order, edges sorted."""
        order = sorted(range(self.n), key=lambda i: self.labels[i])
        pos = {v: p for p, v in enumerate(order)}
        edges = sorted(tuple(sorted((pos[i], pos[j]))) for i, j in self.edges())
        doc = {"vertices": [self.labels[i] for i in order], "edges": [list(e) for e in edges]}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# graph families
# ---------------------------------------------------------------------------

def cycle(n: int) -> Graph:
    """The n-cycle on vertices 1..n."""
    if n < 3:
        raise InvalidParameterError(f"cycle requires n >= 3, got {n}")
    return Graph([str(v + 1) for v in range(n)], [1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError(f"complete requires n >= 1, got {n}")
    return Graph([str(v + 1) for v in range(n)], [(1 << n) - 1 ^ 1 << v for v in range(n)])


def star(n: int) -> Graph:
    """Star with center "c" and n leaves labeled 1..n."""
    if n < 1:
        raise InvalidParameterError(f"star requires n >= 1, got {n}")
    return Graph(["c"] + [str(i) for i in range(1, n + 1)], [(1 << n + 1) - 2] + [1] * n)


def squared_cycle(n: int) -> Graph:
    """Cycle plus distance-2 chords; needs n >= 5 so the two edge orbits differ."""
    if n < 5:
        raise InvalidParameterError(f"squared cycle requires n >= 5, got {n}")
    return Graph([str(v + 1) for v in range(n)],
                 [sum(1 << (v + d) % n for d in (-2, -1, 1, 2)) for v in range(n)])


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
    # vertex 2i + s is i+ for s = 0 and i- for s = 1: side << s is the level
    # of vertex v, less v itself, and v ^ 1 its rung
    side = sum(1 << 2 * i for i in range(n))
    return Graph(_two_level_labels(n), [side << v % 2 ^ 1 << v | 1 << (v ^ 1) for v in range(2 * n)])


def circular_ladder(n: int) -> Graph:
    """Outer cycle on i+, inner cycle on i-, rungs i+ i-; 3-regular on 2n vertices."""
    if n < 3:
        raise InvalidParameterError(f"circular ladder requires n >= 3, got {n}")
    # vertex 2i + s is i+ for s = 0 and i- for s = 1: v + 2 and v - 2 are the
    # neighbors of v on its own cycle, and v ^ 1 its rung
    return Graph(_two_level_labels(n), [1 << (v + 2) % (2 * n) | 1 << (v - 2) % (2 * n) | 1 << (v ^ 1)
                                        for v in range(2 * n)])


def kneser(n: int, k: int) -> Graph:
    """KG(n, k): the induced k-independent graph of the edgeless graph on
    [n], so the vertices are all k-subsets and edges join disjoint ones."""
    if k < 1 or k > n:
        raise InvalidParameterError(f"kneser requires n >= k >= 1, got ({n}, {k})")
    return induced_k_independent(Graph([str(i + 1) for i in range(n)], [0] * n), k)


def stable_kneser(n: int, k: int) -> Graph:
    """SG(n, k) = I_k(C_n): the induced k-independent graph of the ring on
    [n], so the vertices are the 2-stable k-subsets.  The ring is the
    n-cycle, one edge at n = 2 and no edge at n = 1.

    For 1 < n < 2k there are no 2-stable k-subsets and the empty graph is
    returned; callers can treat zero vertices as the void signal.
    """
    if k < 1 or n < 1:
        raise InvalidParameterError(f"stable_kneser requires n, k >= 1, got ({n}, {k})")
    ring = cycle(n) if n >= 3 else Graph([str(i + 1) for i in range(n)], [2, 1] if n == 2 else [0])
    return induced_k_independent(ring, k)


# ---------------------------------------------------------------------------
# independent sets
# ---------------------------------------------------------------------------

def independent_sets(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All independent sets of exactly k vertices, as sorted index tuples in
    lexicographic order, in a fresh list.  Enumerated once per k and graph,
    depth first on an explicit stack of (prefix, candidates) pairs: the
    least candidate extends the prefix and drops its neighbors from the
    candidates, while enough candidates remain, and the rest stay on the
    stack beneath it; a prefix one short of k lists its candidates.  More
    sets than the face budget raise ResourceLimitError, checked after each
    prefix's listing, so at most budget + n sets are ever held."""
    if k < 0:
        raise InvalidParameterError(f"k must be >= 0, got {k}")
    if k not in g._sets:
        masks = g.adjacency_masks()
        budget = face_budget()
        out: list[tuple[int, ...]] = [] if k else [()]
        stack = [((), (1 << g.n) - 1)] if k else []
        while True:
            if len(out) > budget:
                raise ResourceLimitError("independent set count", budget)
            if not stack:
                break
            prefix, cand = stack.pop()
            if len(prefix) + 1 == k:
                while cand:
                    low = cand & -cand
                    cand ^= low
                    out.append(prefix + (low.bit_length() - 1,))
            elif cand.bit_count() >= k - len(prefix):
                low = cand & -cand
                cand ^= low
                v = low.bit_length() - 1
                stack.append((prefix, cand))
                stack.append((prefix + (v,), cand & ~masks[v]))
        g._sets[k] = tuple(out)
    return list(g._sets[k])


def k_independent_masks(g: Graph, k: int) -> tuple[list[str], list[int]]:
    """The vertex labels and neighbor masks of I_k(G), one per independent
    k-set in ``independent_sets`` order.  With ``holding[v]`` the mask of
    the sets that contain vertex v of ``g``, the sets disjoint from S are
    ``full`` minus the union of ``holding[v]`` over v in S.  An I_k(G) on N
    vertices is refused when its N(N-1)/2 vertex pairs exceed the face
    budget."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    sets = independent_sets(g, k)
    budget = face_budget()
    if len(sets) * (len(sets) - 1) // 2 > budget:
        raise ResourceLimitError("vertex-pair scan", budget)
    holding = [0] * g.n
    for i, s in enumerate(sets):
        for v in s:
            holding[v] |= 1 << i
    full = (1 << len(sets)) - 1
    masks = [full ^ reduce(or_, map(holding.__getitem__, s)) for s in sets]
    return [set_label(g, s) for s in sets], masks


def induced_k_independent(g: Graph, k: int) -> Graph:
    """Graph on the independent k-sets of ``g``, joined when disjoint.

    Vertex labels are the set labels built from the base labels, e.g.
    "{1+,2-}".  The graph may have zero vertices.  It is built from the
    labels and masks of ``k_independent_masks``, which keeps the face
    budget guard.
    """
    return Graph(*k_independent_masks(g, k))


def set_label(g: Graph, indices) -> str:
    """Label for a vertex set of ``g``, members listed in index order."""
    return "{" + ",".join([g.labels[i] for i in sorted(indices)]) + "}"


def isomorphism_witness_valid(g: Graph, h: Graph, mapping: dict[int, int]) -> bool:
    """Check a claimed witness: bijective and edge-preserving both ways."""
    if sorted(mapping) != list(range(g.n)) or sorted(mapping.values()) != list(range(h.n)):
        return False
    hm = h.adjacency_masks()
    return all(permute_mask(m, mapping) == hm[mapping[i]] for i, m in enumerate(g.adjacency_masks()))


def stable_kneser_facet_count(n: int, k: int) -> int:
    """Number of 2-stable k-subsets of [n]: (n / (n - k)) * C(n - k, k)."""
    if n <= k:
        return 0
    num = n * comb(n - k, k)
    assert num % (n - k) == 0
    return num // (n - k)
