"""Derived complexes: neighborhood complexes, total cut complexes, covers
by full subcomplexes and their nerves.

A Cover gives each part as a vertex mask of its base: the part is the full
subcomplex on that mask, the faces of the base whose vertices all lie in
it.  The intersection over an index set I is then the full subcomplex on
the AND of the masks of I, exactly, and I is a face of the nerve when that
AND holds a vertex that lies in a nonempty face of the base.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_

from .complexes import SimplicialComplex, face_mask, mask_face, permute_mask
from .errors import EmptyCoverError, InvalidParameterError
from .graphs import Graph, independent_sets, k_independent_masks
from .values import Value


def neighborhood_complex(g: Graph) -> SimplicialComplex:
    """Faces are vertex sets with a common neighbor, so the facets are the
    maximal neighborhoods N(v).  Vertices without neighbors stay in the
    ground set but appear in no face; a graph with no edges yields the empty
    complex and a graph with no vertices the void complex."""
    return SimplicialComplex(g.labels, g.adjacency_masks() + (0,) if g.n else ())


def total_cut_complex(g: Graph, k: int) -> SimplicialComplex:
    """Facets are the complements of the independent k-sets; void when there
    are none, pure of dimension |V| - k - 1 otherwise."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    full = (1 << g.n) - 1
    return SimplicialComplex(g.labels, [full ^ face_mask(s) for s in independent_sets(g, k)])


class Cover(Value):
    """An ordered family of full subcomplexes of a base complex: part i is
    the full subcomplex on the vertex mask ``parts[i]``."""

    __slots__ = ("base", "part_labels", "parts")

    def __init__(self, base: SimplicialComplex, part_labels, parts):
        labels, parts = tuple(part_labels), tuple(parts)
        if len(set(labels)) != len(labels):
            raise InvalidParameterError("part labels must be unique")
        if base.void:
            raise InvalidParameterError("cannot cover the void complex")
        if len(parts) != len(labels) or any(type(w) is not int or w >> base.n_vertices for w in parts):
            raise InvalidParameterError("parts must be one vertex mask of the base per part label")
        super().__init__(base, labels, parts)

    @property
    def n_parts(self) -> int:
        return len(self.parts)

    def intersection(self, idx: int) -> SimplicialComplex:
        """The full subcomplex of the base on the vertices that every part of
        the nonempty index set with bitmask ``idx`` holds."""
        if type(idx) is not int or not 0 < idx < 1 << self.n_parts:
            raise InvalidParameterError(f"index set mask {idx!r} is not a nonempty set of parts")
        w = reduce(and_, map(self.parts.__getitem__, mask_face(idx)))
        return SimplicialComplex(self.base.labels, [f & w for f in self.base.facet_masks()])

    def vertex_parts(self) -> list[int]:
        """For each base vertex, the mask of the parts that hold it."""
        held = [0] * self.base.n_vertices
        for i, w in enumerate(self.parts):
            while w:
                low = w & -w
                w ^= low
                held[low.bit_length() - 1] |= 1 << i
        return held

    def nerve(self) -> SimplicialComplex:
        """One vertex per part; an index set is a face when its parts share a
        vertex of a nonempty face of the base, so the facets are the masks of
        the parts that hold each such vertex.  The empty complex when the
        base has no vertex in a face."""
        support = reduce(or_, self.base.facet_masks())
        facets = [h for v, h in enumerate(self.vertex_parts()) if h and support >> v & 1]
        return SimplicialComplex(self.part_labels, facets or [0])


def independent_cover(g: Graph, k: int) -> Cover:
    """The cover of the neighborhood complex of the induced k-independent
    graph with one part per vertex v of ``g``: the full subcomplex on the
    independent k-sets that avoid v.  A face with common neighbor S lies in
    the part of every vertex of S, so the parts cover the base.  The base is
    built from the neighbor masks of I_k(G), as ``neighborhood_complex``
    would build it from the graph."""
    labels, masks, holding = k_independent_masks(g, k)
    if not labels:
        raise EmptyCoverError(f"no independent {k}-sets: cannot build the cover")
    full = (1 << len(labels)) - 1
    return Cover(SimplicialComplex(labels, masks + [0]), g.labels, [full ^ h for h in holding])


def cover_symmetries(cover: Cover, perms) -> list[tuple[int, ...]]:
    """The permutations ``perms`` of the parts (each a sequence, v -> perm[v])
    as automorphisms of the cover; or [] when one of them fails.

    A permutation pi acts on the base through ``vertex_parts``: beta sends
    base vertex i to the vertex whose part mask is pi of i's.  It passes
    when no two base vertices have the same part mask, every image is a base
    vertex (so beta is a bijection) and beta maps the facets of the base
    onto themselves.  Then beta carries part v onto part pi(v): bit pi(v) of
    beta(i)'s part mask is bit v of i's, so i lies in W_v exactly when
    beta(i) lies in W_pi(v).  So beta carries the intersection over an index
    set I isomorphically onto the one over pi·I.  Only the given
    permutations are checked, and no symmetry is searched for."""
    perms = [tuple(perm) for perm in perms]
    held = cover.vertex_parts()
    index = {h: i for i, h in enumerate(held)}
    if len(index) != len(held):
        return []
    facets = set(cover.base.facet_masks())
    for perm in perms:
        if sorted(perm) != list(range(cover.n_parts)):
            return []
        beta = [index.get(permute_mask(h, perm)) for h in held]
        if None in beta or {permute_mask(f, beta) for f in facets} != facets:
            return []
    return perms
