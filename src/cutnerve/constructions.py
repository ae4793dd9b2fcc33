"""Derived complexes: neighborhood complexes, total cut complexes, covers
by full subcomplexes and their nerves.

A Cover gives, for each vertex of its base, the mask of the parts that hold
it; part i is the full subcomplex on the vertices whose held mask has bit
i, the faces of the base whose vertices all lie in it.  The intersection
over an index set I is then the full subcomplex on the vertices held by
every part of I, exactly, and I is a face of the nerve when such a vertex
lies in a nonempty face of the base.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .complexes import SimplicialComplex, face_mask, permute_mask
from .errors import InvalidParameterError
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
    """An ordered family of full subcomplexes of a base complex, given by
    ``held``: for each base vertex, the mask of the parts that hold it.
    Part i is the full subcomplex on the base vertices whose held mask has
    bit i."""

    __slots__ = ("base", "part_labels", "held")

    def __init__(self, base: SimplicialComplex, part_labels, held):
        labels, held = tuple(part_labels), tuple(held)
        if len(set(labels)) != len(labels):
            raise InvalidParameterError("part labels must be unique")
        if base.void:
            raise InvalidParameterError("cannot cover the void complex")
        if len(held) != base.n_vertices or any(type(h) is not int or h >> len(labels) for h in held):
            raise InvalidParameterError("held must be one mask of the parts per base vertex")
        super().__init__(base, labels, held)

    def intersection(self, idx: int) -> SimplicialComplex:
        """The full subcomplex of the base on the vertices that every part of
        the nonempty index set with bitmask ``idx`` holds."""
        if type(idx) is not int or not 0 < idx < 1 << len(self.part_labels):
            raise InvalidParameterError(f"index set mask {idx!r} is not a nonempty set of parts")
        w = sum(1 << v for v, h in enumerate(self.held) if h & idx == idx)
        return SimplicialComplex(self.base.labels, [f & w for f in self.base.facet_masks()])

    def nerve(self) -> SimplicialComplex:
        """One vertex per part; an index set is a face when its parts share a
        vertex of a nonempty face of the base, so the facets are the held
        masks of the base vertices lying in such a face.  The empty complex
        when the base has no vertex in a face."""
        support = reduce(or_, self.base.facet_masks())
        facets = [h for v, h in enumerate(self.held) if h and support >> v & 1]
        return SimplicialComplex(self.part_labels, facets or [0])


def independent_cover(g: Graph, k: int) -> Cover:
    """The cover of the neighborhood complex of the induced k-independent
    graph with one part per vertex v of ``g``: the full subcomplex on the
    independent k-sets that avoid v, so base vertex S is held by the parts
    ``full ^ S``.  A face with common neighbor S lies in the part of every
    vertex of S, so the parts cover the base.  The base is built from the
    neighbor masks of I_k(G), as ``neighborhood_complex`` would build it
    from the graph."""
    labels, masks = k_independent_masks(g, k)
    if not labels:
        raise InvalidParameterError(f"no independent {k}-sets: cannot build the cover")
    full = (1 << g.n) - 1
    return Cover(SimplicialComplex(labels, masks + [0]), g.labels,
                 [full ^ face_mask(s) for s in independent_sets(g, k)])


def cover_symmetries(cover: Cover, perms) -> list[tuple[int, ...]]:
    """The permutations ``perms`` of the parts (each a sequence, v -> perm[v])
    as automorphisms of the cover; or [] when one of them fails.

    A permutation pi acts on the base through ``held``: beta sends base
    vertex i to the vertex whose part mask is pi of i's.  It passes
    when no two base vertices have the same part mask, every image is a base
    vertex (so beta is a bijection) and beta maps the facets of the base
    onto themselves.  Then beta carries part v onto part pi(v): bit pi(v) of
    beta(i)'s part mask is bit v of i's, so i lies in W_v exactly when
    beta(i) lies in W_pi(v).  So beta carries the intersection over an index
    set I isomorphically onto the one over pi·I.  Only the given
    permutations are checked, and no symmetry is searched for."""
    perms = [tuple(perm) for perm in perms]
    held = cover.held
    index = {h: i for i, h in enumerate(held)}
    if len(index) != len(held):
        return []
    facets = set(cover.base.facet_masks())
    for perm in perms:
        if sorted(perm) != list(range(len(cover.part_labels))):
            return []
        beta = [index.get(permute_mask(h, perm)) for h in held]
        if None in beta or {permute_mask(f, beta) for f in facets} != facets:
            return []
    return perms
