"""Derived complexes: neighborhood complexes, total cut complexes, covers
and their nerves.

A Cover is one list of generators over a base complex.  Each generator is
a face of the base with its holders, the indices of the parts that the face
generates; part i is the downward closure (within nonempty faces) of the
faces whose holders contain i.  Intersections of parts are read on the
generators: the intersection over an index set I is the subcomplex
generated by the faces whose holders contain I.  Two generators may share a
face and differ in their holders, and both count.  The raw face-set reading
of part intersections (do the parts share a nonempty face?) can be strictly
larger; ``Cover.reading_gap`` counts the index sets where the two readings
differ, because they provably differ on some inputs while all advertised
identities hold for the generator reading.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, closure_masks, face_budget, face_mask, mask_face, permute_mask
from .errors import EmptyCoverError, InvalidFaceError, InvalidParameterError, ResourceLimitError
from .graphs import Graph, independent_sets, k_independent_masks, set_label


def neighborhood_complex(g: Graph) -> SimplicialComplex:
    """Faces are vertex sets with a common neighbor, so the facets are the
    maximal neighborhoods N(v).  Vertices without neighbors stay in the
    ground set but appear in no face; a graph with no edges yields the empty
    complex and a graph with no vertices the void complex."""
    return SimplicialComplex(g.labels, g.adjacency_masks() + (0,) if g.n else ())


def _cut_masks(g: Graph, k: int) -> list[int]:
    """The complements of the independent k-sets of ``g``, as vertex masks."""
    full = (1 << g.n) - 1
    return [full ^ face_mask(s) for s in independent_sets(g, k)]


def total_cut_complex(g: Graph, k: int) -> SimplicialComplex:
    """Facets are the complements of the independent k-sets; void when there
    are none, pure of dimension |V| - k - 1 otherwise."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    return SimplicialComplex(g.labels, _cut_masks(g, k))


@dataclass(frozen=True)
class Cover:
    """An ordered family of downward-closed face sets over a base complex,
    presented by generators: ``(face, holders)`` pairs of bitmasks, the
    vertices of a face of the base and the indices of the parts that it
    generates."""

    base: SimplicialComplex
    part_labels: tuple
    generators: tuple

    def __post_init__(self):
        labels = tuple(self.part_labels)
        if len(set(labels)) != len(labels):
            raise InvalidParameterError("part labels must be unique")
        if self.base.void:
            raise InvalidParameterError("cannot cover the void complex")
        gens = tuple(self.generators)
        facets = self.base.facet_masks()
        lookup = set(facets)
        for face, holders in gens:
            if type(face) is not int or type(holders) is not int:
                raise InvalidParameterError(f"generator {(face, holders)!r} is not a pair of int bitmasks")
            if face not in lookup and face not in map(face.__and__, facets):
                raise InvalidFaceError(f"generator {mask_face(face)} is not a face of the base")
            if holders < 0 or holders >> len(labels):
                raise InvalidParameterError(f"generator {mask_face(face)} has a holder out of range")
        # cover property: every nonempty facet of the base must be generated
        missing = lookup.difference(face for face, _ in gens).difference((0,))
        if missing:
            facet = min(map(mask_face, missing))
            raise InvalidParameterError(f"facet {facet} of the base is not covered by any part")
        object.__setattr__(self, "part_labels", labels)
        object.__setattr__(self, "generators", gens)

    @property
    def n_parts(self) -> int:
        return len(self.part_labels)

    def _index_set(self, indices) -> int:
        """The parts of ``indices`` as a bitmask, each checked in range
        before its bit is set."""
        idx = 0
        for i in indices:
            if type(i) is not int:
                raise InvalidParameterError(f"part index {i!r} is not an int")
            if not 0 <= i < self.n_parts:
                raise InvalidParameterError(f"part index {i} out of range")
            idx |= 1 << i
        if not idx:
            raise InvalidParameterError("index set must be nonempty")
        return idx

    def intersection(self, idx: int) -> SimplicialComplex:
        """``cover_intersection`` over the nonempty index set with bitmask
        ``idx``."""
        if type(idx) is not int or not 0 < idx < 1 << self.n_parts:
            raise InvalidParameterError(f"index set mask {idx!r} is not a nonempty set of parts")
        return SimplicialComplex(self.base.labels, [f for f, holders in self.generators if idx & holders == idx])

    def reading_gap(self) -> int:
        """How many nonempty index sets the two readings disagree on, read
        off one table over all index sets.  The raw reading of I asks whether
        the parts of I share a base vertex (for downward-closed parts, a
        nonempty face); the generator reading asks whether one nonempty face
        has holders containing I, which is
        ``cover_intersection(cover, I).has_vertices()``.

        A generator's face lies in each part that holds it, so every
        generated index set is raw-nonempty and the count is #raw -
        #generated.  ``raw[I]`` is the AND of the supports of I (a part's
        support is the base vertices of its generators), built from I minus
        its lowest part; the generated index sets are the nonempty subsets
        of the holders of generators with a nonempty face."""
        budget = face_budget()
        if 1 << self.n_parts > budget:
            raise ResourceLimitError("index-set table", budget)
        sup = [0] * self.n_parts
        for face, holders in self.generators:
            for i in mask_face(holders):
                sup[i] |= face
        raw = [-1]  # the empty index set: every vertex
        raw_count = 0
        for idx in range(1, 1 << self.n_parts):
            low = idx & -idx
            meet = raw[idx ^ low] & sup[low.bit_length() - 1]
            raw.append(meet)
            raw_count += meet != 0
        generated = closure_masks([holders for face, holders in self.generators if face], len(raw))
        generated.discard(0)
        return raw_count - len(generated)


def nerve(cover: Cover) -> SimplicialComplex:
    """Nerve of the cover: one vertex per part, and the holder sets of the
    generators as facets, so an index set is a face when one generator is
    held by all of its parts.

    The witness is a shared generator rather than a shared face: the raw
    face-set reading makes strictly more index sets intersect and breaks the
    advertised identities with total cut complexes (``Cover.reading_gap``
    counts the index sets where the readings differ)."""
    return SimplicialComplex(cover.part_labels, [holders for _, holders in cover.generators] or [0])


def independent_cover(g: Graph, k: int) -> Cover:
    """The cover of the neighborhood complex of the induced k-independent
    graph with one part per vertex of ``g``: the neighborhood simplex of the
    independent k-set S generates the parts of the vertices outside S.  The
    base is built from the neighbor masks of I_k(G), as
    ``neighborhood_complex`` would build it from the graph."""
    labels, masks = k_independent_masks(g, k)
    if not labels:
        raise EmptyCoverError(f"no independent {k}-sets: cannot build the cover")
    # the masks follow the independent k-sets in the order _cut_masks lists them
    generators = zip(masks, _cut_masks(g, k))
    return Cover(SimplicialComplex(labels, masks + [0]), g.labels, generators)


def cover_symmetries(cover: Cover, g: Graph, k: int, perms) -> list[tuple[int, ...]]:
    """The vertex permutations ``perms`` of ``g`` (each a sequence, v -> perm[v])
    as automorphisms of a cover whose parts are the vertices of ``g`` and
    whose base vertices are its independent k-sets in ``independent_sets``
    order, as ``independent_cover`` builds it; or [] when one of them fails.

    Each permutation pi moves base vertex i, the set S_i, to the base vertex
    labelled ``set_label(g, pi(S_i))``.  It passes when that base action beta
    is a bijection and (face, holders) -> (beta·face, pi·holders) maps the
    set of generators onto itself; beta then carries the intersection over
    an index set I isomorphically onto the one over pi·I.  Only the given
    permutations are checked, and no symmetry is searched for."""
    perms = [tuple(perm) for perm in perms]
    sets = independent_sets(g, k)
    index = {label: i for i, label in enumerate(cover.base.labels)}
    if cover.part_labels != g.labels or len(sets) != len(index):
        return []
    gens = set(cover.generators)
    for perm in perms:
        if sorted(perm) != list(range(g.n)):
            return []
        beta = [index.get(set_label(g, [perm[v] for v in s])) for s in sets]
        if None in beta or len(set(beta)) != len(beta):
            return []
        if {(permute_mask(face, beta), permute_mask(holders, perm)) for face, holders in gens} != gens:
            return []
    return perms


def cover_intersection(cover: Cover, indices) -> SimplicialComplex:
    """Subcomplex generated by the faces held by every part of the index
    set; void when no generator qualifies."""
    return cover.intersection(cover._index_set(indices))


def facet_star_cover(base: SimplicialComplex, markers) -> Cover:
    """One part per marker vertex, generated by the facets containing it:
    each nonempty facet is held by the markers it contains."""
    marker_idx = [base.vertex(m) for m in markers]
    generators = [
        (f, sum(1 << i for i, v in enumerate(marker_idx) if f >> v & 1)) for f in base.facet_masks() if f
    ]
    return Cover(base, [base.labels[v] for v in marker_idx], generators)
