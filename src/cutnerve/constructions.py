"""Derived complexes: neighborhood complexes, total cut complexes, covers
and their nerves.

A Cover is one list of generators over a base complex.  Each generator is
a face of the base with its holders, the indices of the parts that the face
generates; part i is the downward closure (within nonempty faces) of the
faces whose holders contain i.  Intersections of parts are read on the
generators: the intersection over an index set I is the subcomplex
generated by the faces whose holders contain I.  Two generators may share a
face and differ in their holders, and both count.  The raw face-set reading
of part intersections can be strictly larger; it is available separately
for diagnostics (``raw_intersection_nonempty``) because the two readings
provably differ on some inputs while all advertised identities hold for the
generator reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexes import SimplicialComplex, from_facets, void_complex
from .errors import EmptyCoverError, InvalidFaceError, InvalidParameterError
from .graphs import Graph, independent_sets, induced_k_independent


def neighborhood_complex(g: Graph) -> SimplicialComplex:
    """Faces are vertex sets with a common neighbor, so the facets are the
    maximal neighborhoods N(v).  Vertices without neighbors stay in the
    ground set but appear in no face; a graph with no edges yields the empty
    complex and a graph with no vertices the void complex."""
    if g.n == 0:
        return void_complex(())
    gens = [tuple(sorted(g.adj[v])) for v in range(g.n) if g.adj[v]]
    gens.append(())
    return from_facets(g.labels, gens)


def total_cut_complex(g: Graph, k: int) -> SimplicialComplex:
    """Facets are the complements of the independent k-sets; void when there
    are none, pure of dimension |V| - k - 1 otherwise."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    everything = set(range(g.n))
    facets = [tuple(sorted(everything - set(s))) for s in independent_sets(g, k)]
    return from_facets(g.labels, facets)


@dataclass(frozen=True)
class Cover:
    """An ordered family of downward-closed face sets over a base complex,
    presented by generators: ``(face, holders)`` pairs, where ``holders`` is
    the frozenset of indices of the parts that ``face`` generates."""

    base: SimplicialComplex
    part_labels: tuple
    generators: tuple

    def __post_init__(self):
        labels = tuple(self.part_labels)
        if len(set(labels)) != len(labels):
            raise InvalidParameterError("part labels must be unique")
        if self.base.is_void():
            raise InvalidParameterError("cannot cover the void complex")
        gens = tuple((tuple(sorted(f)), frozenset(h)) for f, h in self.generators)
        for face, holders in gens:
            if not self.base.contains_face(face):
                raise InvalidFaceError(f"generator {face} is not a face of the base")
            if holders and not (0 <= min(holders) and max(holders) < len(labels)):
                raise InvalidParameterError(f"generator {face} has a holder out of range")
        # cover property: every nonempty facet of the base must be generated
        gen_faces = {face for face, _ in gens}
        for facet in self.base.facets:
            if facet and facet not in gen_faces:
                raise InvalidParameterError(f"facet {facet} of the base is not covered by any part")
        object.__setattr__(self, "part_labels", labels)
        object.__setattr__(self, "generators", gens)

    @property
    def n_parts(self) -> int:
        return len(self.part_labels)

    def _index_set(self, indices) -> frozenset:
        idx = frozenset(indices)
        if not idx:
            raise InvalidParameterError("index set must be nonempty")
        for i in sorted(idx):
            if not (0 <= i < self.n_parts):
                raise InvalidParameterError(f"part index {i} out of range")
        return idx

    @cached_property
    def _supports(self) -> tuple[frozenset, ...]:
        """Per part, the set of base vertices covered by its generators."""
        sup = [set() for _ in self.part_labels]
        for face, holders in self.generators:
            for i in holders:
                sup[i].update(face)
        return tuple(frozenset(s) for s in sup)

    def raw_intersection_nonempty(self, indices) -> bool:
        """Geometric reading: do the parts of ``indices`` share a nonempty
        face?  For downward-closed parts this is a shared base vertex."""
        sups = self._supports
        return bool(frozenset.intersection(*(sups[i] for i in self._index_set(indices))))

    def generated_nonempty(self, indices) -> bool:
        """Generator reading: does one nonempty face have holders containing
        ``indices``?  The same as ``cover_intersection(cover,
        indices).has_vertices()``, without building the complex."""
        idx = self._index_set(indices)
        return any(face and idx <= holders for face, holders in self.generators)


def nerve(cover: Cover) -> SimplicialComplex:
    """Nerve of the cover: one vertex per part, and the holder sets of the
    generators as facets, so an index set is a face when one generator is
    held by all of its parts.

    The witness is a shared generator rather than a shared face: the raw
    face-set reading makes strictly more index sets intersect and breaks the
    advertised identities with total cut complexes (see
    ``raw_intersection_nonempty`` for the comparison hook)."""
    facets = [tuple(sorted(holders)) for _, holders in cover.generators]
    return from_facets(cover.part_labels, facets or [()])


def independent_cover(g: Graph, k: int) -> Cover:
    """The cover of the neighborhood complex of the induced k-independent
    graph with one part per vertex of ``g``: the neighborhood simplex of the
    independent k-set S generates the parts of the vertices outside S."""
    h = induced_k_independent(g, k)
    if h.n == 0:
        raise EmptyCoverError(f"no independent {k}-sets: cannot build the cover")
    everything = frozenset(range(g.n))
    sets = independent_sets(g, k)  # parallel to h's vertex order
    generators = [(tuple(sorted(h.adj[j])), everything - set(s)) for j, s in enumerate(sets)]
    return Cover(neighborhood_complex(h), g.labels, generators)


def cover_intersection(cover: Cover, indices) -> SimplicialComplex:
    """Subcomplex generated by the faces held by every part of the index
    set; void when no generator qualifies."""
    idx = cover._index_set(indices)
    return from_facets(cover.base.labels, [f for f, holders in cover.generators if idx <= holders])


def facet_star_cover(base: SimplicialComplex, markers) -> Cover:
    """One part per marker vertex, generated by the facets containing it:
    each nonempty facet is held by the markers it contains."""
    marker_idx = []
    n = len(base.labels)
    for m in markers:
        if isinstance(m, str):
            if m not in base.labels:
                raise InvalidParameterError(f"marker {m!r} is not a vertex of the complex")
            m = base.labels.index(m)
        elif not 0 <= m < n:
            raise InvalidParameterError(f"marker index {m} is outside 0..{n - 1}")
        marker_idx.append(m)
    generators = [
        (f, frozenset(i for i, v in enumerate(marker_idx) if v in f)) for f in base.facets if f
    ]
    return Cover(base, [base.labels[v] for v in marker_idx], generators)
