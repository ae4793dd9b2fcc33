"""Derived complexes: neighborhood complexes, total cut complexes, covers
and their nerves.

A Cover is stored as a family of generating simplices.  Each part of the
cover is the downward closure (within nonempty faces) of the generator
faces assigned to it; generators carry string keys that identify the same
generator across parts.  Intersections of parts are computed on the
generator family: the intersection over an index set I is the subcomplex
generated by the generators common to every part of I.  The raw face-set
reading of part intersections can be strictly larger; it is available
separately for diagnostics (``raw_intersection_nonempty``) because the two
readings provably differ on some inputs while all advertised identities
hold for the generator reading.
"""

from __future__ import annotations

import json

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


class Cover:
    """An ordered family of downward-closed face sets over a base complex,
    presented by generating faces."""

    __slots__ = ("base", "part_labels", "generator_faces", "part_generators", "_supports")

    def __init__(
        self,
        base: SimplicialComplex,
        part_labels,
        generator_faces: dict[str, tuple[int, ...]],
        part_generators,
    ):
        part_labels = tuple(part_labels)
        if len(set(part_labels)) != len(part_labels):
            raise InvalidParameterError("part labels must be unique")
        if base.is_void():
            raise InvalidParameterError("cannot cover the void complex")
        part_generators = tuple(frozenset(keys) for keys in part_generators)
        if len(part_generators) != len(part_labels):
            raise InvalidParameterError("one generator set per part required")
        for key, face in generator_faces.items():
            if not base.contains_face(face):
                raise InvalidFaceError(f"generator {key!r} is not a face of the base")
        used = set().union(*part_generators) if part_generators else set()
        unknown = used - set(generator_faces)
        if unknown:
            raise InvalidParameterError(f"parts reference unknown generators {sorted(unknown)}")
        # cover property: every nonempty facet of the base must be generated
        gen_faces = {tuple(sorted(f)) for f in generator_faces.values()}
        for facet in base.facets:
            if facet and facet not in gen_faces:
                raise InvalidParameterError(
                    f"facet {facet} of the base is not covered by any part"
                )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "part_labels", part_labels)
        object.__setattr__(self, "generator_faces", dict(generator_faces))
        object.__setattr__(self, "part_generators", part_generators)
        object.__setattr__(self, "_supports", None)

    def __setattr__(self, name, value):
        raise AttributeError("Cover is immutable")

    @property
    def n_parts(self) -> int:
        return len(self.part_labels)

    def common_generators(self, indices) -> list[str]:
        idx = list(indices)
        if not idx:
            raise InvalidParameterError("index set must be nonempty")
        for i in idx:
            if not (0 <= i < self.n_parts):
                raise InvalidParameterError(f"part index {i} out of range")
        common = frozenset.intersection(*(self.part_generators[i] for i in idx))
        return sorted(common)

    def supports(self) -> tuple[frozenset, ...]:
        """Per part, the set of base vertices covered by its generators."""
        if self._supports is None:
            sup = []
            for keys in self.part_generators:
                s = set()
                for k in keys:
                    s.update(self.generator_faces[k])
                sup.append(frozenset(s))
            object.__setattr__(self, "_supports", tuple(sup))
        return self._supports

    def raw_intersection_nonempty(self, indices) -> bool:
        """Geometric reading: do the parts of ``indices`` share a nonempty
        face?  For downward-closed parts this is a shared base vertex."""
        sups = self.supports()
        idx = list(indices)
        if not idx:
            raise InvalidParameterError("index set must be nonempty")
        return bool(frozenset.intersection(*(sups[i] for i in idx)))

    def to_json(self) -> str:
        doc = {
            "base": json.loads(self.base.to_json()),
            "parts": [
                {
                    "label": self.part_labels[i],
                    "generators": [
                        {"key": k, "face": list(self.generator_faces[k])}
                        for k in sorted(self.part_generators[i])
                    ],
                }
                for i in range(self.n_parts)
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def nerve(cover: Cover) -> SimplicialComplex:
    """Nerve of the cover: one vertex per part; an index set is a face when
    a common generator witnesses the intersection of its parts.

    The witness is a shared generator rather than a shared face: the raw
    face-set reading makes strictly more index sets intersect and breaks the
    advertised identities with total cut complexes (see
    ``raw_intersection_nonempty`` for the comparison hook)."""
    gens = cover.generator_faces
    facets = []
    for key in gens:
        holders = tuple(
            i for i in range(cover.n_parts) if key in cover.part_generators[i]
        )
        facets.append(holders)
    if not facets:
        facets = [()]
    return from_facets(cover.part_labels, facets)


def independent_cover(g: Graph, k: int) -> Cover:
    """The cover of the neighborhood complex of the induced k-independent
    graph with one part per vertex of ``g``: part i is generated by the
    neighborhood simplices of the independent k-sets avoiding i."""
    h = induced_k_independent(g, k)
    if h.n == 0:
        raise EmptyCoverError(f"no independent {k}-sets: cannot build the cover")
    base = neighborhood_complex(h)
    sets = independent_sets(g, k)  # parallel to h's vertex order
    generator_faces = {}
    for j in range(h.n):
        generator_faces[h.labels[j]] = tuple(sorted(h.adj[j]))
    part_gens = []
    for i in range(g.n):
        part_gens.append({h.labels[j] for j, s in enumerate(sets) if i not in s})
    return Cover(base, g.labels, generator_faces, part_gens)


def cover_intersection(cover: Cover, indices) -> SimplicialComplex:
    """Subcomplex generated by the generators common to all parts of the
    index set; void when no generator qualifies."""
    keys = cover.common_generators(indices)
    gens = [cover.generator_faces[k] for k in keys]
    return from_facets(cover.base.labels, gens)


def facet_star_cover(base: SimplicialComplex, markers) -> Cover:
    """One part per marker vertex, generated by the facets containing it."""
    marker_idx = []
    for m in markers:
        lab = m if isinstance(m, str) else base.labels[m]
        if lab not in base.labels:
            raise InvalidParameterError(f"marker {lab!r} is not a vertex of the complex")
        marker_idx.append(base.labels.index(lab))
    generator_faces = {}
    for facet in base.facets:
        if facet:
            generator_faces[_facet_key(base, facet)] = facet
    part_gens = []
    for v in marker_idx:
        part_gens.append(
            {_facet_key(base, f) for f in base.facets if v in f}
        )
    labels = [base.labels[v] for v in marker_idx]
    return Cover(base, labels, generator_faces, part_gens)


def _facet_key(base: SimplicialComplex, facet) -> str:
    return ",".join(base.labels[v] for v in facet)
