"""Simplicial complexes with facet-based storage.

Faces are strictly sorted tuples of vertex indices; the empty tuple is the
empty face.  A complex stores only its inclusion-maximal faces (facets) and
enumerates the downward closure on demand, guarded by a configurable total
face budget (env var CUTNERVE_FACE_BUDGET, default 2_000_000).

Two degenerate complexes are distinguished: the void complex has no faces at
all, while the empty complex contains exactly the empty face.  Vertex
identity across complexes is by label string, so complexes produced by
different constructors can be joined, intersected, and compared.
"""

from __future__ import annotations

import json
import os
from itertools import combinations

from .errors import (
    InvalidFaceError,
    InvalidParameterError,
    ResourceLimitError,
    VoidComplexError,
)

DEFAULT_FACE_BUDGET = 2_000_000


def face_budget() -> int:
    raw = os.environ.get("CUTNERVE_FACE_BUDGET")
    if raw is None:
        return DEFAULT_FACE_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameterError(f"CUTNERVE_FACE_BUDGET must be an integer, got {raw!r}") from None


def _canon_face(face) -> tuple[int, ...]:
    return tuple(sorted(set(face)))


def face_mask(face) -> int:
    """The vertex bitmask of a face; a repeated vertex sets its bit once."""
    m = 0
    for v in face:
        m |= 1 << v
    return m


def mask_face(m: int) -> tuple[int, ...]:
    """The sorted vertex tuple of a bitmask."""
    return tuple(v for v in range(m.bit_length()) if m >> v & 1)


def mask_antichain(masks) -> tuple[int, ...]:
    """Inclusion-maximal members of a collection of faces as vertex
    bitmasks, sorted.  Largest first, each is kept unless it lies in a kept
    one (``map`` keeps the scan in C)."""
    keep: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if m not in map(m.__and__, keep):
            keep.append(m)
    keep.sort()
    return tuple(keep)


def antichain(faces) -> list[tuple[int, ...]]:
    """Inclusion-maximal members of ``faces``, sorted lexicographically."""
    by_mask = {face_mask(f): f for f in faces}
    return sorted(_canon_face(by_mask[m]) for m in mask_antichain(by_mask))


class SimplicialComplex:
    """Immutable simplicial complex over a labeled ground set."""

    __slots__ = ("labels", "facets", "void", "_closure", "_homology", "_masks")

    def __init__(self, labels, facets, void: bool = False):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise InvalidParameterError("ground labels must be unique")
        n = len(labels)
        facets = [tuple(f) for f in facets]
        if void:
            if facets:
                raise InvalidParameterError("the void complex has no facets")
            facs: tuple[tuple[int, ...], ...] = ()
        else:
            used = set().union(*facets)
            if used and not (0 <= min(used) and max(used) < n):
                f, v = next((f, v) for f in facets for v in f if not 0 <= v < n)
                raise InvalidFaceError(f"face {f} references unknown vertex {v}")
            facs = tuple(antichain(facets))
            if not facs:
                raise InvalidParameterError(
                    "a non-void complex needs at least the empty face; "
                    "pass void=True or facets=[()]"
                )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "facets", facs)
        object.__setattr__(self, "void", void)
        object.__setattr__(self, "_closure", None)
        object.__setattr__(self, "_homology", None)
        object.__setattr__(self, "_masks", None)

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    # -- basic queries ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def is_void(self) -> bool:
        return self.void

    def is_empty_complex(self) -> bool:
        """True for the complex whose only face is the empty face."""
        return not self.void and self.facets == ((),)

    def has_vertices(self) -> bool:
        """True when the complex contains at least one nonempty face."""
        return bool(self.facets) and self.facets != ((),)

    def dimension(self) -> int:
        if self.void:
            raise VoidComplexError("the void complex has no dimension")
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        if self.void:
            return True
        dims = {len(f) for f in self.facets}
        return len(dims) == 1

    def vertex_support(self) -> tuple[int, ...]:
        """Indices that appear in at least one face."""
        seen = set()
        for f in self.facets:
            seen.update(f)
        return tuple(sorted(seen))

    def facet_masks(self) -> tuple[int, ...]:
        """Vertex bitmasks of the facets, in facet order, built lazily."""
        if self._masks is None:
            object.__setattr__(self, "_masks", tuple(map(face_mask, self.facets)))
        return self._masks

    def contains_face(self, face) -> bool:
        if min(face, default=0) < 0:
            return False
        m = face_mask(face)
        return m in map(m.__and__, self.facet_masks())

    def face_of_labels(self, labels) -> tuple[int, ...]:
        idx = {lab: i for i, lab in enumerate(self.labels)}
        try:
            return tuple(sorted(idx[l] for l in labels))
        except KeyError as e:
            raise InvalidFaceError(f"unknown vertex label {e.args[0]!r}") from None

    def labels_of_face(self, face) -> tuple[str, ...]:
        return tuple(self.labels[v] for v in face)

    # -- closure ------------------------------------------------------------

    def all_faces(self) -> list[tuple[int, ...]]:
        """Every face including the empty face, lexicographically sorted."""
        if self.void:
            return []
        if self._closure is None:
            limit = face_budget()
            faces: set[tuple[int, ...]] = set()
            for facet in self.facets:
                for r in range(len(facet) + 1):
                    for c in combinations(facet, r):
                        faces.add(c)
                if len(faces) > limit:
                    raise ResourceLimitError("total face count", limit)
            object.__setattr__(self, "_closure", sorted(faces))
        return self._closure

    def faces_by_dim(self) -> dict[int, list[tuple[int, ...]]]:
        out: dict[int, list[tuple[int, ...]]] = {}
        for f in self.all_faces():
            out.setdefault(len(f) - 1, []).append(f)
        return out

    def face_count(self) -> int:
        return len(self.all_faces())

    def f_vector(self) -> tuple[int, ...]:
        """Counts (f_-1, f_0, ..., f_d); empty tuple for the void complex."""
        if self.void:
            return ()
        by_dim = self.faces_by_dim()
        top = max(by_dim)
        return tuple(len(by_dim.get(d, [])) for d in range(-1, top + 1))

    def euler_characteristic_reduced(self) -> int:
        """chi~ = -1 + sum_{d>=0} (-1)^d f_d; 0 for the void complex."""
        if self.void:
            return 0
        # position i of the f-vector counts faces of dimension i - 1; the sign
        # stays an int (``(-1) ** -1`` would be the float -1.0)
        fv = self.f_vector()
        return sum(count if i % 2 else -count for i, count in enumerate(fv))

    # -- equality and serialization ------------------------------------------

    def facet_label_family(self) -> frozenset:
        return frozenset(frozenset(self.labels[v] for v in f) for f in self.facets)

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.labels == other.labels
            and self.facets == other.facets
            and self.void == other.void
        )

    def __hash__(self):
        return hash((self.labels, self.facets, self.void))

    def __repr__(self):
        if self.void:
            return "SimplicialComplex(void)"
        return f"SimplicialComplex({self.n_vertices} vertices, {len(self.facets)} facets)"

    def to_json(self) -> str:
        """Canonical JSON; vertices in lexicographic label order."""
        order = sorted(range(self.n_vertices), key=lambda i: self.labels[i])
        pos = {v: p for p, v in enumerate(order)}
        facets = sorted(tuple(sorted(pos[v] for v in f)) for f in self.facets)
        doc = {
            "vertices": [self.labels[i] for i in order],
            "facets": [list(f) for f in facets],
            "void": self.void,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "SimplicialComplex":
        doc = json.loads(text)
        return SimplicialComplex(
            doc["vertices"], [tuple(f) for f in doc["facets"]], void=doc.get("void", False)
        )


def equals_labeled(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    """Exact equality of facet families as label sets (void matches void).

    Ground labels that appear in no face do not affect the comparison.
    """
    if a.void or b.void:
        return a.void == b.void
    if a.labels == b.labels:
        return a.facets == b.facets
    return a.facet_label_family() == b.facet_label_family()


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def from_facets(labels, faces) -> SimplicialComplex:
    """Complex generated by ``faces``; [] yields the void complex and [()]
    the empty complex."""
    faces = list(faces)
    if not faces:
        return SimplicialComplex(labels, [], void=True)
    return SimplicialComplex(labels, faces)


def void_complex(labels=()) -> SimplicialComplex:
    return SimplicialComplex(labels, [], void=True)


def empty_complex(labels=()) -> SimplicialComplex:
    return SimplicialComplex(labels, [()])


def full_simplex(labels) -> SimplicialComplex:
    labels = tuple(labels)
    return SimplicialComplex(labels, [tuple(range(len(labels)))])


def simplex_boundary(labels) -> SimplicialComplex:
    """Boundary of the full simplex on the given labels."""
    labels = tuple(labels)
    n = len(labels)
    if n == 0:
        raise InvalidParameterError("boundary needs at least one vertex")
    return SimplicialComplex(labels, combinations(range(n), n - 1))


def discrete_points(labels) -> SimplicialComplex:
    labels = tuple(labels)
    return SimplicialComplex(labels, [(i,) for i in range(len(labels))])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Join: facets are unions of facet pairs.  Join with void is void."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise InvalidParameterError(f"join requires disjoint labels, shared: {sorted(overlap)}")
    labels = a.labels + b.labels
    if a.void or b.void:
        return void_complex(labels)
    off = a.n_vertices
    facets = [fa + tuple(v + off for v in fb) for fa in a.facets for fb in b.facets]
    return SimplicialComplex(labels, facets)


def cone(a: SimplicialComplex, apex: str) -> SimplicialComplex:
    if apex in a.labels:
        raise InvalidParameterError(f"apex label {apex!r} already a vertex")
    return join(a, full_simplex([apex]))


def suspension(a: SimplicialComplex, poles: tuple[str, str] = ("susp+", "susp-")) -> SimplicialComplex:
    lo, hi = poles
    if lo == hi:
        raise InvalidParameterError("suspension poles must differ")
    for p in poles:
        if p in a.labels:
            raise InvalidParameterError(f"pole label {p!r} already a vertex")
    return join(a, discrete_points(poles))


def link(a: SimplicialComplex, face) -> SimplicialComplex:
    """Link of a face: tau with tau disjoint from sigma and sigma U tau a face."""
    sigma = _canon_face(face)
    if not a.contains_face(sigma):
        raise InvalidFaceError(f"{sigma} is not a face of the complex")
    ss = set(sigma)
    gens = [tuple(v for v in facet if v not in ss) for facet in a.facets if ss <= set(facet)]
    return from_facets(a.labels, gens)


def skeleton(a: SimplicialComplex, d: int) -> SimplicialComplex:
    """All faces of dimension at most d."""
    if d < -1:
        raise InvalidParameterError(f"skeleton dimension must be >= -1, got {d}")
    if a.void:
        return void_complex(a.labels)
    gens: list[tuple[int, ...]] = []
    for facet in a.facets:
        if len(facet) - 1 <= d:
            gens.append(facet)
        else:
            gens.extend(combinations(facet, d + 1))
    if d == -1 or not gens:
        gens = [()]
    return SimplicialComplex(a.labels, gens)


def _merge_ground(a: SimplicialComplex, b: SimplicialComplex) -> tuple[tuple[str, ...], dict, dict]:
    labels = list(dict.fromkeys(a.labels + b.labels))
    idx = {lab: i for i, lab in enumerate(labels)}
    amap = {i: idx[lab] for i, lab in enumerate(a.labels)}
    bmap = {i: idx[lab] for i, lab in enumerate(b.labels)}
    return tuple(labels), amap, bmap


def union(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Union of face sets over the merged label universe."""
    labels, amap, bmap = _merge_ground(a, b)
    if a.void and b.void:
        return void_complex(labels)
    gens = [tuple(sorted(amap[v] for v in f)) for f in a.facets]
    gens += [tuple(sorted(bmap[v] for v in f)) for f in b.facets]
    return from_facets(labels, gens)


def intersection(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Intersection of face sets, generated by pairwise facet intersections."""
    labels, amap, bmap = _merge_ground(a, b)
    if a.void or b.void:
        return void_complex(labels)
    gens = []
    for fa in a.facets:
        sa = {amap[v] for v in fa}
        for fb in b.facets:
            sb = {bmap[v] for v in fb}
            gens.append(tuple(sorted(sa & sb)))
    return from_facets(labels, gens)
