"""Simplicial complexes with facet-based storage.

Faces are strictly sorted tuples of vertex indices, or vertex bitmasks; the
empty tuple (mask 0) is the empty face.  A complex stores only the bitmasks
of its inclusion-maximal faces (facets), builds their tuples on first use,
and enumerates the downward closure on demand, guarded by a configurable
total face budget (env var CUTNERVE_FACE_BUDGET, default 2_000_000).

Two degenerate complexes are distinguished: the void complex has no faces at
all, while the empty complex contains exactly the empty face.  Vertex
identity across complexes is by label string, so complexes produced by
different constructors can be joined, intersected, and compared.
"""

from __future__ import annotations

import json
import os
from functools import reduce
from itertools import combinations
from operator import or_

from .errors import (
    InvalidFaceError,
    InvalidParameterError,
    ResourceLimitError,
    VoidComplexError,
    check_json_ground,
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


def closure_masks(masks, limit: int) -> set[int]:
    """Every face of the faces ``masks`` as a bitmask, each enumerated as a
    submask; the empty face is in it unless ``masks`` is empty.  More than
    ``limit`` faces raise ResourceLimitError."""
    faces = {0} if masks else set()
    for f in masks:
        s = f
        while s:
            faces.add(s)
            s = (s - 1) & f
        if len(faces) > limit:
            raise ResourceLimitError("total face count", limit)
    return faces


def _checked_masks(faces, n: int):
    """Vertex bitmasks of ``faces``, lazily: no bit is shifted before every
    vertex is checked to lie in 0..n-1."""
    used = set().union(*faces)
    if used and not (0 <= min(used) and max(used) < n):
        f, v = next((f, v) for f in faces for v in f if not 0 <= v < n)
        raise InvalidFaceError(f"face {f} references unknown vertex {v}")
    yield from map(face_mask, faces)


class SimplicialComplex:
    """Immutable simplicial complex over a labeled ground set.  The stored
    form is the sorted tuple of facet bitmasks; ``facets``, the sorted
    vertex tuples, is a view built on first use."""

    __slots__ = ("labels", "void", "_masks", "_facets", "_closure", "_homology")

    def __init__(self, labels, facets, void: bool = False):
        labels = tuple(labels)
        faces = [tuple(f) for f in facets]
        # the void complex only needs to know that it was given no face
        self._setup(labels, faces if void else _checked_masks(faces, len(labels)), void)

    def _setup(self, labels: tuple, masks, void: bool):
        """The one set-up of both constructors: unique labels, then the
        facet antichain of ``masks``."""
        if len(set(labels)) != len(labels):
            raise InvalidParameterError("ground labels must be unique")
        if void:
            if masks:
                raise InvalidParameterError("the void complex has no facets")
            masks = ()
        else:
            masks = mask_antichain(masks)
            if not masks:
                raise InvalidParameterError(
                    "a non-void complex needs at least the empty face; "
                    "pass void=True or facets=[()]"
                )
            if masks[0] < 0 or masks[-1] >> len(labels):
                raise InvalidFaceError(f"a face mask references a vertex outside 0..{len(labels) - 1}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "void", void)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_facets", None)
        object.__setattr__(self, "_closure", None)
        object.__setattr__(self, "_homology", None)

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
        return not self.void and self._masks == (0,)

    def has_vertices(self) -> bool:
        """True when the complex contains at least one nonempty face."""
        return bool(self._masks) and self._masks != (0,)

    def dimension(self) -> int:
        if self.void:
            raise VoidComplexError("the void complex has no dimension")
        return max(map(int.bit_count, self._masks)) - 1

    def is_pure(self) -> bool:
        return len(set(map(int.bit_count, self._masks))) <= 1

    def vertex_support(self) -> tuple[int, ...]:
        """Indices that appear in at least one face."""
        return mask_face(reduce(or_, self._masks, 0))

    def facet_masks(self) -> tuple[int, ...]:
        """Vertex bitmasks of the facets, sorted: the stored form."""
        return self._masks

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        """The facets as sorted vertex tuples, in lexicographic order; built
        on first use."""
        if self._facets is None:
            object.__setattr__(self, "_facets", tuple(sorted(map(mask_face, self._masks))))
        return self._facets

    def contains_face(self, face) -> bool:
        if not all(0 <= v < len(self.labels) for v in face):
            return False
        m = face_mask(face)
        return m in map(m.__and__, self._masks)

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
        """Every face including the empty face, lexicographically sorted:
        the tuple view of ``closure_masks``, cached."""
        if self._closure is None:
            faces = closure_masks(self._masks, face_budget())
            object.__setattr__(self, "_closure", sorted(map(mask_face, faces)))
        return self._closure

    def faces_by_dim(self) -> dict[int, list[tuple[int, ...]]]:
        out: dict[int, list[tuple[int, ...]]] = {}
        for f in self.all_faces():
            out.setdefault(len(f) - 1, []).append(f)
        return out

    def f_vector(self) -> tuple[int, ...]:
        """Counts (f_-1, f_0, ..., f_d); empty tuple for the void complex."""
        if self.void:
            return ()
        by_dim = self.faces_by_dim()
        top = max(by_dim)
        return tuple(len(by_dim.get(d, [])) for d in range(-1, top + 1))

    # -- equality and serialization ------------------------------------------

    def facet_label_family(self) -> frozenset:
        return frozenset(frozenset(self.labels[v] for v in f) for f in self.facets)

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.labels == other.labels
            and self._masks == other._masks
            and self.void == other.void
        )

    def __hash__(self):
        return hash((self.labels, self._masks, self.void))

    def __repr__(self):
        if self.void:
            return "SimplicialComplex(void)"
        return f"SimplicialComplex({self.n_vertices} vertices, {len(self._masks)} facets)"

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
        labels, facets, void = doc["vertices"], [tuple(f) for f in doc["facets"]], doc.get("void", False)
        check_json_ground(labels, facets, "face")
        if type(void) is not bool:
            raise InvalidParameterError(f'"void" is {json.dumps(void)}, not a JSON boolean')
        return SimplicialComplex(labels, facets, void=void)


def equals_labeled(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    """Exact equality of facet families as label sets (void matches void).

    Ground labels that appear in no face do not affect the comparison.
    """
    if a.void or b.void:
        return a.void == b.void
    if a.labels == b.labels:
        return a._masks == b._masks
    return a.facet_label_family() == b.facet_label_family()


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def from_facets(labels, faces) -> SimplicialComplex:
    """Complex generated by ``faces``; [] yields the void complex and [()]
    the empty complex."""
    faces = list(faces)
    return SimplicialComplex(labels, faces, void=not faces)


def from_masks(labels, masks) -> SimplicialComplex:
    """``from_facets`` on faces given as vertex bitmasks: [] yields the void
    complex and [0] the empty complex."""
    masks = list(masks)
    cx = SimplicialComplex.__new__(SimplicialComplex)
    cx._setup(tuple(labels), masks, not masks)
    return cx


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
    return from_masks(labels, [fa | fb << off for fa in a._masks for fb in b._masks])


def _merge_ground(a: SimplicialComplex, b: SimplicialComplex) -> tuple:
    """The merged label universe, then each complex's facet masks over it."""
    labels = tuple(dict.fromkeys(a.labels + b.labels))
    bit = {lab: 1 << i for i, lab in enumerate(labels)}
    return labels, *([sum(bit[c.labels[v]] for v in f) for f in c.facets] for c in (a, b))


def union(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Union of face sets over the merged label universe."""
    labels, fa, fb = _merge_ground(a, b)
    if a.void and b.void:
        return void_complex(labels)
    return from_masks(labels, fa + fb)


def intersection(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Intersection of face sets, generated by pairwise facet intersections."""
    labels, fa, fb = _merge_ground(a, b)
    if a.void or b.void:
        return void_complex(labels)
    return from_masks(labels, [x & y for x in fa for y in fb])
