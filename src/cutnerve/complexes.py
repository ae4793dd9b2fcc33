"""Simplicial complexes with facet-based storage.

Faces are vertex bitmasks, or strictly sorted tuples of vertex indices where
a report or a test reads them; mask 0 (the empty tuple) is the empty face.
A complex has one constructor, ``SimplicialComplex(labels, masks)`` on
face masks; it stores only the inclusion-maximal faces (facets), builds
their tuples on each read of ``facets``, and enumerates the downward
closure on demand, guarded by a configurable total face budget (env var
CUTNERVE_FACE_BUDGET, default 2_000_000).  ``from_json`` reads a complex
through it once ``errors.check_json_ground`` has checked the ground,
vertex range included.

Two degenerate complexes are distinguished: the void complex has no faces at
all, while the empty complex contains exactly the empty face.  Two complexes
are equal when they have the same label tuple and the same facet masks.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from functools import reduce
from itertools import groupby
from operator import or_

from .errors import InvalidParameterError, ResourceLimitError, check_json_ground, json_object
from .values import Value

DEFAULT_FACE_BUDGET = 2_000_000


def face_budget() -> int:
    raw = os.environ.get("CUTNERVE_FACE_BUDGET")
    if raw is None:
        return DEFAULT_FACE_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise InvalidParameterError(f"CUTNERVE_FACE_BUDGET must be a non-negative integer, got {raw!r}")
    return budget


def face_mask(face) -> int:
    """The vertex bitmask of a face; a repeated vertex sets its bit once."""
    m = 0
    for v in face:
        m |= 1 << v
    return m


def mask_face(m: int) -> tuple[int, ...]:
    """The sorted vertex tuple of a bitmask."""
    return tuple(v for v in range(m.bit_length()) if m >> v & 1)


def permute_mask(m: int, perm) -> int:
    """The image of the bitmask ``m`` under the vertex map v -> perm[v]."""
    out = 0
    while m:
        low = m & -m
        m ^= low
        out |= 1 << perm[low.bit_length() - 1]
    return out


def mask_antichain(masks) -> tuple[int, ...]:
    """Inclusion-maximal members of a collection of faces as vertex
    bitmasks, sorted.  Size layer by size layer, largest first, each is kept
    unless it lies in a kept one of a larger size (``map`` keeps the scan
    in C): two distinct masks of one size never nest, so the largest layer
    is kept whole, without building a ``map`` per mask."""
    keep: list[int] = []
    for _, layer in groupby(sorted(set(masks), key=int.bit_count, reverse=True), int.bit_count):
        keep += [m for m in layer if m not in map(m.__and__, keep)] if keep else layer
    keep.sort()
    return tuple(keep)


def link_deletion(facets: tuple, bit: int) -> tuple[tuple, tuple]:
    """lk_v and del_v of a sorted antichain, v the vertex of ``bit``, both
    sorted antichains, in one pass.  The facets without v stay maximal, and
    a link f - v is kept in del_v unless it lies in one of them: it cannot
    lie in another facet's link, since the facets do not nest."""
    lk, rest = [], []
    for f in facets:
        if f & bit:
            lk.append(f ^ bit)
        else:
            rest.append(f)
    if not lk:
        return (), facets
    lk = tuple(lk)
    if not rest:
        return lk, lk
    rest += [g for g in lk if g not in map(g.__and__, rest)]
    rest.sort()
    return lk, tuple(rest)


def closure_masks(masks) -> dict[int, int]:
    """Every face of the faces ``masks`` as a bitmask, each enumerated as a
    submask, mapped to its link: the OR of the members of ``masks`` that
    hold it, less the face itself.  The empty face is in it unless
    ``masks`` is empty.  More faces than the face budget raise
    ResourceLimitError, checked after each member's submasks are listed
    and, before that, against the member's own 2^|f| faces, so the dict
    never holds more than twice the budget."""
    limit = face_budget()
    links: dict[int, int] = {}
    get = links.get
    for f in masks:
        if 1 << f.bit_count() > limit:
            raise ResourceLimitError("total face count", limit)
        s = f
        while True:
            links[s] = get(s, 0) | f ^ s
            if not s:
                break
            s = (s - 1) & f
        if len(links) > limit:
            raise ResourceLimitError("total face count", limit)
    return links


class SimplicialComplex(Value, caches=("_bits", "_closure", "_homology")):
    """Immutable simplicial complex over a labeled ground set, generated by
    the faces ``masks`` (vertex bitmasks): [] is the void complex and [0]
    the empty complex.  The stored form is the sorted facet antichain of
    ``masks``; ``facets``, the sorted vertex tuples, is a view built on
    each read."""

    __slots__ = ("labels", "_masks", "_bits", "_closure", "_homology")

    def __init__(self, labels, masks):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise InvalidParameterError("ground labels must be unique")
        masks = mask_antichain(masks)
        if masks and (masks[0] < 0 or masks[-1] >> len(labels)):
            raise InvalidParameterError(f"a face mask references a vertex outside 0..{len(labels) - 1}")
        super().__init__(labels, masks)

    # -- basic queries ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def void(self) -> bool:
        """True for the void complex, the one with no face at all."""
        return not self._masks

    def dimension(self) -> int:
        if self.void:
            raise InvalidParameterError("the void complex has no dimension")
        return max(map(int.bit_count, self._masks)) - 1

    def is_pure(self) -> bool:
        return len(set(map(int.bit_count, self._masks))) <= 1

    def facet_masks(self) -> tuple[int, ...]:
        """Vertex bitmasks of the facets, sorted: the stored form."""
        return self._masks

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        """The facets as sorted vertex tuples, in lexicographic order; built
        on each read."""
        return tuple(sorted(map(mask_face, self._masks)))

    def vertex(self, v) -> int:
        """The index of the vertex ``v``, given by its label or by its int
        index; anything else is refused."""
        if isinstance(v, str):
            if v not in self.labels:
                raise InvalidParameterError(f"unknown vertex {v!r}")
            return self.labels.index(v)
        if type(v) is not int or not 0 <= v < self.n_vertices:
            raise InvalidParameterError(f"vertex {v!r} is not a label or an index in 0..{self.n_vertices - 1}")
        return v

    def face_of_labels(self, labels) -> int:
        """The vertex bitmask of the face with these labels; a repeated
        label gives -1, which is no face of any complex.  The label -> bit
        map is built on first use."""
        if self._bits is None:
            object.__setattr__(self, "_bits", {lab: 1 << i for i, lab in enumerate(self.labels)})
        try:
            bits = [self._bits[lab] for lab in labels]
        except KeyError as e:
            raise InvalidParameterError(f"unknown vertex label {e.args[0]!r}") from None
        m = reduce(or_, bits, 0)
        return m if m.bit_count() == len(bits) else -1

    def labels_of_face(self, m: int) -> tuple[str, ...]:
        """The labels of the face with vertex bitmask ``m``, in index order."""
        return tuple(self.labels[v] for v in mask_face(m))

    # -- closure ------------------------------------------------------------

    def all_faces(self) -> list[tuple[int, ...]]:
        """Every face including the empty face, lexicographically sorted:
        the tuple view of ``closure_masks``, cached."""
        if self._closure is None:
            faces = closure_masks(self._masks)
            object.__setattr__(self, "_closure", sorted(map(mask_face, faces)))
        return self._closure

    def f_vector(self) -> tuple[int, ...]:
        """Counts (f_-1, f_0, ..., f_d), read off the bit counts of
        ``closure_masks``; the empty tuple for the void complex."""
        counts = Counter(map(int.bit_count, closure_masks(self._masks)))
        return tuple(counts[size] for size in range(max(counts, default=-1) + 1))

    # -- serialization ------------------------------------------------------

    def __repr__(self):
        if self.void:
            return "SimplicialComplex(void)"
        return f"SimplicialComplex({self.n_vertices} vertices, {len(self._masks)} facets)"

    def to_json(self) -> str:
        """Canonical JSON; vertices in lexicographic label order."""
        order = sorted(range(self.n_vertices), key=lambda i: self.labels[i])
        pos = {v: p for p, v in enumerate(order)}
        facets = sorted(mask_face(permute_mask(m, pos)) for m in self._masks)
        doc = {
            "vertices": [self.labels[i] for i in order],
            "facets": [list(f) for f in facets],
            "void": self.void,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "SimplicialComplex":
        """Read ``to_json`` output: a JSON object with "vertices" and
        "facets", whose ``"void"`` must agree with the facets."""
        doc = json_object(json.loads(text), "a complex", ("vertices", "facets"))
        labels, facets, void = doc["vertices"], doc["facets"], doc.get("void", False)
        check_json_ground(labels, facets)
        if type(void) is not bool:
            raise InvalidParameterError(f'"void" is {json.dumps(void)}, not a JSON boolean')
        cx = SimplicialComplex(labels, map(face_mask, facets))
        if void != cx.void:
            raise InvalidParameterError("the void complex has no facets" if void else (
                'a non-void complex needs at least the empty face: "void": true or "facets": [[]]'))
        return cx

