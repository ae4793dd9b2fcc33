"""Reduced simplicial homology over the integers via Smith normal form.

The chain complex is augmented: the boundary of every vertex is the empty
face, so degree-0 homology is already reduced and a d-sphere shows a single
Z in degree d.  All arithmetic uses Python integers, so intermediate entry
growth and torsion are exact.

The Smith normal form is one sparse elimination on two mirrored value maps,
row -> column -> value and column -> row -> value.  Each round picks a
pivot and clears the pivot's column, then its row, with one routine:
subtract floor-division multiples of the pivot line from every other line,
and when remainders are left, move the pivot to the least of them.
Clearing a row is the same routine with the two maps swapped.  The pivot's
absolute value falls at every move, so each pivot ends alone in its row and
column and its absolute value is a diagonal entry.

The pivot rule puts units first, since they are the bulk of any boundary
matrix and clear a column in one sweep (Dumas, Heckenbach, Saunders and
Welker, 2003): take a +-1 entry of the sparsest column that has one, in
that column's shortest row.  Columns come from a heap of column counts that
is checked again on pop, so fill-in needs no push.  Once no popped column
holds a unit (on the desk-class boundary matrices, never), take an entry of
least absolute value.  The non-unit diagonal is normalized into a
divisibility chain at the end; the invariant factors are unique, so the
pivot order cannot affect results.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

from .complexes import SimplicialComplex
from .errors import InvalidParameterError, VoidComplexError


class SparseIntMatrix:
    """Integer matrix stored as two mirrored value maps, ``rows[r][c]`` and
    ``cols[c][r]``.  Neither map keeps an empty line."""

    __slots__ = ("nrows", "ncols", "rows", "cols")

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, dict[int, int]] = {}

    def set(self, r: int, c: int, v: int):
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise InvalidParameterError(f"entry ({r},{c}) outside {self.nrows}x{self.ncols}")
        if v == 0:
            row = self.rows.get(r)
            if row and c in row:
                col = self.cols[c]
                del row[c], col[r]
                if not row:
                    del self.rows[r]
                if not col:
                    del self.cols[c]
            return
        self.rows.setdefault(r, {})[c] = v
        self.cols.setdefault(c, {})[r] = v

    def nnz(self) -> int:
        return sum(len(row) for row in self.rows.values())


def _clear_line(lines: dict, mirror: dict, p: int, c: int) -> int:
    """Zero line ``c`` of ``mirror`` outside the pivot ``(p, c)`` by
    subtracting floor-division multiples of line ``p`` of ``lines`` from
    every other line.  Each remainder left is smaller than the pivot in
    absolute value, so the pivot moves to the least of them and the sweep
    repeats.  ``lines`` and ``mirror`` are the two views of one matrix (rows
    and columns, in either order); both are kept in step.  Returns the final
    pivot line."""
    while True:
        pline = lines[p]
        for r in [r for r in mirror[c] if r != p]:
            line = lines[r]
            q = line[c] // pline[c]
            for cc, v in pline.items():
                nv = line.get(cc, 0) - q * v
                if nv:
                    line[cc] = nv
                    mirror[cc][r] = nv
                elif cc in line:
                    del line[cc], mirror[cc][r]
            if not line:
                del lines[r]
        rest = [r for r in mirror[c] if r != p]
        if not rest:
            return p
        p = min(rest, key=lambda r: (abs(mirror[c][r]), r))


def _pivot(rows: dict, cols: dict, heap: list) -> tuple[int, int]:
    """A +-1 entry of the sparsest column that has one, in that column's
    shortest row; once no popped column holds a unit, an entry of least
    absolute value.  ``heap`` holds ``(count, column)`` pairs; a count that
    is stale on pop is pushed again with the column's current count."""
    while heap:
        n, c = heapq.heappop(heap)
        col = cols.get(c)
        if col is None:
            continue
        if len(col) != n:
            heapq.heappush(heap, (len(col), c))
            continue
        units = [r for r, v in col.items() if v == 1 or v == -1]
        if units:
            return min(units, key=lambda r: (len(rows[r]), r)), c
    _, p, c = min((abs(v), r, c) for r, row in rows.items() for c, v in row.items())
    return p, c


def _divisibility_chain(values: list[int]) -> tuple[int, ...]:
    vals = [abs(v) for v in values if v]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                a, b = vals[i], vals[j]
                if b % a:
                    g = math.gcd(a, b)
                    vals[i], vals[j] = g, a * b // g
                    changed = True
    vals.sort()
    return tuple(vals)


def smith_normal_form(m: SparseIntMatrix) -> tuple[int, ...]:
    """Diagonal invariants d_1 | d_2 | ... | d_r of the matrix; r = rank."""
    rows = {r: dict(row) for r, row in m.rows.items()}
    cols = {c: dict(col) for c, col in m.cols.items()}
    heap = [(len(col), c) for c, col in cols.items()]
    heapq.heapify(heap)
    ones = 0
    rest: list[int] = []
    while rows:
        p, c = _pivot(rows, cols, heap)
        while len(rows[p]) > 1 or len(cols[c]) > 1:
            p = _clear_line(rows, cols, p, c)
            c = _clear_line(cols, rows, c, p)
        v = abs(rows.pop(p)[c])
        del cols[c]
        if v == 1:
            ones += 1
        else:
            rest.append(v)
    return (1,) * ones + _divisibility_chain(rest)


# ---------------------------------------------------------------------------
# boundary matrices
# ---------------------------------------------------------------------------

def boundary_matrix(cx: SimplicialComplex, d: int) -> SparseIntMatrix:
    """The boundary operator from d-chains to (d-1)-chains with the
    orientation induced by sorted vertex order.  Degree 0 maps vertices onto
    the empty face (the augmentation), which is what makes the homology
    reduced."""
    if cx.is_void():
        raise VoidComplexError("boundary matrices are undefined on the void complex")
    if d < 0:
        raise InvalidParameterError(f"boundary degree must be >= 0, got {d}")
    return _boundary_from_faces(cx.faces_by_dim(), d)


def _boundary_from_faces(by_dim: dict[int, list], d: int) -> SparseIntMatrix:
    lower = by_dim.get(d - 1, [])
    upper = by_dim.get(d, [])
    m = SparseIntMatrix(len(lower), len(upper))
    index = {f: i for i, f in enumerate(lower)}
    rows, cols = m.rows, m.cols
    for c, f in enumerate(upper):
        for pos in range(len(f)):
            r = index[f[:pos] + f[pos + 1:]]
            v = -1 if pos % 2 else 1
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, {})[r] = v
    return m


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyProfile:
    """Reduced integer homology: free ranks per dimension and torsion
    coefficients (sorted divisibility chains) per dimension.

    ``minus_one_rank`` is 1 exactly for the empty complex, whose augmented
    chain complex has one leftover Z in degree -1.  The void complex carries
    the empty profile with ``void`` set.
    """

    betti: tuple[int, ...] = ()
    torsion: tuple[tuple[int, tuple[int, ...]], ...] = ()
    minus_one_rank: int = 0
    void: bool = False

    def betti_number(self, d: int) -> int:
        return self.betti[d] if 0 <= d < len(self.betti) else 0

    def has_torsion(self) -> bool:
        return bool(self.torsion)

    def is_trivial(self) -> bool:
        """All reduced homology vanishes (the profile of a contractible space)."""
        return (
            not self.void
            and self.minus_one_rank == 0
            and not self.torsion
            and all(b == 0 for b in self.betti)
        )

    def is_sphere(self, d: int) -> bool:
        return self.is_wedge(d, 1)

    def is_wedge(self, d: int, m: int) -> bool:
        """Exactly m copies of Z in degree d and nothing else; m = 0 means
        homology-trivial."""
        if m == 0:
            return self.is_trivial()
        if self.void or self.minus_one_rank or self.torsion:
            return False
        return self.betti_number(d) == m and sum(self.betti) == m

    def nonzero(self) -> dict[int, int]:
        return {d: b for d, b in enumerate(self.betti) if b}

    def to_json(self) -> str:
        doc = {
            "betti": list(self.betti),
            "torsion": [[d, c] for d, coeffs in self.torsion for c in coeffs],
            "minus_one": self.minus_one_rank,
            "void": self.void,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "HomologyProfile":
        doc = json.loads(text)
        grouped: dict[int, list[int]] = {}
        for d, c in doc.get("torsion", []):
            grouped.setdefault(d, []).append(c)
        torsion = tuple((d, tuple(sorted(cs))) for d, cs in sorted(grouped.items()))
        return HomologyProfile(
            betti=tuple(doc.get("betti", [])),
            torsion=torsion,
            minus_one_rank=doc.get("minus_one", 0),
            void=doc.get("void", False),
        )

    @staticmethod
    def sphere(d: int) -> "HomologyProfile":
        return HomologyProfile.wedge(d, 1)

    @staticmethod
    def wedge(d: int, m: int) -> "HomologyProfile":
        if m == 0:
            return HomologyProfile()
        betti = [0] * (d + 1)
        betti[d] = m
        return HomologyProfile(betti=tuple(betti))


def _trim(betti: list[int]) -> tuple[int, ...]:
    while betti and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def reduced_homology(cx: SimplicialComplex) -> HomologyProfile:
    """Exact reduced homology profile of the complex."""
    if cx._homology is not None:
        return cx._homology
    if cx.is_void():
        profile = HomologyProfile(void=True)
    elif cx.is_empty_complex():
        profile = HomologyProfile(minus_one_rank=1)
    else:
        by_dim = cx.faces_by_dim()
        top = max(by_dim)
        ranks = {0: 1}  # augmentation row is hit by every vertex
        invariants: dict[int, tuple[int, ...]] = {}
        for d in range(1, top + 1):
            inv = smith_normal_form(_boundary_from_faces(by_dim, d))
            invariants[d] = inv
            ranks[d] = len(inv)
        ranks[top + 1] = 0
        betti = [
            len(by_dim.get(d, [])) - ranks[d] - ranks[d + 1]
            for d in range(top + 1)
        ]
        torsion = []
        for d in range(top):
            coeffs = tuple(v for v in invariants.get(d + 1, ()) if v > 1)
            if coeffs:
                torsion.append((d, coeffs))
        profile = HomologyProfile(betti=_trim(betti), torsion=tuple(torsion))
    object.__setattr__(cx, "_homology", profile)
    return profile
