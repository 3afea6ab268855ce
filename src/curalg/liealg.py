"""Cartan data for the simply-laced classical series A, D, E.

Only the Cartan matrix A and its symmetric half B = A/2 ever enter the
current-algebra structure functions, so this module stores exactly those,
with integer / rational entries (B feeds pole positions, where floating
point would be a source of silent drift).

Node numbering conventions (fixed once, documented here):

* A_r: linear chain 1 - 2 - ... - r.
* D_r (r >= 4): chain 1 - 2 - ... - (r-2), with both r-1 and r attached
  to the fork node r-2.
* E_6/7/8: Bourbaki numbering; chain 1 - 3 - 4 - 5 - 6 (- 7 (- 8)) and
  node 2 attached to node 4.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property

from .value import Value


class CartanError(ValueError):
    """Inadmissible (series, rank) combination."""


def _edges(series: str, rank: int) -> list[tuple[int, int]]:
    if series == "A":
        if rank < 1:
            raise CartanError("A series needs rank >= 1")
        return [(i, i + 1) for i in range(1, rank)]
    if series == "D":
        if rank < 4:
            raise CartanError("D series needs rank >= 4")
        chain = [(i, i + 1) for i in range(1, rank - 2)]
        return chain + [(rank - 2, rank - 1), (rank - 2, rank)]
    if series == "E":
        if rank not in (6, 7, 8):
            raise CartanError("E series needs rank in {6, 7, 8}")
        chain = [(1, 3), (3, 4), (4, 5), (5, 6)]
        chain += [(6, 7)] if rank >= 7 else []
        chain += [(7, 8)] if rank == 8 else []
        return chain + [(2, 4)]
    raise CartanError(f"unknown series {series!r}; expected A, D or E")


class CartanData(Value):
    """Validated Cartan matrix of a simply-laced algebra.

    ``a`` is the integer Cartan matrix, ``b`` the exact rational half
    matrix B = A/2.  Indices into ``a``/``b`` are 0-based; node labels in
    the public API are 1-based.
    """

    def __init__(self, series: str, rank: int, a: tuple[tuple[int, ...], ...],
                 b: tuple[tuple[Fraction, ...], ...]) -> None:
        _set = object.__setattr__
        _set(self, "series", series)
        _set(self, "rank", rank)
        _set(self, "a", a)
        _set(self, "b", b)

    def _fields(self) -> tuple:
        return (self.series, self.rank, self.a, self.b)

    def a_entry(self, i: int, j: int) -> int:
        return self.a[i - 1][j - 1]

    def b_entry(self, i: int, j: int) -> Fraction:
        return self.b[i - 1][j - 1]

    def nodes(self) -> range:
        return range(1, self.rank + 1)

    # cache keys hash the Fraction matrix; once per instance
    @cached_property
    def _hash(self) -> int:
        return hash(self._fields())

    def __hash__(self) -> int:
        return self._hash


@cache
def cartan(series: str, rank: int) -> CartanData:
    """Build the Cartan matrix from the Dynkin adjacency of ``series``.

    One instance per (series, rank): the free-field caches key on Cartan
    data, and a key that is the same object compares without walking the
    Fraction matrix.
    """
    edges = _edges(series, rank)
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = 2
    for i, j in edges:
        a[i - 1][j - 1] = -1
        a[j - 1][i - 1] = -1
    mat = tuple(tuple(row) for row in a)
    half = tuple(tuple(Fraction(x, 2) for x in row) for row in a)
    return CartanData(series=series, rank=rank, a=mat, b=half)


def from_label(label: str) -> CartanData:
    """Parse labels like ``"A2"`` or ``"D4"``."""
    label = label.strip()
    if not label or label[0] not in "ADE":
        raise CartanError(f"bad algebra label {label!r}")
    try:
        rank = int(label[1:])
    except ValueError as exc:
        raise CartanError(f"bad algebra label {label!r}") from exc
    return cartan(label[0], rank)


def node_class(cd: CartanData, i: int, j: int) -> tuple:
    """The class of the node pair (i, j): ``(A_ij,)``, or ``(A_ij, i < j)``
    when A_ij is odd.

    A free-field identity of an ordered node pair sees the nodes only
    through B = A/2 (kernel, pair reductions, structure functions) and,
    through the Klein sign of a word's phase, the order i < j when A_ij is
    odd.  Records of one class therefore carry one result.
    """
    a = cd.a_entry(i, j)
    return (a, i < j) if a % 2 else (a,)


def adjacent_pairs(cd: CartanData) -> list[tuple[int, int]]:
    """All directed pairs (i, j) with A_ij = -1 (both orientations)."""
    return [
        (i, j)
        for i in cd.nodes()
        for j in cd.nodes()
        if i != j and cd.a_entry(i, j) == -1
    ]
