"""Element values and the canonical total order used everywhere.

Every value that can appear inside a multiset or a distribution is an
"element": an atom (identifier or numeral, stored as ``str``), a ``Pair``
of elements, a sequence of elements (plain ``tuple``), or a whole
``Multiset``/``Dist`` treated as a value.  All of them are immutable and
hashable, and ``elem_key`` gives one strict total order across the lot,
so canonical sorted storage makes structural equality coincide with
semantic equality.
"""

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from .errors import DomainError, check_cells

Elem = Any


@dataclass(frozen=True)
class Pair:
    """An element of a product space; components are elements themselves."""

    fst: Elem
    snd: Elem

    def __repr__(self) -> str:
        return f"Pair({self.fst!r}, {self.snd!r})"


# Rank of each element kind inside the global order.  Atoms that are pure
# numerals sort numerically, before identifier atoms; numerals of equal
# value, such as ``0`` and ``00``, sort by their text.
_ATOM, _PAIR, _SEQ, _MULTISET, _DIST = range(5)


def elem_key(e: Elem) -> tuple:
    """Sort key realizing the canonical total order on elements.

    Mixed kinds are ranked atom < pair < sequence < multiset < dist; within
    a kind the comparison is recursive (pairs and sequences lexicographic).
    """
    if isinstance(e, str):
        if e.isascii() and e.isdigit():
            return (_ATOM, 0, int(e), e)
        return (_ATOM, 1, 0, e)
    if isinstance(e, Pair):
        return (_PAIR, elem_key(e.fst), elem_key(e.snd))
    if isinstance(e, tuple):
        return (_SEQ, tuple(elem_key(c) for c in e))
    key = getattr(e, "_element_sort_key", None)
    if key is not None:
        return key()
    raise TypeError(f"not an element value: {e!r}")


class Space:
    """A finite, ordered, duplicate-free universe of elements."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[Elem]):
        ordered = sorted(set(elements), key=elem_key)
        object.__setattr__(self, "elements", tuple(ordered))

    def __setattr__(self, name, value):
        raise AttributeError("Space is immutable")

    def __iter__(self) -> Iterator[Elem]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e: Elem) -> bool:
        return e in self.elements

    def __eq__(self, other) -> bool:
        return isinstance(other, Space) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(("Space", self.elements))

    def __repr__(self) -> str:
        return f"Space({list(self.elements)!r})"

    def product(self, other: "Space") -> "Space":
        """The product space, with Pair elements."""
        return Space(Pair(x, y) for x in self for y in other)

    def power(self, k: int) -> list[tuple]:
        """All length-k sequences over this space, in lexicographic order."""
        if k < 0:
            raise DomainError("sequence length must be nonnegative")
        check_cells(len(self.elements) ** k, f"{len(self.elements)}^{k} sequence space")
        out = [()]
        for _ in range(k):
            out = [xs + (x,) for xs in out for x in self.elements]
        return out
