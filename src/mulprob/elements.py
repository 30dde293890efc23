"""Element values and the canonical total order used everywhere.

Every value that can appear inside a multiset or a distribution is an
"element": an atom (identifier or numeral, stored as ``str``), a ``Pair``
of elements, a sequence of elements (plain ``tuple``), or a whole
``Multiset``/``Dist`` treated as a value.  All of them are immutable and
hashable, and ``elem_key`` gives one strict total order across the lot.
Every value kind of the library, channels included, derives from
``_Value``, which makes it immutable and prints it in ket notation:
``str`` is its ket text and ``repr`` wraps that text in the kind's name,
as ``Pair('(a,b)')``.  A ``Space`` has no ket notation and prints its own.
A ``Pair`` is a plain slotted class, neither a dataclass nor a tuple, so
it never equals a sequence; it takes its hash when built and its sort key
on first use.
Multisets, distributions, predicates and spaces share one storage
scheme, ``_FiniteMap``: one dict from elements to values, in no particular
order, sorted by ``elem_key`` only when read in order.  A multiset and a
distribution both store positive integer counts and their sum: the size
of a multiset, the reduced denominator of a distribution, which is a
multiset normalized.  So they also share the trusted constructor, the
pushforward of counts and the budgeted tensor of counts on pairs.  A
``Space`` is a finite set, the support of a multiset: a count store whose
counts are all 1, sorted on first read, whose product is that tensor.
"""

import itertools
from collections.abc import Iterable, Iterator, Mapping
from typing import Any

from .errors import _check_size, check_cells

Elem = Any


# Rank of each element kind inside the global order.  Atoms that are pure
# numerals sort numerically, before identifier atoms; numerals of equal
# value, such as ``0`` and ``00``, sort by their text.
_ATOM, _PAIR, _SEQ, _MULTISET, _DIST = range(5)

# Atom keys are memoized: the same few atoms are sorted over and over.
# The memo stops growing at this many atoms; later ones are keyed afresh.
_ATOM_KEY_CAP = 1 << 16
_atom_keys: dict[str, tuple] = {}


class _Value:
    """The protocol every value kind shares: no attribute can be set, and
    the text is the ket notation of ``mulprob.ket.format_value``.

    Library code sets slots past the guard: through the slots' own
    setters, as ``_set_map`` and its kin below, or ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __str__(self) -> str:
        from .ket import format_value

        return format_value(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class Pair(_Value):
    """An element of a product space; components are elements themselves."""

    __slots__ = ("fst", "snd", "_hash", "_key")

    def __new__(cls, fst: Elem, snd: Elem):
        p = object.__new__(cls)
        _set_fst(p, fst)
        _set_snd(p, snd)
        _set_pair_hash(p, hash((fst, snd)))
        _set_pair_key(p, None)
        return p

    def __reduce__(self):
        return Pair, (self.fst, self.snd)

    def __eq__(self, other):
        if type(other) is not Pair:
            return NotImplemented
        return self.fst == other.fst and self.snd == other.snd

    def __hash__(self) -> int:
        return self._hash

    def _element_sort_key(self) -> tuple:
        if self._key is None:
            _set_pair_key(self, (_PAIR, elem_key(self.fst), elem_key(self.snd)))
        return self._key


# The slots' own setters, as ``_set_map`` and its kin below.
_set_fst, _set_snd, _set_pair_hash, _set_pair_key = (
    getattr(Pair, name).__set__ for name in Pair.__slots__)


def _atom_key(e: str) -> tuple:
    if e.isascii() and e.isdigit():
        key = (_ATOM, 0, int(e), e)
    else:
        key = (_ATOM, 1, 0, e)
    if len(_atom_keys) < _ATOM_KEY_CAP:
        _atom_keys[e] = key
    return key


def elem_key(e: Elem) -> tuple:
    """Sort key realizing the canonical total order on elements.

    Mixed kinds are ranked atom < pair < sequence < multiset < dist; within
    a kind the comparison is recursive (pairs and sequences lexicographic).
    """
    t = type(e)
    if t is str:
        return _atom_keys.get(e) or _atom_key(e)
    if t is Pair:
        return e._element_sort_key()
    if isinstance(e, tuple):
        return (_SEQ, tuple([elem_key(c) for c in e]))
    if isinstance(e, str):
        return _atom_key(e)
    key = getattr(e, "_element_sort_key", None)
    if key is not None:
        return key()
    raise TypeError(f"not an element value: {e!r}")


def _pairs(data) -> Iterable[tuple]:
    """The ``(element, value)`` pairs of a mapping or an iterable of pairs."""
    return data.items() if isinstance(data, Mapping) else data


class _FiniteMap(_Value):
    """An immutable finitely supported function, stored as one dict.

    ``_map`` sends each element of the support to its stored value (a
    count, an integer numerator or a ``Fraction``); two values of one class
    are equal exactly when their dicts are, whatever order they were built
    in.  ``_total`` is the sum of integer counts (a space's size), ``None``
    for a predicate.
    ``entries`` lists the support in the canonical order with the public
    values, sorted on first use and kept.
    """

    # ``_key`` caches the sort key of the kinds that are elements themselves.
    __slots__ = ("_map", "_total", "_entries", "_hash", "_key")

    # Not iterable: without this, ``iter`` would fall back on the indexing
    # of ``Multiset`` and ``Dist``, which never runs out of keys.
    __iter__ = None

    def _public(self, stored):
        return stored

    def _store(self, data: dict, total: int | None = None) -> None:
        _set_map(self, data)
        _set_total(self, total)
        _set_entries(self, None)
        _set_hash(self, None)
        _set_key(self, None)

    @classmethod
    def _of(cls, data: dict, total: int):
        """Trusted constructor: no checks, and ``data`` is kept.

        Only for library code that already holds a fresh dict of positive
        ``int`` counts over element values, and their sum ``total``.  For a
        ``Dist`` the counts are numerators over ``total`` and must also share
        no factor with it; each caller says why they do.
        """
        # ``_store`` inlined: every outcome of every channel is built here.
        m = object.__new__(cls)
        _set_map(m, data)
        _set_total(m, total)
        _set_entries(m, None)
        _set_hash(m, None)
        _set_key(m, None)
        return m

    def _image(self, f) -> dict:
        """The counts pushed forward along ``f``; collided images add up."""
        out: dict = {}
        for e, n in self._map.items():
            y = f(e)
            out[y] = out.get(y, 0) + n
        return out

    def _tensor(self, other: "_FiniteMap") -> dict:
        """The counts on pairs, each the product of its components' counts."""
        check_cells(len(self._map) * len(other._map), "tensor product support")
        theirs = other._map.items()
        return {Pair(x, y): n * m for x, n in self._map.items() for y, m in theirs}

    def __reduce__(self):
        # Rebuilt through the checking constructor, from the public values.
        return type(self), (self.entries,)

    @property
    def entries(self) -> tuple[tuple[Elem, Any], ...]:
        if self._entries is None:
            data, public = self._map, self._public
            entries = tuple([(e, public(data[e])) for e in sorted(data, key=elem_key)])
            _set_entries(self, entries)
        return self._entries

    @property
    def support(self) -> tuple[Elem, ...]:
        return tuple([e for e, _ in self.entries])

    def __contains__(self, elem: Elem) -> bool:
        return elem in self._map

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._map == other._map

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._map.items()))
            _set_hash(self, h)
        return h


# The slots' own setters, which skip ``_Value.__setattr__``; they cost
# half as much as ``object.__setattr__``.
_set_map, _set_total, _set_entries, _set_hash, _set_key = (
    getattr(_FiniteMap, name).__set__ for name in _FiniteMap.__slots__)


def _show(e: Elem) -> str:
    """A value in ket notation, for error messages; ``repr`` of anything else."""
    from .ket import format_value

    try:
        return format_value(e)
    except TypeError:
        return repr(e)


class Space(_FiniteMap):
    """A finite set of elements: a count store whose counts are all 1.

    ``_total`` is the size; ``elements`` is the support, sorted by
    ``elem_key`` on first read, so a space built and only tested for
    membership is never sorted.
    """

    __slots__ = ()

    def __init__(self, elements: Iterable[Elem]):
        data = dict.fromkeys(elements, 1)
        self._store(data, len(data))

    @property
    def elements(self) -> tuple[Elem, ...]:
        return self.support

    def __reduce__(self):
        return Space, (self.elements,)

    def __iter__(self) -> Iterator[Elem]:
        return iter(self.elements)

    def __len__(self) -> int:
        return self._total

    def __contains__(self, e: Elem) -> bool:
        try:
            return e in self._map
        except TypeError:  # unhashable, so not an element value
            return False

    def __repr__(self) -> str:
        return f"Space({list(self.elements)!r})"

    __str__ = __repr__

    def product(self, other: "Space") -> "Space":
        """The product space, with Pair elements."""
        return Space._of(self._tensor(other), self._total * other._total)

    def power(self, k: int) -> list[tuple]:
        """All length-k sequences over this space, in lexicographic order."""
        _check_size(k, "sequence length")
        check_cells(len(self) ** k, f"{len(self)}^{k} sequence space")
        return list(itertools.product(self.elements, repeat=k))
