"""Finite discrete probability distributions, channels, and predicates.

A ``Dist`` is a formal convex sum of elements with exact rational weights
that add up to one; the constructor enforces this, so every distribution
in the library is normalized by construction.  A ``Channel`` pairs a
finite domain with a kernel producing a ``Dist`` per input; evaluating
both kernels over the whole domain decides channel equality.

Distributions are themselves element values (hashable, canonically
ordered), which is what lets multisets of distributions and distributions
over distributions exist without any special cases.
"""

from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .elements import Elem, Pair, Space, elem_key
from .errors import DomainError, check_cells
from .multiset import Multiset

_DIST_RANK = 4

Weight = int | Fraction


def _as_fraction(w: Weight) -> Fraction:
    if isinstance(w, float):
        raise DomainError(f"float weight {w!r} rejected: the library is exact")
    return Fraction(w)


class Dist:
    """An immutable distribution: elements mapped to weights in (0, 1]."""

    __slots__ = ("_entries", "_index", "_key", "_hash")

    def __init__(self, data: Mapping[Elem, Weight] | Iterable[tuple[Elem, Weight]]):
        weights: dict[Elem, Fraction] = {}
        items = data.items() if isinstance(data, Mapping) else data
        for elem, w in items:
            w = _as_fraction(w)
            if w < 0:
                raise DomainError(f"negative weight {w} for {elem!r}")
            if w:
                weights[elem] = weights.get(elem, Fraction(0)) + w
        total = sum(weights.values(), Fraction(0))
        if total != 1:
            raise DomainError(f"weights sum to {total}, not 1")
        entries = tuple(sorted(weights.items(), key=lambda it: elem_key(it[0])))
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_index", weights)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Dist is immutable")

    @classmethod
    def point(cls, elem: Elem) -> "Dist":
        return cls({elem: Fraction(1)})

    @classmethod
    def uniform(cls, values: Iterable[Elem]) -> "Dist":
        values = list(values)
        if not values:
            raise DomainError("uniform distribution over nothing")
        w = Fraction(1, len(values))
        return cls((v, w) for v in values)

    # -- views -------------------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[Elem, Fraction], ...]:
        return self._entries

    @property
    def support(self) -> tuple[Elem, ...]:
        return tuple(e for e, _ in self._entries)

    def __getitem__(self, elem: Elem) -> Fraction:
        return self._index.get(elem, Fraction(0))

    def __contains__(self, elem: Elem) -> bool:
        return elem in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, Dist) and self._entries == other._entries

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(("Dist", self._entries)))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{w} {e!r}" for e, w in self._entries)
        return f"Dist<{inner}>"

    def __str__(self) -> str:
        from .ket import format_value

        return format_value(self)

    def _element_sort_key(self) -> tuple:
        # Distributions order by support first, then by the weight vector.
        if self._key is None:
            key = (
                _DIST_RANK,
                tuple(elem_key(e) for e, _ in self._entries),
                tuple(w for _, w in self._entries),
            )
            object.__setattr__(self, "_key", key)
        return self._key

    # -- functorial actions --------------------------------------------------

    def map(self, f: Callable[[Elem], Elem]) -> "Dist":
        """Deterministic pushforward; weights of collided images add up."""
        return Dist((f(e), w) for e, w in self._entries)


def unit(elem: Elem) -> Dist:
    """Point mass: the unit of the distribution monad."""
    return Dist.point(elem)


def bind(omega: Dist, f: Callable[[Elem], Dist]) -> Dist:
    """Kleisli extension of a raw kernel function over a distribution."""
    acc: dict[Elem, Fraction] = {}
    for x, w in omega.entries:
        for y, v in f(x).entries:
            acc[y] = acc.get(y, Fraction(0)) + w * v
    return Dist(acc)


def flatten(omega: Dist) -> Dist:
    """Multiplication of the monad: average the inner distributions."""
    def inner(d: Elem) -> Dist:
        if not isinstance(d, Dist):
            raise DomainError(f"flatten needs distribution elements, got {d!r}")
        return d
    return bind(omega, inner)


class Channel:
    """A finite domain together with a kernel into distributions."""

    __slots__ = ("domain", "_kernel")

    def __init__(self, domain: Space | Iterable[Elem], kernel: Callable[[Elem], Dist]):
        if not isinstance(domain, Space):
            domain = Space(domain)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_kernel", kernel)

    def __setattr__(self, name, value):
        raise AttributeError("Channel is immutable")

    def __call__(self, x: Elem) -> Dist:
        if x not in self.domain:
            raise DomainError(f"{x!r} is outside the channel domain")
        out = self._kernel(x)
        if not isinstance(out, Dist):
            raise DomainError(f"channel kernel returned {out!r}, not a Dist")
        return out

    @classmethod
    def deterministic(cls, domain, f: Callable[[Elem], Elem]) -> "Channel":
        """Promote a plain function to a channel of point masses."""
        return cls(domain, lambda x: Dist.point(f(x)))

    @classmethod
    def identity(cls, domain) -> "Channel":
        return cls(domain, Dist.point)

    @classmethod
    def constant(cls, domain, omega: Dist) -> "Channel":
        return cls(domain, lambda _: omega)

    @classmethod
    def from_mapping(cls, table: Mapping[Elem, Dist]) -> "Channel":
        frozen = dict(table)
        return cls(frozen.keys(), lambda x: frozen[x])


def push(f: Channel, omega: Dist) -> Dist:
    """State transformation of ``omega`` along the channel ``f``.

    Rejects distributions whose support escapes the channel domain rather
    than renormalizing silently.
    """
    for x in omega.support:
        if x not in f.domain:
            raise DomainError(f"support element {x!r} outside channel domain")
    return bind(omega, f)


def compose(g: Channel, f: Channel) -> Channel:
    """Kleisli composition: run ``f``, then ``g`` on its outcomes."""
    return Channel(f.domain, lambda x: push(g, f(x)))


def dtensor(omega: Dist, rho: Dist) -> Dist:
    """Product distribution on pair elements."""
    check_cells(len(omega.entries) * len(rho.entries), "tensor product support")
    return Dist((Pair(x, y), v * w) for x, v in omega.entries for y, w in rho.entries)


def ctensor(f: Channel, g: Channel) -> Channel:
    """Parallel product of channels, living on the pair domain."""
    domain = f.domain.product(g.domain)
    return Channel(domain, lambda p: dtensor(f(p.fst), g(p.snd)))


def big_tensor(omegas: Sequence[Dist]) -> Dist:
    """Product of a whole sequence of distributions, over tuple elements."""
    cells = 1
    for w in omegas:
        cells *= len(w.entries)
    check_cells(cells, "big tensor support")
    acc: dict[tuple, Fraction] = {(): Fraction(1)}
    for omega in omegas:
        acc = {
            xs + (x,): w * v
            for xs, w in acc.items()
            for x, v in omega.entries
        }
    return Dist(acc)


def iid(omega: Dist, k: int) -> Dist:
    """K independent copies of the same distribution."""
    if k < 0:
        raise DomainError(f"copy count must be nonnegative: {k}")
    return big_tensor([omega] * k)


def flrn(m: Multiset) -> Dist:
    """Learn a distribution from a nonempty multiset by normalizing counts."""
    if m.size == 0:
        raise DomainError("cannot normalize the empty multiset")
    total = m.size
    return Dist((e, Fraction(n, total)) for e, n in m.entries)


class Predicate:
    """A fuzzy predicate: each element of its space mapped into [0, 1]."""

    __slots__ = ("_entries", "_index")

    def __init__(self, data: Mapping[Elem, Weight] | Iterable[tuple[Elem, Weight]]):
        values: dict[Elem, Fraction] = {}
        items = data.items() if isinstance(data, Mapping) else data
        for elem, v in items:
            v = _as_fraction(v)
            if not 0 <= v <= 1:
                raise DomainError(f"predicate value {v} for {elem!r} outside [0, 1]")
            if elem in values:
                raise DomainError(f"duplicate predicate entry for {elem!r}")
            values[elem] = v
        entries = tuple(sorted(values.items(), key=lambda it: elem_key(it[0])))
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_index", values)

    def __setattr__(self, name, value):
        raise AttributeError("Predicate is immutable")

    @property
    def entries(self) -> tuple[tuple[Elem, Fraction], ...]:
        return self._entries

    def __call__(self, elem: Elem) -> Fraction:
        try:
            return self._index[elem]
        except KeyError:
            raise DomainError(f"predicate not defined at {elem!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, Predicate) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(("Predicate", self._entries))

    def __repr__(self) -> str:
        inner = ", ".join(f"{e!r}: {v}" for e, v in self._entries)
        return f"Predicate({inner})"

    def __str__(self) -> str:
        from .ket import format_predicate

        return format_predicate(self)


PredicateLike = Predicate | Callable[[Elem], Fraction]


def validity(omega: Dist, p: PredicateLike) -> Fraction:
    """Expected value of the predicate in the state."""
    return sum((w * p(x) for x, w in omega.entries), Fraction(0))


def update(omega: Dist, p: PredicateLike) -> Dist:
    """Condition the state on the evidence ``p`` and renormalize."""
    v = validity(omega, p)
    if v == 0:
        raise DomainError("cannot update on evidence with zero validity")
    return Dist((x, w * p(x) / v) for x, w in omega.entries)


def pred_extend(p: PredicateLike) -> Callable[[Multiset], Fraction]:
    """Free extension of a predicate to multisets, by pointwise product."""
    def extended(m: Multiset) -> Fraction:
        out = Fraction(1)
        for e, n in m.entries:
            out *= p(e) ** n
        return out
    return extended


def channel_equal(f: Channel, g: Channel) -> bool:
    """Decide channel equality by evaluating both kernels on every input.

    The domains must enumerate the same elements; this is what makes the
    check terminate and makes it complete.
    """
    if f.domain != g.domain:
        return False
    return all(f(x) == g(x) for x in f.domain)
