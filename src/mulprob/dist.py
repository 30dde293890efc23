"""Finite discrete probability distributions, channels, and predicates.

A ``Dist`` is a formal convex sum of elements with exact rational weights
that add up to one; the constructor enforces this, so every distribution
in the library is normalized by construction.  A ``Channel`` pairs a
finite domain with a kernel producing a ``Dist`` per input, and keeps the
outputs it has computed in a table filled on demand, so it is a finite
value: a function on its domain whose kernel runs at most once per point,
with ``==`` and ``hash`` taken over the whole table.

Internally a ``Dist`` is a reduced multiset: positive integer numerators
whose sum is the denominator, reduced once on construction so that they
share no factor.  That representation is canonical, so equality compares
integers, and the operations that build distributions (``bind``, the
tensors, the draw channels, the monoid sum behind ``pml``) add and multiply
integers rather than ``Fraction``s.  It is the count store of
``elements._FiniteMap``, the one ``Multiset`` uses: the modules of the
package read it through ``_map`` (element to numerator, in no particular
order) and ``_total`` (the denominator), and build from it with
``Dist(nums, denominator=d)``, which checks the sum and reduces, or the
shared ``Dist._of(nums, d)``, which does neither and is only for outputs
normalized and reduced by construction, each caller saying why.  The
public views, ``entries`` (in canonical order) and indexing, give weights
as ``Fraction``s.

Distributions are themselves element values (hashable, canonically
ordered), which is what lets multisets of distributions and distributions
over distributions exist without any special cases.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence

from .elements import _DIST, Elem, Space, _FiniteMap, _pairs, _show, elem_key
from .errors import DomainError, check_cells
from .multiset import Multiset, accumulate

Weight = int | Fraction


def _as_fraction(w: Weight) -> Fraction:
    if isinstance(w, float):
        raise DomainError(f"float weight {w!r} rejected: the library is exact")
    return Fraction(w)


def _exact(w: Weight) -> Weight:
    t = type(w)
    return w if t is Fraction or t is int else _as_fraction(w)


def _numerators(items: Iterable[tuple[Elem, Weight]]) -> tuple[dict[Elem, int], int]:
    """Exact positive weights as integer numerators over their least common
    denominator; zero weights are dropped, repeated elements add up."""
    weights: dict[Elem, Fraction | int] = {}
    for elem, w in items:
        w = _exact(w)
        if w < 0:
            raise DomainError(f"negative weight {w} for {_show(elem)}")
        if w:
            prev = weights.get(elem)
            weights[elem] = w if prev is None else prev + w
    den = lcm(*[w.denominator for w in weights.values()])
    return {e: w.numerator * (den // w.denominator) for e, w in weights.items()}, den


class Dist(_FiniteMap):
    """An immutable distribution: elements mapped to weights in (0, 1]."""

    __slots__ = ()

    def __init__(self, data: Mapping[Elem, Weight] | Iterable[tuple[Elem, Weight]], *,
                 denominator: int | None = None):
        # With ``denominator``, ``data`` is a fresh dict of positive integer
        # numerators over it, built by the library's own operations; it is kept.
        if denominator is None:
            data, denominator = _numerators(_pairs(data))
        total = sum(data.values())
        if total != denominator:
            s = Fraction(total, denominator)
            try:
                shown = str(s)
            except ValueError:  # longer than the interpreter's int/str digit limit
                from decimal import Decimal  # reads an int without that limit
                n, d = (Decimal(v).adjusted() + 1 for v in (s.numerator, s.denominator))
                shown = f"a fraction of {n} digits over {d} digits"
            raise DomainError(f"weights sum to {shown}, not 1")
        g = gcd(denominator, *data.values())
        if g != 1:
            denominator //= g
            data = {e: n // g for e, n in data.items()}
        # Equality and hashing look at the numerators alone, which is sound
        # because the reduced denominator is their sum.
        self._store(data, denominator)

    @classmethod
    def uniform(cls, values: Iterable[Elem]) -> "Dist":
        m = accumulate(values)
        if not m:
            raise DomainError("uniform distribution over nothing")
        return flrn(m)

    # -- views -------------------------------------------------------------

    def _public(self, n: int) -> Fraction:
        return Fraction(n, self._total)

    def __getitem__(self, elem: Elem) -> Fraction:
        return Fraction(self._map.get(elem, 0), self._total)

    def _element_sort_key(self) -> tuple:
        # Distributions order by support first, then by the weight vector.
        if self._key is None:
            key = (_DIST, tuple([elem_key(e) for e, _ in self.entries]),
                   tuple([w for _, w in self.entries]))
            object.__setattr__(self, "_key", key)
        return self._key

    # -- functorial actions --------------------------------------------------

    def map(self, f: Callable[[Elem], Elem]) -> "Dist":
        """Deterministic pushforward; weights of collided images add up."""
        return Dist(self._image(f), denominator=self._total)


def unit(elem: Elem) -> Dist:
    """Point mass: the unit of the distribution monad."""
    return Dist._of({elem: 1}, 1)  # reduced: 1 over 1


def bind(omega: Dist, f: Callable[[Elem], Dist]) -> Dist:
    """Kleisli extension of a raw kernel function over a distribution.

    The kernel runs on the support in the order of ``omega``'s stored dict,
    which follows how ``omega`` was built and not the hash seed.  The
    budget counts the outcomes of all kernel calls together, before they
    are combined.
    """
    outs = [(n, f(x)) for x, n in omega._map.items()]
    check_cells(sum(len(d._map) for _, d in outs), "bind kernel outcomes")
    den = lcm(*[d._total for _, d in outs])
    acc: dict[Elem, int] = {}
    for n, d in outs:
        scale = n * (den // d._total)
        for y, m in d._map.items():
            acc[y] = acc.get(y, 0) + scale * m
    return Dist(acc, denominator=omega._total * den)


def flatten(omega: Dist) -> Dist:
    """Multiplication of the monad: average the inner distributions."""
    def inner(d: Elem) -> Dist:
        if not isinstance(d, Dist):
            raise DomainError(f"flatten needs distribution elements, got {_show(d)}")
        return d
    return bind(omega, inner)


class Channel:
    """A finite domain together with a kernel into distributions.

    A channel is a function on its finite domain: the kernel runs at most
    once per point per channel object, and the output is kept in the
    channel's table, which fills as points are asked for.  A stored output
    is returned under any later ``MULPROB_MAX_CELLS``, since nothing is
    computed then.  A kernel that raises, a budget error included, or
    returns something other than a ``Dist`` stores nothing, so the next
    call at that point runs it again.

    Channels are values: two are equal when their domains are equal and
    they agree at every point, and the hash is taken over the whole table.
    Both fill the table, so a kernel that raises at some point makes ``==``
    and ``hash`` raise too, and still stores nothing there.
    """

    __slots__ = ("domain", "_kernel", "_table")

    def __init__(self, domain: Space | Iterable[Elem], kernel: Callable[[Elem], Dist]):
        if not isinstance(domain, Space):
            domain = Space(domain)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_kernel", kernel)
        object.__setattr__(self, "_table", {})

    def __setattr__(self, name, value):
        raise AttributeError("Channel is immutable")

    def __call__(self, x: Elem) -> Dist:
        # A stored point is in the domain, so the table is read first.
        try:
            out = self._table.get(x)
        except TypeError:  # unhashable, so not an element value
            out = None
        if out is None:
            if x not in self.domain:
                raise DomainError(f"{_show(x)} is outside the channel domain")
            out = self._kernel(x)
            if not isinstance(out, Dist):
                raise DomainError(f"channel kernel returned {_show(out)}, not a Dist")
            self._table[x] = out
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Channel):
            return NotImplemented
        return self.domain == other.domain and all(self(x) == other(x) for x in self.domain)

    def __hash__(self) -> int:
        return hash((self.domain, tuple([self(x) for x in self.domain])))

    @classmethod
    def deterministic(cls, domain, f: Callable[[Elem], Elem]) -> "Channel":
        """Promote a plain function to a channel of point masses."""
        return cls(domain, lambda x: unit(f(x)))

    @classmethod
    def identity(cls, domain) -> "Channel":
        return cls(domain, unit)

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
    if not omega._map.keys() <= f.domain._members:
        x = min([x for x in omega._map if x not in f.domain], key=elem_key)
        raise DomainError(f"support element {_show(x)} outside channel domain")
    return bind(omega, f)


def compose(g: Channel, f: Channel) -> Channel:
    """Kleisli composition: run ``f``, then ``g`` on its outcomes."""
    return Channel(f.domain, lambda x: push(g, f(x)))


def dtensor(omega: Dist, rho: Dist) -> Dist:
    """Product distribution on pair elements."""
    # Reduced: the numerators' gcd is the product of the factors' gcds, 1 and 1.
    return Dist._of(omega._tensor(rho), omega._total * rho._total)


def ctensor(f: Channel, g: Channel) -> Channel:
    """Parallel product of channels, living on the pair domain."""
    domain = f.domain.product(g.domain)
    return Channel(domain, lambda p: dtensor(f(p.fst), g(p.snd)))


def big_tensor(omegas: Sequence[Dist]) -> Dist:
    """Product of a whole sequence of distributions, over tuple elements."""
    cells = 1
    for w in omegas:
        cells *= len(w._map)
    check_cells(cells, "big tensor support")
    acc: dict[tuple, int] = {(): 1}
    den = 1
    for omega in omegas:
        nums = omega._map.items()
        acc = {xs + (x,): w * v for xs, w in acc.items() for x, v in nums}
        den *= omega._total
    # Reduced as a product of reduced states, as in ``dtensor``.
    return Dist._of(acc, den)


def iid(omega: Dist, k: int) -> Dist:
    """K independent copies of the same distribution."""
    if k < 0:
        raise DomainError(f"copy count must be nonnegative: {k}")
    return big_tensor([omega] * k)


def flrn(m: Multiset) -> Dist:
    """Learn a distribution from a nonempty multiset by normalizing counts."""
    if m.size == 0:
        raise DomainError("cannot normalize the empty multiset")
    return Dist(dict(m._map), denominator=m.size)


class Predicate(_FiniteMap):
    """A fuzzy predicate: each element of its space mapped into [0, 1]."""

    __slots__ = ()

    def __init__(self, data: Mapping[Elem, Weight] | Iterable[tuple[Elem, Weight]]):
        values: dict[Elem, Fraction] = {}
        for elem, v in _pairs(data):
            v = _as_fraction(v)
            if not 0 <= v <= 1:
                raise DomainError(f"predicate value {v} for {_show(elem)} outside [0, 1]")
            if elem in values:
                raise DomainError(f"duplicate predicate entry for {_show(elem)}")
            values[elem] = v
        self._store(values)

    def __call__(self, elem: Elem) -> Fraction:
        try:
            return self._map[elem]
        except KeyError:
            raise DomainError(f"predicate not defined at {_show(elem)}") from None


PredicateLike = Predicate | Callable[[Elem], Fraction]


def validity(omega: Dist, p: PredicateLike) -> Fraction:
    """Expected value of the predicate in the state."""
    return sum((n * p(x) for x, n in omega._map.items()), Fraction(0)) / omega._total


def update(omega: Dist, p: PredicateLike) -> Dist:
    """Condition the state on the evidence ``p`` and renormalize.

    ``p`` is called once per element; the posterior numerators are the
    prior's times the values over their least common denominator.
    """
    values, _ = _numerators((x, p(x)) for x in omega._map)
    nums = {x: omega._map[x] * v for x, v in values.items()}
    total = sum(nums.values())
    if total == 0:
        raise DomainError("cannot update on evidence with zero validity")
    return Dist(nums, denominator=total)


def pred_extend(p: PredicateLike) -> Callable[[Multiset], Fraction]:
    """Free extension of a predicate to multisets, by pointwise product."""
    def extended(m: Multiset) -> Fraction:
        num = den = 1
        for e, n in m._map.items():
            v = _exact(p(e))
            num *= v.numerator ** n
            den *= v.denominator ** n
        return Fraction(num, den)
    return extended

