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
``Dist._over(outcomes, nums, d)``, which takes the outcomes and their
numerators as two parallel lists, checks the sum and reduces before it
builds the one dict, or the shared ``Dist._of(nums, d)``, which does
neither and is only for outputs normalized and reduced by construction,
each caller saying why.  The public constructor ``Dist(data)`` takes
weights alone.  The public views, ``entries`` (in canonical order) and
indexing, give weights as ``Fraction``s.

Distributions are themselves element values (hashable, canonically
ordered), which is what lets multisets of distributions and distributions
over distributions exist without any special cases.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .elements import _DIST, Elem, Space, _FiniteMap, _pairs, _set_key, _show, _Value, elem_key
from .errors import DomainError, _check_size, check_cells
from .multiset import Multiset, accumulate

Weight = int | Fraction


def _exact(w, elem: Elem) -> Weight:
    """``w`` when it is a weight: an ``int`` or a ``Fraction``, and not of a
    subclass such as ``bool``.  The ``DomainError`` otherwise names ``elem``."""
    if type(w) is int or type(w) is Fraction:
        return w
    if isinstance(w, float):
        raise DomainError(f"float weight {w!r} rejected: the library is exact")
    raise DomainError(f"weight {w!r} for {_show(elem)} is not an integer or a Fraction")


def _numerators(items: Iterable[tuple[Elem, Weight]]) -> tuple[dict[Elem, int], int]:
    """Exact positive weights as integer numerators over their least common
    denominator; zero weights are dropped, repeated elements add up."""
    weights: dict[Elem, Fraction | int] = {}
    for elem, w in items:
        w = _exact(w, elem)
        if w < 0:
            raise DomainError(f"negative weight {w} for {_show(elem)}")
        if w:
            prev = weights.get(elem)
            weights[elem] = w if prev is None else prev + w
    den = lcm(*[w.denominator for w in weights.values()])
    return {e: w.numerator * (den // w.denominator) for e, w in weights.items()}, den


def _check_sum(nums: Collection[int], den: int) -> None:
    total = sum(nums)
    if total != den:
        s = Fraction(total, den)
        try:
            shown = str(s)
        except ValueError:  # longer than the interpreter's int/str digit limit
            from decimal import Decimal  # reads an int without that limit
            n, d = (Decimal(v).adjusted() + 1 for v in (s.numerator, s.denominator))
            shown = f"a fraction of {n} digits over {d} digits"
        raise DomainError(f"weights sum to {shown}, not 1")


class Dist(_FiniteMap):
    """An immutable distribution: elements mapped to weights in (0, 1].

    Equality and hashing look at the numerators alone, which is sound
    because the reduced denominator is their sum.
    """

    __slots__ = ()

    def __init__(self, data: Mapping[Elem, Weight] | Iterable[tuple[Elem, Weight]]):
        nums, den = _numerators(_pairs(data))
        _check_sum(nums.values(), den)
        # Reduced: a prime dividing ``den`` divides some weight's own
        # denominator as often, so it does not divide that weight's numerator.
        self._store(nums, den)

    @classmethod
    def _over(cls, outcomes: Collection[Elem], nums: Collection[int], den: int) -> "Dist":
        """The library's builder from distinct outcomes and their positive
        integer numerators over ``den``, given in parallel.

        It checks that the numerators sum to ``den`` and divides them by
        their gcd with it before it builds the one dict, so each outcome is
        inserted once.  A caller that accumulated a dict passes its keys
        and its values.
        """
        _check_sum(nums, den)
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [n // g for n in nums]
        return cls._of(dict(zip(outcomes, nums)), den)

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
            _set_key(self, key)
        return self._key

    # -- functorial actions --------------------------------------------------

    def map(self, f: Callable[[Elem], Elem]) -> "Dist":
        """Deterministic pushforward; weights of collided images add up."""
        image = self._image(f)
        return Dist._over(image, image.values(), self._total)


def _dist(v, said: str) -> Dist:
    """``v`` when it is a ``Dist``.  A ``Multiset`` stores counts and their
    sum as a ``Dist`` does, so without this check it would pass for its
    normalization, stored unreduced.  ``said`` leads the one-line message."""
    if type(v) is not Dist:
        raise DomainError(f"{said} {_show(v)}, not a Dist")
    return v


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
    outs = [(n, _dist(f(x), "channel kernel returned"))
            for x, n in _dist(omega, "bind got")._map.items()]
    check_cells(sum(len(d._map) for _, d in outs), "bind kernel outcomes")
    den = lcm(*[d._total for _, d in outs])
    acc: dict[Elem, int] = {}
    for n, d in outs:
        scale = n * (den // d._total)
        for y, m in d._map.items():
            acc[y] = acc.get(y, 0) + scale * m
    return Dist._over(acc, acc.values(), omega._total * den)


def flatten(omega: Dist) -> Dist:
    """Multiplication of the monad: average the inner distributions."""
    def inner(d: Elem) -> Dist:
        if not isinstance(d, Dist):
            raise DomainError(f"flatten needs distribution elements, got {_show(d)}")
        return d
    return bind(omega, inner)


class Channel(_Value):
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
    and ``hash`` raise too, and still stores nothing there.  So does
    pickling, which stores the filled table and rebuilds the channel with
    ``from_mapping``, as parsing its ket text does; copies go the same way.
    """

    __slots__ = ("domain", "_kernel", "_table")

    def __init__(self, domain: Space | Iterable[Elem], kernel: Callable[[Elem], Dist]):
        if not isinstance(domain, Space):
            domain = Space(domain)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_kernel", kernel)
        object.__setattr__(self, "_table", {})

    def __reduce__(self):
        return Channel.from_mapping, ({x: self(x) for x in self.domain},)

    def __call__(self, x: Elem) -> Dist:
        # A stored point is in the domain, so the table is read first.
        try:
            out = self._table.get(x)
        except TypeError:  # unhashable, so not an element value
            out = None
        if out is None:
            if x not in self.domain:
                raise DomainError(f"{_show(x)} is outside the channel domain")
            out = self._table[x] = _dist(self._kernel(x), "channel kernel returned")
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
    if not _dist(omega, "push got")._map.keys() <= f.domain._map.keys():
        x = min([x for x in omega._map if x not in f.domain], key=elem_key)
        raise DomainError(f"support element {_show(x)} outside channel domain")
    return bind(omega, f)


def compose(g: Channel, f: Channel) -> Channel:
    """Kleisli composition: run ``f``, then ``g`` on its outcomes."""
    return Channel(f.domain, lambda x: push(g, f(x)))


def dtensor(omega: Dist, rho: Dist) -> Dist:
    """Product distribution on pair elements."""
    # Reduced: the numerators' gcd is the product of the factors' gcds, 1 and 1.
    return Dist._of(_dist(omega, "dtensor got")._tensor(_dist(rho, "dtensor got")),
                    omega._total * rho._total)


def ctensor(f: Channel, g: Channel) -> Channel:
    """Parallel product of channels, living on the pair domain."""
    domain = f.domain.product(g.domain)
    return Channel(domain, lambda p: dtensor(f(p.fst), g(p.snd)))


def big_tensor(omegas: Sequence[Dist]) -> Dist:
    """Product of a whole sequence of distributions, over tuple elements."""
    cells = 1
    for w in omegas:
        cells *= len(_dist(w, "big_tensor got")._map)
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
    return big_tensor([omega] * _check_size(k, "copy count"))


def flrn(m: Multiset) -> Dist:
    """Learn a distribution from a nonempty multiset by normalizing counts."""
    if m.size == 0:
        raise DomainError("cannot normalize the empty multiset")
    return Dist._over(m._map, m._map.values(), m.size)


def _truth(v, elem: Elem) -> tuple[int, int]:
    """The numerator and the denominator of ``v`` when it is a predicate
    value: a weight in [0, 1].  The ``DomainError`` otherwise names ``elem``."""
    # Reduced, with a positive denominator, so integers decide.
    n, d = _exact(v, elem).as_integer_ratio()
    if 0 <= n <= d:
        return n, d
    raise DomainError(f"predicate value {v} for {_show(elem)} outside [0, 1]")


class Predicate(_FiniteMap):
    """A fuzzy predicate: each element of its space mapped into [0, 1]."""

    __slots__ = ()

    def __init__(self, data: Mapping[Elem, Weight] | Iterable[tuple[Elem, Weight]]):
        values: dict[Elem, Fraction] = {}
        for elem, v in _pairs(data):
            v = Fraction(*_truth(v, elem))
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


def _weighed(omega: Dist, p: PredicateLike) -> tuple[list[int], int]:
    """The prior numerators of ``omega`` times the values of ``p``, in the
    order of its stored dict, over the values' least common denominator."""
    values = [_truth(p(x), x) for x in omega._map]
    den = lcm(*[d for _, d in values])
    return [n * v * (den // d) for n, (v, d) in zip(omega._map.values(), values)], den


def validity(omega: Dist, p: PredicateLike) -> Fraction:
    """Expected value of the predicate in the state."""
    nums, den = _weighed(_dist(omega, "validity got"), p)
    return Fraction(sum(nums), den * omega._total)


def update(omega: Dist, p: PredicateLike) -> Dist:
    """Condition the state on the evidence ``p`` and renormalize.

    ``p`` is called once per element.  The posterior numerators are the
    prior's times the values, over the values' least common denominator;
    elements of value 0 drop out.
    """
    weighed, _ = _weighed(_dist(omega, "update got"), p)
    outcomes, nums = [], []
    for x, n in zip(omega._map, weighed):
        if n:
            outcomes.append(x)
            nums.append(n)
    total = sum(nums)
    if total == 0:
        raise DomainError("cannot update on evidence with zero validity")
    return Dist._over(outcomes, nums, total)


def pred_extend(p: PredicateLike) -> Callable[[Multiset], Fraction]:
    """Free extension of a predicate to multisets, by pointwise product."""
    def extended(m: Multiset) -> Fraction:
        num = den = 1
        for e, n in m._map.items():
            v, d = _truth(p(e), e)
            num *= v ** n
            den *= d ** n
        return Fraction(num, den)
    return extended

