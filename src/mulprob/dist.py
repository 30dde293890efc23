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
tensors, the draw channels, ``pml`` and the monoid sum) add and multiply
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

from .elements import (
    _DIST, Elem, Space, _FiniteMap, _function, _kind, _pairs, _set_key, _show, _Value, elem_key)
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
            entries = self.entries
            key = (_DIST, tuple([elem_key(e) for e, _ in entries]), tuple([w for _, w in entries]))
            _set_key(self, key)
        return self._key

    # -- functorial actions --------------------------------------------------

    def map(self, f: Callable[[Elem], Elem]) -> "Dist":
        """Deterministic pushforward; weights of collided images add up."""
        image = self._image(_function(f, "map got"))
        return Dist._over(image, image.values(), self._total)


def unit(elem: Elem) -> Dist:
    """Point mass: the unit of the distribution monad."""
    return Dist._of({elem: 1}, 1)  # reduced: 1 over 1


def bind(omega: Dist, f: Callable[[Elem], Dist]) -> Dist:
    """Kleisli extension of a raw kernel function over a distribution.

    The kernel runs on the support in the order of ``omega``'s stored dict,
    which follows how ``omega`` was built and not the hash seed.  Each
    kernel output is merged as soon as it returns and then dropped, so no
    output outlives its merge: one dict operation gives each outcome the
    slot of its numerator, first-seen outcomes first (an outcome object
    seen before is found by its cached hash and identity, with no
    comparison), and its numerator times the weight of the point is added
    in the group of the kernel's denominator.  The budget counts the
    outcomes of all kernel calls together; it is checked after the last
    call, before the groups are combined over their least common
    denominator into the one dict.
    """
    index: dict[Elem, int] = {}
    # Kernel denominator -> slot -> the sum of ``n * m`` over the outcomes
    # in that slot of the calls with that denominator.  Sparse, so the
    # work stays one step per outcome however many denominators there are.
    groups: dict[int, dict[int, int]] = {}
    cells = 0
    _function(f, "bind got")
    for x, n in _kind(omega, Dist, "bind got")._map.items():
        d = _kind(f(x), Dist, "channel kernel returned")
        cells += len(d._map)
        nums = groups.get(d._total)
        if nums is None:
            groups[d._total] = {index.setdefault(y, len(index)): n * m for y, m in d._map.items()}
        else:
            for y, m in d._map.items():
                i = index.setdefault(y, len(index))
                nums[i] = nums.get(i, 0) + n * m
        # Dropped before the next call, so the output is freed now.
        del d
    check_cells(cells, "bind kernel outcomes")
    den = lcm(*groups)
    total = [0] * len(index)
    for t, nums in groups.items():
        scale = den // t
        for i, v in nums.items():
            total[i] += scale * v
    return Dist._over(index, total, omega._total * den)


def flatten(omega: Dist) -> Dist:
    """Multiplication of the monad: average the inner distributions."""
    return bind(omega, lambda d: _kind(d, Dist, "flatten needs distribution elements, got"))


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
        object.__setattr__(self, "_kernel", _function(kernel, "Channel got"))
        object.__setattr__(self, "_table", {})

    def __reduce__(self):
        return Channel.from_mapping, ({x: self(x) for x in self.domain._map},)

    def __call__(self, x: Elem) -> Dist:
        # A stored point is in the domain, so the table is read first.
        try:
            out = self._table.get(x)
        except TypeError:  # unhashable, so not an element value
            out = None
        if out is None:
            if x not in self.domain:
                raise DomainError(f"{_show(x)} is outside the channel domain")
            out = self._table[x] = _kind(self._kernel(x), Dist, "channel kernel returned")
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
        _function(f, "deterministic got")
        return cls(domain, lambda x: unit(f(x)))

    @classmethod
    def identity(cls, domain) -> "Channel":
        return cls(domain, unit)

    @classmethod
    def constant(cls, domain, omega: Dist) -> "Channel":
        return cls(domain, lambda _: omega)

    @classmethod
    def from_mapping(cls, table: Mapping[Elem, Dist]) -> "Channel":
        if not isinstance(table, Mapping):
            raise DomainError(f"from_mapping got {_show(table)}, not a Mapping")
        frozen = dict(table)
        return cls(frozen.keys(), lambda x: frozen[x])


def push(f: Channel, omega: Dist) -> Dist:
    """State transformation of ``omega`` along the channel ``f``.

    Rejects distributions whose support escapes the channel domain rather
    than renormalizing silently.
    """
    support = _kind(omega, Dist, "push got")._map.keys()
    if not support <= _kind(f, Channel, "push got").domain._map.keys():
        escaping = [x for x in support if x not in f.domain]
        try:
            x = min(escaping, key=elem_key)
        except TypeError:  # an element outside the grammar has no sort key
            x = escaping[0]
        raise DomainError(f"support element {_show(x)} outside channel domain")
    return bind(omega, f)


def compose(g: Channel, f: Channel) -> Channel:
    """Kleisli composition: run ``f``, then ``g`` on its outcomes."""
    _kind(g, Channel, "compose got")
    return Channel(_kind(f, Channel, "compose got").domain, lambda x: push(g, f(x)))


def dtensor(omega: Dist, rho: Dist) -> Dist:
    """Product distribution on pair elements."""
    # Reduced: the numerators' gcd is the product of the factors' gcds, 1 and 1.
    return Dist._of(_kind(omega, Dist, "dtensor got")._tensor(_kind(rho, Dist, "dtensor got")),
                    omega._total * rho._total)


def ctensor(f: Channel, g: Channel) -> Channel:
    """Parallel product of channels, living on the pair domain."""
    domain = _kind(f, Channel, "ctensor got").domain.product(
        _kind(g, Channel, "ctensor got").domain)
    return Channel(domain, lambda p: dtensor(f(p.fst), g(p.snd)))


def big_tensor(omegas: Sequence[Dist]) -> Dist:
    """Product of a whole sequence of distributions, over tuple elements."""
    cells = 1
    for w in omegas:
        cells *= len(_kind(w, Dist, "big_tensor got")._map)
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
    if _kind(m, Multiset, "flrn got").size == 0:
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
        except (KeyError, TypeError):  # or unhashable, so not an element value
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
    nums, den = _weighed(_kind(omega, Dist, "validity got"), _function(p, "validity got"))
    return Fraction(sum(nums), den * omega._total)


def update(omega: Dist, p: PredicateLike) -> Dist:
    """Condition the state on the evidence ``p`` and renormalize.

    ``p`` is called once per element.  The posterior numerators are the
    prior's times the values, over the values' least common denominator;
    elements of value 0 drop out.
    """
    weighed, _ = _weighed(_kind(omega, Dist, "update got"), _function(p, "update got"))
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
    _function(p, "pred_extend got")
    def extended(m: Multiset) -> Fraction:
        num = den = 1
        for e, n in m._map.items():
            v, d = _truth(p(e), e)
            num *= v ** n
            den *= d ** n
        return Fraction(num, den)
    return extended

