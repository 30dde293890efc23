"""The library's named probabilistic channels.

Draws with replacement (multinomial) and without (hypergeometric), single
draw-and-delete, uniform arrangement of a multiset into sequences, the
probabilistic zip of two equal-size multisets, and the deterministic
concatenation-style sum channel.

The draw distributions are computed from their closed coefficient
formulas over the enumerated multiset space, so the support cost is
multichoose-sized; the equivalent sequence-space route exists in the test
suite as an independent oracle.
"""

from fractions import Fraction
from typing import Iterable, Sequence

from .combinatorics import binomial
from .dist import Dist
from .elements import Elem, Pair, Space
from .errors import DomainError, check_cells
from .multiset import Multiset, accumulate, enumerate_arrangements, enumerate_multisets


def arrange(m: Multiset) -> Dist:
    """Uniform distribution over the distinct sequences accumulating to m."""
    seqs = enumerate_arrangements(m)
    w = Fraction(1, len(seqs))
    return Dist((s, w) for s in seqs)


def multinomial(omega: Dist, k: int) -> Dist:
    """Distribution of size-k draws with replacement from ``omega``.

    The weight of a draw is its multiset coefficient times the product of
    the element probabilities, each raised to its multiplicity.
    """
    if k < 0:
        raise DomainError(f"draw size must be nonnegative: {k}")
    weights = {}
    for phi in enumerate_multisets(omega.support, k):
        w = Fraction(phi.coefficient())
        for x, n in phi.entries:
            w *= omega[x] ** n
        weights[phi] = w
    return Dist(weights)


def _sub_multisets(urn: Multiset, k: int) -> list[Multiset]:
    """All size-k multisets below ``urn`` in the pointwise order."""
    entries = urn.entries

    def rec(i: int, budget: int) -> list[list[tuple[Elem, int]]]:
        if i == len(entries):
            return [[]] if budget == 0 else []
        elem, avail = entries[i]
        out = []
        for n in range(min(avail, budget) + 1):
            for rest in rec(i + 1, budget - n):
                out.append(([(elem, n)] + rest) if n else rest)
        return out

    return [Multiset(es) for es in rec(0, k)]


def hypergeometric(urn: Multiset, k: int) -> Dist:
    """Distribution of size-k draws without replacement from the urn."""
    n = urn.size
    if not 0 <= k <= n:
        raise DomainError(f"cannot draw {k} from an urn of size {n}")
    denom = binomial(n, k)
    weights = {}
    for phi in _sub_multisets(urn, k):
        w = 1
        for x, m in phi.entries:
            w *= binomial(urn[x], m)
        weights[phi] = Fraction(w, denom)
    return Dist(weights)


def draw_delete(urn: Multiset) -> Dist:
    """Remove one element, chosen with probability proportional to count."""
    size = urn.size
    if size == 0:
        raise DomainError("cannot draw from an empty urn")
    return Dist((urn.remove_one(x), Fraction(n, size)) for x, n in urn.entries)


def ppr(xs: tuple) -> Dist:
    """Uniform mixture of the single-position deletions of a sequence."""
    if len(xs) == 0:
        raise DomainError("cannot project away a position of the empty sequence")
    w = Fraction(1, len(xs))
    acc: dict[tuple, Fraction] = {}
    for i in range(len(xs)):
        shorter = xs[:i] + xs[i + 1:]
        acc[shorter] = acc.get(shorter, Fraction(0)) + w
    return Dist(acc)


def zip_tuples(xs: Sequence[Elem], ys: Sequence[Elem]) -> tuple:
    """Positionwise pairing of two equal-length sequences."""
    if len(xs) != len(ys):
        raise DomainError(f"zip length mismatch: {len(xs)} vs {len(ys)}")
    return tuple(Pair(x, y) for x, y in zip(xs, ys))


def mzip(phi: Multiset, psi: Multiset) -> Dist:
    """Probabilistic zip of two equal-size multisets.

    Every pair of arrangements of the inputs is zipped positionwise and
    re-accumulated; each pair contributes uniformly.  The cost is the
    product of the two multiset coefficients.
    """
    if phi.size != psi.size:
        raise DomainError(f"mzip size mismatch: {phi.size} vs {psi.size}")
    cphi = phi.coefficient()
    cpsi = psi.coefficient()
    check_cells(cphi * cpsi, "mzip arrangement pairs")
    w = Fraction(1, cphi * cpsi)
    acc: dict[Multiset, Fraction] = {}
    for xs in enumerate_arrangements(phi):
        for ys in enumerate_arrangements(psi):
            zipped = accumulate(zip_tuples(xs, ys))
            acc[zipped] = acc.get(zipped, Fraction(0)) + w
    return Dist(acc)


def msum_channel(phi: Multiset, psi: Multiset) -> Dist:
    """Sum of two multisets, computed the long way round.

    Arranges both inputs, concatenates every pair of sequences, and
    accumulates again.  The mixture provably collapses to a single point;
    this is asserted before returning.
    """
    cphi = phi.coefficient()
    cpsi = psi.coefficient()
    check_cells(cphi * cpsi, "concatenation arrangement pairs")
    w = Fraction(1, cphi * cpsi)
    acc: dict[Multiset, Fraction] = {}
    for xs in enumerate_arrangements(phi):
        for ys in enumerate_arrangements(psi):
            joined = accumulate(xs + ys)
            acc[joined] = acc.get(joined, Fraction(0)) + w
    out = Dist(acc)
    if out.support != (phi + psi,):
        raise DomainError("concatenation channel failed to collapse to the sum")
    return out


def multiset_space(space: Space | Iterable[Elem], k: int) -> Space:
    """The space of all size-k multisets over ``space``, the domain of ``lifted_map``."""
    return Space(enumerate_multisets(space, k))
