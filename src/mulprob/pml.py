"""Turning a multiset of distributions into a distribution over multisets.

This is the library's central construction.  It admits several equivalent
formulations, all implemented here:

* ``pml_def1``: enumerate joint outcomes of the product of the member
  distributions (each taken as often as its multiplicity) and collapse
  every outcome tuple to its multiset of counts.
* ``pml_def2``: draw from each member with the multinomial of its
  multiplicity, independently in parallel, and sum the draws.  This is
  the cheapest route and what ``pml`` delegates to.
* ``pml_def4``: the algebraic route.  Distributions over a commutative
  monoid form a commutative monoid themselves, with sum given by
  ``monoid_sum`` below; folding that structure over point-mass images of
  the members yields the same law.
* ``pml_def3_check``: the remaining characterization is universal rather
  than computational, so it is exposed as a decidable check: collapsing a
  tuple of distributions to a multiset and applying ``pml`` must agree
  with tensoring the tuple and collapsing the outcomes.

Their agreement is checked, not assumed: the law suite re-derives it on
enumerated inputs.  ``lifted_map`` uses the law to apply a channel
elementwise to a multiset, the workhorse behind the sampling round trip.
"""

from fractions import Fraction
from typing import Sequence

from .channels import multinomial, multiset_space
from .dist import Channel, Dist, big_tensor, bind, unit
from .errors import DomainError, check_cells
from .multiset import Multiset, accumulate

__all__ = [
    "monoid_sum",
    "monoid_algebra",
    "pml",
    "pml_def1",
    "pml_def2",
    "pml_def4",
    "pml_def3_check",
    "lifted_map",
]


def _check_members(psi: Multiset) -> None:
    for member, _ in psi.entries:
        if not isinstance(member, Dist):
            raise DomainError(f"expected a multiset of distributions, found {member!r}")


def monoid_sum(a: Dist, b: Dist) -> Dist:
    """Sum of two independent multiset-valued distributions.

    The convolution with respect to multiset addition; it makes the set of
    distributions over multisets a commutative monoid, with unit the point
    mass at the empty multiset.  The budget counts pairs of outcomes.
    """
    check_cells(len(a.entries) * len(b.entries), "monoid sum outcome pairs")
    acc: dict[Multiset, Fraction] = {}
    for phi, w in a.entries:
        for chi, v in b.entries:
            key = phi + chi
            acc[key] = acc.get(key, Fraction(0)) + w * v
    return Dist(acc)


def monoid_algebra(psi: Multiset) -> Dist:
    """Fold a multiset of multiset-valued distributions with ``monoid_sum``.

    This is the structure map induced by the monoid: formal sums of
    distributions become iterated convolutions.  The empty multiset maps
    to the monoid unit.
    """
    out = unit(Multiset())
    for member, n in psi.entries:
        if not isinstance(member, Dist):
            raise DomainError(f"expected distribution elements, found {member!r}")
        for _ in range(n):
            out = monoid_sum(out, member)
    return out


def pml_def1(psi: Multiset) -> Dist:
    """Joint-outcome formulation: tensor all members, collapse each tuple.

    The members are ordered canonically before tensoring; the result does
    not depend on that order.  Cost is the product of the support sizes,
    one factor per occurrence.
    """
    _check_members(psi)
    cells = 1
    for member, n in psi.entries:
        cells *= len(member.entries) ** n
    check_cells(cells, "joint outcome enumeration")

    partial: dict[tuple, Fraction] = {(): Fraction(1)}
    for member, n in psi.entries:
        for _ in range(n):
            partial = {
                xs + (x,): w * v
                for xs, w in partial.items()
                for x, v in member.entries
            }
    acc: dict[Multiset, Fraction] = {}
    for xs, w in partial.items():
        key = accumulate(xs)
        acc[key] = acc.get(key, Fraction(0)) + w
    return Dist(acc)


def pml_def2(psi: Multiset) -> Dist:
    """Parallel-draws formulation: one multinomial per member, then sum."""
    _check_members(psi)
    out = unit(Multiset())
    for member, n in psi.entries:
        out = monoid_sum(out, multinomial(member, n))
    return out


def pml_def4(psi: Multiset) -> Dist:
    """Algebraic formulation: point-mass images folded by the monoid."""
    _check_members(psi)
    singletons = psi.map_elements(lambda w: w.map(lambda x: Multiset({x: 1})))
    return monoid_algebra(singletons)


def pml(psi: Multiset) -> Dist:
    """Canonical entry point; delegates to the parallel-draws route."""
    return pml_def2(psi)


def pml_def3_check(omegas: Sequence[Dist]) -> bool:
    """Does the defining triangle commute at this tuple of distributions?

    Checks that applying ``pml`` to the multiset of the tuple's members
    equals tensoring the tuple and accumulating the outcome sequences.
    """
    lhs = pml(accumulate(omegas))
    rhs = bind(big_tensor(list(omegas)), lambda xs: unit(accumulate(xs)))
    return lhs == rhs


def lifted_map(f: Channel, k: int) -> Channel:
    """Apply a channel to every occurrence in a size-k multiset.

    The result is a channel between multiset spaces: push each element of
    the input multiset through ``f`` and recombine the outcome
    distributions with ``pml``.
    """
    if k < 0:
        raise DomainError(f"multiset size must be nonnegative: {k}")
    domain = multiset_space(f.domain, k)
    return Channel(domain, lambda phi: pml(phi.map_elements(f)))
