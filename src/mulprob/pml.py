"""Turning a multiset of distributions into a distribution over multisets.

This is the library's central construction.  It admits several equivalent
formulations; the two computed here are

* ``pml``: draw from each member with the multinomial of its
  multiplicity, independently in parallel, and sum the draws with
  ``monoid_sum``.  This parallel-draws route is the cheapest one.
* ``pml_def3_check``: the characterization that is universal rather than
  computational, exposed as a decidable check: collapsing a tuple of
  distributions to a multiset and applying ``pml`` must agree with
  tensoring the tuple and collapsing the outcomes.

The joint-outcome route (``pml_def1``) and the algebraic route through
the monoid structure (``pml_def4``, ``monoid_algebra``) exist only to
cross-check this one and live in ``mulprob.oracles``.  Their agreement is
checked, not assumed: the law suite re-derives it on enumerated inputs.
``lifted_map`` uses the law to apply a channel elementwise to a multiset,
the workhorse behind the sampling round trip.
"""

from typing import Sequence

from .channels import multinomial, multiset_space
from .dist import Channel, Dist, big_tensor, bind, unit
from .errors import DomainError, check_cells
from .multiset import Multiset, accumulate

__all__ = ["monoid_sum", "pml", "pml_def3_check", "lifted_map"]


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
    check_cells(len(a._map) * len(b._map), "monoid sum outcome pairs")
    acc: dict[Multiset, int] = {}
    b_nums = b._map.items()
    for phi, w in a._map.items():
        for chi, v in b_nums:
            key = phi + chi
            acc[key] = acc.get(key, 0) + w * v
    return Dist(acc, denominator=a._den * b._den)


def pml(psi: Multiset) -> Dist:
    """Parallel-draws formulation: one multinomial per member, then sum."""
    _check_members(psi)
    out = unit(Multiset())
    for member, n in psi.entries:
        out = monoid_sum(out, multinomial(member, n))
    return out


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
