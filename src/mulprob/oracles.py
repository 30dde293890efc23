"""Long-way-round routes kept only to cross-check the production ones.

Each function here computes something the library already computes more
cheaply, by following the paper's definition literally.  They are not
part of the calculator: the law suite and the tests call them to confirm
that the fast route and the definition agree.

* ``mzip_arrangements``: the multiset zip as defined, by arranging both
  inputs, zipping every pair of sequences positionwise and accumulating.
  Its cost is the product of the two multiset coefficients, where the
  production ``channels.mzip`` costs one step per contingency table.
* ``msum_channel``: the sum of two multisets via concatenation of
  arrangements, which collapses to the point mass at ``phi + psi``, as
  the law ``msum-deterministic`` checks.
* ``pml_def1``: the distributive law by joint outcomes, tensoring
  every occurrence of every member and collapsing each outcome tuple.
  Its cost is the product of the support sizes, one factor per
  occurrence; ``pml.pml`` draws each member once with its multiplicity.
  It adds ``Fraction``s, independently of the integer arithmetic of the
  production route.
* ``pml_def4`` and ``monoid_algebra``: the law by the monoid structure,
  folding the monoid sum over the point-mass images of the members one
  occurrence at a time.  Its monoid sum adds outcome multisets pairwise
  with ``Multiset.__add__``, independently of the packed-count kernel
  that ``pml.monoid_sum`` and ``pml.pml`` share.
* ``pml_def3_check``: the law's defining triangle at one tuple of
  distributions, which characterizes it rather than computes it.
* ``permutation_mix``: arranging the multiset of a sequence, by listing
  every permutation of the sequence; the budget counts the ``len(xs)!``
  permutations before any is listed.
"""

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .channels import zip_tuples
from .dist import Dist, big_tensor, bind, unit
from .errors import DomainError, check_cells
from .multiset import Multiset, accumulate, enumerate_arrangements
from .pml import _check_members, pml


def _joined_pairs(phi: Multiset, psi: Multiset, join, what: str) -> Dist:
    """Every pair of arrangements of the inputs, joined by ``join`` and
    accumulated, each pair weighing the same: the number of pairs that
    join to each outcome, over the number of pairs."""
    pairs = phi.coefficient() * psi.coefficient()
    check_cells(pairs, what)
    ys_all = enumerate_arrangements(psi)
    counts: dict[Multiset, int] = {}
    for xs in enumerate_arrangements(phi):
        for ys in ys_all:
            joined = accumulate(join(xs, ys))
            counts[joined] = counts.get(joined, 0) + 1
    return Dist({m: Fraction(n, pairs) for m, n in counts.items()})


def mzip_arrangements(phi: Multiset, psi: Multiset) -> Dist:
    """Probabilistic zip of two equal-size multisets, by its definition.

    Every pair of arrangements of the inputs is zipped positionwise and
    re-accumulated; each pair contributes uniformly.
    """
    if phi.size != psi.size:
        raise DomainError(f"mzip size mismatch: {phi.size} vs {psi.size}")
    return _joined_pairs(phi, psi, zip_tuples, "mzip arrangement pairs")


def msum_channel(phi: Multiset, psi: Multiset) -> Dist:
    """Sum of two multisets, computed the long way round.

    Arranges both inputs, concatenates every pair of sequences, and
    accumulates again.  The mixture provably collapses to the point mass
    at ``phi + psi``; the law ``msum-deterministic`` checks that it does,
    and names a witness where it does not.
    """
    return _joined_pairs(phi, psi, tuple.__add__, "concatenation arrangement pairs")


def pml_def1(psi: Multiset) -> Dist:
    """Joint-outcome formulation: tensor all members, collapse each tuple.

    The members are ordered canonically before tensoring; the result does
    not depend on that order.
    """
    _check_members(psi._map)
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


def _pairwise_sum(a: Dist, b: Dist) -> Dist:
    """The monoid sum, adding every pair of outcome multisets."""
    check_cells(len(a._map) * len(b._map), "monoid sum outcome pairs")
    acc: dict[Multiset, int] = {}
    b_nums = b._map.items()
    for phi, w in a._map.items():
        for chi, v in b_nums:
            key = phi + chi
            acc[key] = acc.get(key, 0) + w * v
    return Dist._over(acc, acc.values(), a._total * b._total)


def monoid_algebra(psi: Multiset) -> Dist:
    """Fold a multiset of multiset-valued distributions with the monoid sum.

    This is the structure map induced by the monoid: formal sums of
    distributions become iterated convolutions.  The empty multiset maps
    to the monoid unit.
    """
    out = unit(Multiset())
    for member, n in _check_members(psi._map):
        for _ in range(n):
            out = _pairwise_sum(out, member)
    return out


def pml_def4(psi: Multiset) -> Dist:
    """Algebraic formulation: point-mass images folded by the monoid."""
    _check_members(psi._map)
    singletons = psi.map_elements(lambda w: w.map(lambda x: Multiset({x: 1})))
    return monoid_algebra(singletons)


def pml_def3_check(omegas: Sequence[Dist]) -> bool:
    """Does the defining triangle commute at this tuple of distributions?

    Checks that applying ``pml`` to the multiset of the tuple's members
    equals tensoring the tuple and accumulating the outcome sequences.
    """
    lhs = pml(accumulate(omegas))
    rhs = bind(big_tensor(list(omegas)), lambda xs: unit(accumulate(xs)))
    return lhs == rhs


def permutation_mix(xs: tuple) -> Dist:
    """Every permutation of ``xs`` with equal weight; repeated ones add up."""
    check_cells(math.factorial(len(xs)), f"permutations of a length-{len(xs)} sequence")
    return Dist.uniform(itertools.permutations(xs))
