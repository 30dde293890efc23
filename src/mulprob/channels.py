"""The library's named probabilistic channels.

Draws with replacement (multinomial) and without (hypergeometric), single
draw-and-delete, uniform arrangement of a multiset into sequences, and
the probabilistic zip of two equal-size multisets.

Each channel is computed from a closed formula over its own support, so
its cost follows the size of its output: the draw distributions enumerate
the multisets they weigh, and ``mzip`` enumerates contingency tables
rather than pairs of arrangements.  The literal definitions survive in
``mulprob.oracles`` and the test suite as independent cross-checks.
"""

from typing import Iterable, Iterator, Sequence

from .combinatorics import binomial, factorial, multichoose
from .dist import Dist
from .elements import Elem, Pair, Space
from .errors import DomainError, check_cells
from .multiset import Multiset, enumerate_arrangements, enumerate_multisets


def arrange(m: Multiset) -> Dist:
    """Uniform distribution over the distinct sequences accumulating to m."""
    seqs = enumerate_arrangements(m)
    return Dist(dict.fromkeys(seqs, 1), denominator=len(seqs))


def multinomial(omega: Dist, k: int) -> Dist:
    """Distribution of size-k draws with replacement from ``omega``.

    The weight of a draw is its multiset coefficient times the product of
    the element probabilities, each raised to its multiplicity.
    """
    if k < 0:
        raise DomainError(f"draw size must be nonnegative: {k}")
    nums = omega._nums
    weights = {}
    for phi in enumerate_multisets(omega.support, k):
        w = phi.coefficient()
        for x, n in phi.entries:
            w *= nums[x] ** n
        weights[phi] = w
    return Dist(weights, denominator=omega._den ** k)


def _sub_multiset_count(urn: Multiset, k: int) -> int:
    """Number of size-k multisets below ``urn``.

    The coefficient of ``t^k`` in the product over the urn's entries of
    ``1 + t + ... + t^urn(x)``, one polynomial multiplication per entry.
    """
    coeffs = [1] + [0] * k
    for _, avail in urn.entries:
        window = 0
        out = []
        for j, c in enumerate(coeffs):
            window += c
            if j > avail:
                window -= coeffs[j - avail - 1]
            out.append(window)
        coeffs = out
    return coeffs[k]


def _splits(n: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All ways to split ``n`` into parts bounded by ``caps``, in order.

    Each part takes at least what the parts after it cannot hold, so every
    prefix extends to a split and the walk has no dead ends.  The walk is
    an odometer: the last part that can still grow grows by one, and the
    parts after it restart at their least values.
    """
    if not 0 <= n <= sum(caps):
        return
    size = len(caps)
    rest = [0] * size  # what the parts after each one can hold
    for i in range(size - 2, -1, -1):
        rest[i] = rest[i + 1] + caps[i + 1]
    parts = [0] * size
    left = [0] * size  # what is left to split at each part
    start = 0
    while True:
        remaining = n if start == 0 else left[start - 1] - parts[start - 1]
        for i in range(start, size):
            left[i] = remaining
            parts[i] = t = max(0, remaining - rest[i])
            remaining -= t
        yield tuple(parts)
        i = size - 2
        while i >= 0 and parts[i] >= min(left[i], caps[i]):
            i -= 1
        if i < 0:
            return
        parts[i] += 1
        start = i + 1


def hypergeometric(urn: Multiset, k: int) -> Dist:
    """Distribution of size-k draws without replacement from the urn.

    A draw takes ``phi(x)`` of the ``urn(x)`` copies of each ``x``; its
    weight is the product of ``binomial(urn(x), phi(x))`` over ``C(|urn|, k)``.
    The budget counts the draws exactly.
    """
    n = urn.size
    if not 0 <= k <= n:
        raise DomainError(f"cannot draw {k} from an urn of size {n}")
    check_cells(_sub_multiset_count(urn, k), f"size-{k} sub-multisets of a size-{n} urn")
    denom = binomial(n, k)
    support, caps = urn.support, tuple(c for _, c in urn.entries)
    weights = {}
    for split in _splits(k, caps):
        w = 1
        for c, t in zip(caps, split):
            if t:
                w *= binomial(c, t)
        weights[Multiset(zip(support, split))] = w
    return Dist(weights, denominator=denom)


def draw_delete(urn: Multiset) -> Dist:
    """Remove one element, chosen with probability proportional to count."""
    size = urn.size
    if size == 0:
        raise DomainError("cannot draw from an empty urn")
    return Dist({urn.remove_one(x): n for x, n in urn.entries}, denominator=size)


def ppr(xs: tuple) -> Dist:
    """Uniform mixture of the single-position deletions of a sequence."""
    if len(xs) == 0:
        raise DomainError("cannot project away a position of the empty sequence")
    acc: dict[tuple, int] = {}
    for i in range(len(xs)):
        shorter = xs[:i] + xs[i + 1:]
        acc[shorter] = acc.get(shorter, 0) + 1
    return Dist(acc, denominator=len(xs))


def zip_tuples(xs: Sequence[Elem], ys: Sequence[Elem]) -> tuple:
    """Positionwise pairing of two equal-length sequences."""
    if len(xs) != len(ys):
        raise DomainError(f"zip length mismatch: {len(xs)} vs {len(ys)}")
    return tuple(Pair(x, y) for x, y in zip(xs, ys))


def _factorial_product(counts: Iterable[int]) -> int:
    out = 1
    for n in counts:
        if n > 1:
            out *= factorial(n)
    return out


def _nonzero_cells(cells: list[Pair], counts: tuple[int, ...]) -> tuple:
    return tuple([(c, t) for c, t in zip(cells, counts) if t])


def mzip(phi: Multiset, psi: Multiset) -> Dist:
    """Probabilistic zip of two equal-size multisets.

    By definition every pair of arrangements of the inputs is zipped
    positionwise and re-accumulated, each pair contributing uniformly
    (``oracles.mzip_arrangements`` runs that route).  Counting the pairs
    that zip to a multiset ``tau`` on pairs gives the closed form used
    here: the support is the set of contingency tables whose row margins
    are ``phi`` and whose column margins are ``psi``, and ``tau`` weighs
    ``prod phi(x)! * prod psi(y)! / (K! * prod tau(x,y)!)``.  That is the
    count ``K! / prod tau(x,y)!`` of sequences of pairs accumulating to
    ``tau`` over the ``coefficient(phi) * coefficient(psi)`` pairs of
    arrangements.

    Tables are built row by row over the support of ``phi``; each row is
    split within the capacity the columns have left and the last row is
    forced, so the cost is one step per table and row.  The budget counts
    tables, bounded by the product of ``multichoose(|supp psi|, phi(x))``
    over all rows but the last.
    """
    if phi.size != psi.size:
        raise DomainError(f"mzip size mismatch: {phi.size} vs {psi.size}")
    rows, cols = phi.entries, psi.entries
    if not rows:
        return Dist.point(Multiset())
    bound = 1
    for _, r in rows[:-1]:
        bound *= multichoose(len(cols), r)
    check_cells(bound, "mzip contingency tables")

    cells = [[Pair(x, y) for y, _ in cols] for x, _ in rows]
    # A partial table: its nonzero cells, the product of their factorials,
    # and the capacity each column has left.
    tables = [((), 1, tuple(c for _, c in cols))]
    for i, (_, r) in enumerate(rows[:-1]):
        tables = [
            (taken + _nonzero_cells(cells[i], split), denom * _factorial_product(split),
             tuple(c - t for c, t in zip(caps, split)))
            for taken, denom, caps in tables
            for split in _splits(r, caps)
        ]
    total = factorial(phi.size)
    weights = {}
    for taken, denom, caps in tables:
        tau = Multiset(taken + _nonzero_cells(cells[-1], caps))
        weights[tau] = total // (denom * _factorial_product(caps))
    arrangement_pairs = total * total // _factorial_product(n for _, n in rows + cols)
    return Dist(weights, denominator=arrangement_pairs)

def multiset_space(space: Space | Iterable[Elem], k: int) -> Space:
    """The space of all size-k multisets over ``space``, the domain of ``lifted_map``."""
    return Space(enumerate_multisets(space, k))
