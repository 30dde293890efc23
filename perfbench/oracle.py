"""Independent reference for the benchmark's correctness gates.

Stdlib only; nothing here imports mulprob.  Values are plain tuples:

* atom: ``str`` (identifier, or numeral without leading zeros)
* pair: ``("P", fst, snd)``
* sequence: ``("S", (e1, e2, ...))``
* multiset: ``("M", ((elem, count), ...))``, entries in canonical order
* distribution: ``("D", ((elem, Fraction), ...))``, entries in canonical order

The canonical order and the ket rendering follow the notation documented
in the project README: numerals before identifiers, then pairs,
sequences, multisets (compared by their counts at the largest elements
first) and distributions (support first, then weights).  Every operation
is computed from its definition, by brute force over sequences or by a
textbook closed form, never by the code under test.
"""

import itertools
import math
from fractions import Fraction

_ATOM, _PAIR, _SEQ, _MULTISET, _DIST = range(5)


def key(e) -> tuple:
    """Sort key of the canonical order."""
    if isinstance(e, str):
        if e.isdigit():
            return (_ATOM, 0, int(e), "")
        return (_ATOM, 1, 0, e)
    tag = e[0]
    if tag == "P":
        return (_PAIR, key(e[1]), key(e[2]))
    if tag == "S":
        return (_SEQ, tuple(key(c) for c in e[1]))
    if tag == "M":
        return (_MULTISET, tuple((key(x), n) for x, n in reversed(e[1])))
    return (_DIST, tuple(key(x) for x, _ in e[1]), tuple(w for _, w in e[1]))


def pair(a, b):
    return ("P", a, b)


def seq(xs):
    return ("S", tuple(xs))


def ms(counts) -> tuple:
    """A multiset from a mapping or an iterable of elements."""
    if not hasattr(counts, "items"):
        bag: dict = {}
        for x in counts:
            bag[x] = bag.get(x, 0) + 1
        counts = bag
    entries = sorted(((e, n) for e, n in counts.items() if n), key=lambda it: key(it[0]))
    return ("M", tuple(entries))


def dist(weights) -> tuple:
    """A distribution from a mapping of positive-or-zero weights summing to 1."""
    entries = sorted(((e, Fraction(w)) for e, w in weights.items() if w),
                     key=lambda it: key(it[0]))
    total = sum(w for _, w in entries)
    if total != 1:
        raise ValueError(f"oracle distribution sums to {total}")
    return ("D", tuple(entries))


def fmt(e) -> str:
    """Canonical ket rendering."""
    if isinstance(e, str):
        return e
    tag = e[0]
    if tag == "P":
        return f"({fmt(e[1])},{fmt(e[2])})"
    if tag == "S":
        return "(" + ",".join(fmt(c) for c in e[1]) + ")"
    if tag == "M":
        return "[" + ", ".join(f"{n} {fmt(x)}" for x, n in e[1]) + "]"
    return "<" + ", ".join(f"{w} {fmt(x)}" for x, w in e[1]) + ">"


def from_library(v):
    """Convert a mulprob value to the plain form, keeping its entry order.

    Reads only the public views (``entries``, ``fst``/``snd``); comparing
    the result with an oracle value checks both content and order.
    """
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return ("S", tuple(from_library(c) for c in v))
    kind = type(v).__name__
    if kind == "Pair":
        return ("P", from_library(v.fst), from_library(v.snd))
    if kind == "Multiset":
        return ("M", tuple((from_library(x), n) for x, n in v.entries))
    if kind == "Dist":
        return ("D", tuple((from_library(x), w) for x, w in v.entries))
    raise TypeError(f"unexpected value {v!r}")


def _add(acc: dict, k, w) -> None:
    acc[k] = acc.get(k, 0) + w


def expand(m) -> list:
    """The elements of a multiset with repetition, in canonical order."""
    return [x for x, n in m[1] for _ in range(n)]


def size(m) -> int:
    return sum(n for _, n in m[1])


def multinomial_coefficient(counts) -> int:
    out = math.factorial(sum(counts))
    for n in counts:
        out //= math.factorial(n)
    return out


def coefficient(m) -> int:
    """Number of distinct sequences accumulating to ``m``."""
    return multinomial_coefficient([n for _, n in m[1]])


def arrangements(m) -> list:
    """Distinct sequences accumulating to ``m``."""
    counts = [n for _, n in m[1]]
    elems = [x for x, _ in m[1]]
    out, prefix = [], []

    def rec(left: int) -> None:
        if left == 0:
            out.append(tuple(prefix))
            return
        for i, n in enumerate(counts):
            if n:
                counts[i] -= 1
                prefix.append(elems[i])
                rec(left - 1)
                prefix.pop()
                counts[i] += 1

    rec(sum(counts))
    return out


def compositions(total: int, parts: int, cap: int | None = None):
    """All vectors of ``parts`` naturals summing to ``total``, each at most ``cap``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    hi = total if cap is None else min(total, cap)
    for first in range(hi + 1):
        for rest in compositions(total - first, parts - 1, cap):
            yield (first,) + rest


# -- brute force over sequences ------------------------------------------------


def mn_brute(d, k: int):
    acc: dict = {}
    for xs in itertools.product(d[1], repeat=k):
        w = Fraction(1)
        for _, p in xs:
            w *= p
        _add(acc, ms(x for x, _ in xs), w)
    return dist(acc)


def hg_brute(urn, k: int):
    balls = expand(urn)
    draws = list(itertools.combinations(range(len(balls)), k))
    acc: dict = {}
    for idx in draws:
        _add(acc, ms(balls[i] for i in idx), Fraction(1, len(draws)))
    return dist(acc)


def mzip_brute(phi, psi):
    left, right = arrangements(phi), arrangements(psi)
    w = Fraction(1, len(left) * len(right))
    acc: dict = {}
    for xs, ys in itertools.product(left, right):
        _add(acc, ms(pair(x, y) for x, y in zip(xs, ys)), w)
    return dist(acc)


def pml_brute(psi):
    members = [d[1] for d in expand(psi)]
    acc: dict = {}
    for outcome in itertools.product(*members):
        w = Fraction(1)
        for _, p in outcome:
            w *= p
        _add(acc, ms(x for x, _ in outcome), w)
    return dist(acc)


# -- direct definitions ----------------------------------------------------------


def arr(m):
    seqs = arrangements(m)
    return dist({seq(s): Fraction(1, len(seqs)) for s in seqs})


def dd(urn):
    total = size(urn)
    acc = {}
    for x, n in urn[1]:
        counts = dict(urn[1])
        counts[x] -= 1
        acc[ms(counts)] = Fraction(n, total)
    return dist(acc)


def flrn(m):
    total = size(m)
    return dist({x: Fraction(n, total) for x, n in m[1]})


def validity(d, pred: dict) -> Fraction:
    return sum((w * pred[x] for x, w in d[1]), Fraction(0))


def update(d, pred: dict):
    v = validity(d, pred)
    return dist({x: w * pred[x] / v for x, w in d[1]})


def push(chan: dict, d):
    acc: dict = {}
    for x, w in d[1]:
        for y, v in chan[x][1]:
            _add(acc, y, w * v)
    return dist(acc)


# -- closed forms ------------------------------------------------------------------


def mn_closed(d, k: int):
    """Multinomial point weights: k!/prod(c!) * prod(p^c)."""
    elems = [x for x, _ in d[1]]
    probs = [p for _, p in d[1]]
    acc = {}
    for c in compositions(k, len(elems)):
        w = Fraction(math.factorial(k))
        for p, n in zip(probs, c):
            w = w * p ** n / math.factorial(n)
        acc[ms(dict(zip(elems, c)))] = w
    return dist(acc)


def hg_closed(urn, k: int):
    """Hypergeometric point weights: prod C(urn(x), c(x)) / C(|urn|, k)."""
    elems = [x for x, _ in urn[1]]
    avail = [n for _, n in urn[1]]
    denom = math.comb(size(urn), k)
    acc = {}
    for c in compositions(k, len(elems), max(avail)):
        w = math.prod(math.comb(a, n) for a, n in zip(avail, c))
        if w:
            acc[ms(dict(zip(elems, c)))] = Fraction(w, denom)
    return dist(acc)


def mzip_closed(phi, psi):
    """Fixed-margin tables: prod phi! prod psi! / (K! prod tau!)."""
    xs, rows = [x for x, _ in phi[1]], [n for _, n in phi[1]]
    ys, cols = [y for y, _ in psi[1]], [n for _, n in psi[1]]
    k = sum(rows)
    num = math.prod(math.factorial(n) for n in rows + cols)

    def tables(i: int, left: list):
        if i == len(rows):
            if not any(left):
                yield ()
            return
        for row in compositions(rows[i], len(cols)):
            if all(r <= l for r, l in zip(row, left)):
                for rest in tables(i + 1, [l - r for l, r in zip(left, row)]):
                    yield (row,) + rest

    acc = {}
    for tau in tables(0, list(cols)):
        cells = {pair(x, y): n for x, row in zip(xs, tau) for y, n in zip(ys, row)}
        denom = math.factorial(k) * math.prod(math.factorial(n) for n in cells.values())
        acc[ms(cells)] = Fraction(num, denom)
    return dist(acc)


def pml_closed(psi):
    """Convolution of one closed-form multinomial per member."""
    out = {ms({}): Fraction(1)}
    for member, n in psi[1]:
        draws = mn_closed(member, n)
        nxt: dict = {}
        for phi, w in out.items():
            for chi, v in draws[1]:
                counts = dict(phi[1])
                for x, c in chi[1]:
                    counts[x] = counts.get(x, 0) + c
                _add(nxt, ms(counts), w * v)
        out = nxt
    return dist(out)


def multichoose(n: int, k: int) -> int:
    return math.comb(n + k - 1, k)
