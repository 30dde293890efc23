"""The executable law catalogue.

Every commuting diagram the library claims to satisfy is realized here as
a decidable check over enumerated finite inputs: small element spaces, a
pool of test distributions (point masses, the uniform one, and seeded
random rational ones), seeded random channels and predicates.  A law
either holds on every generated input or yields a witness: the first
offending input together with both mismatching legs.

Two catalogue entries are *expected* to fail; they pin down diagrams that
genuinely do not commute, each evaluated at a fixed counterexample.  The
suite as a whole passes when every positive law holds and both negative
ones are observed to fail.

All randomness is drawn from generators seeded per law, so a run is a
pure function of the bounds and the seed, and its rendered output is
byte-identical across repetitions.
"""

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from . import channels as ch
from . import oracles
from .dist import (
    Channel,
    Dist,
    Predicate,
    big_tensor,
    bind,
    compose,
    ctensor,
    dtensor,
    flatten,
    flrn,
    iid,
    pred_extend,
    push,
    unit,
    update,
    validity,
)
from .elements import Pair, Space, _show
from .errors import DomainError, MulprobError, _check_size
from .multiset import Multiset, accumulate, enumerate_multisets
from .pml import lifted_map, monoid_sum, pml

Verdict = str  # "pass" | "fail" | "expected-fail"


@dataclass(frozen=True)
class LawReport:
    name: str
    params: str
    verdict: Verdict
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.verdict != "fail"


_Case = tuple[Iterable, Callable, Callable]


@dataclass(frozen=True)
class Law:
    name: str
    summary: str
    # The law's ``(domain, lhs, rhs)`` cases at every size in turn.
    cases: Callable[["LawContext"], Iterator[_Case]]
    expect_fail: bool = False


def _first_mismatch(cases: Iterable[_Case]) -> str | None:
    """The witness of the first point where a case's legs differ, if any.

    The cases run in order, each evaluating both legs over its whole
    domain; the first mismatch ends the run.
    """
    for domain, lhs, rhs in cases:
        for x in domain:
            a = lhs(x)
            b = rhs(x)
            if a != b:
                return f"input={_show(x)}; lhs={_show(a)}; rhs={_show(b)}"
    return None


def _pooled(method: Callable) -> Callable:
    """Build a pool once per context and argument tuple, then reuse it."""
    @functools.wraps(method)
    def pool(self: "LawContext", *args):
        key = (method.__name__, *args)
        if key not in self._cache:
            self._cache[key] = method(self, *args)
        return self._cache[key]

    return pool


class LawContext:
    """Bounds, spaces, and seeded input pools shared by the law checks."""

    def __init__(
        self,
        x_size: int = 2,
        y_size: int = 2,
        k_max: int = 3,
        l_max: int = 3,
        n_max: int = 4,
        seed: int = 0,
        n_random: int = 20,
    ):
        for what, size in [("x_size", x_size), ("y_size", y_size), ("k_max", k_max),
                           ("l_max", l_max), ("n_max", n_max), ("n_random", n_random)]:
            _check_size(size, what)
        if min(x_size, y_size) < 1:
            raise DomainError("spaces need at least one element")
        if max(x_size, y_size) > 4:
            raise DomainError("law spaces support at most 4 elements")
        self.x_size = x_size
        self.y_size = y_size
        self.k_max = k_max
        self.l_max = l_max
        self.n_max = n_max
        self.seed = seed
        self.n_random = n_random
        self.X = Space(("a", "b", "c", "d")[:x_size])
        self.Y = Space(("u", "v", "w", "z")[:y_size])
        self.Z = Space(("s", "t"))
        self._cache: dict = {}

    def params(self) -> str:
        return (
            f"|X|={self.x_size} |Y|={self.y_size} K<={self.k_max} "
            f"L<={self.l_max} N<={self.n_max} seed={self.seed} random={self.n_random}"
        )

    def _rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}:{tag}")

    def _random_dist(self, rng: random.Random, space: Space) -> Dist:
        weights = [rng.randint(1, 9) for _ in space.elements]
        total = sum(weights)
        return Dist((x, Fraction(w, total)) for x, w in zip(space.elements, weights))

    @_pooled
    def corner_dists(self, space: Space) -> list[Dist]:
        """Point masses plus the uniform distribution."""
        out = [unit(x) for x in space]
        if len(space) > 1:
            out.append(Dist.uniform(space))
        return out

    @_pooled
    def dist_pool(self, space: Space) -> list[Dist]:
        """Corner distributions followed by the seeded random ones."""
        rng = self._rng(f"dists:{space.elements}")
        randoms = [self._random_dist(rng, space) for _ in range(self.n_random)]
        return list(dict.fromkeys([*self.corner_dists(space), *randoms]))

    @_pooled
    def psi_pool(self, space: Space, size: int) -> list[Multiset]:
        """Multisets of distributions: all over the corners, plus random ones."""
        rng = self._rng(f"psis:{space.elements}:{size}")
        pool = self.dist_pool(space)
        randoms = [accumulate([rng.choice(pool) for _ in range(size)])
                   for _ in range(max(4, self.n_random // 3))]
        return list(dict.fromkeys([*enumerate_multisets(Space(self.corner_dists(space)), size),
                                   *randoms]))

    @_pooled
    def nested_pool(self, space: Space, size: int) -> list[Multiset]:
        """Multisets of distributions over distributions, for the squared law."""
        corners = self.corner_dists(space)
        inner: list[Dist] = [unit(d) for d in corners[:2]]
        if len(corners) > 1:
            inner.append(Dist.uniform(corners[:2]))
        rng = self._rng(f"nested:{space.elements}:{size}")
        pool = self.dist_pool(space)
        for _ in range(3):
            pair = [rng.choice(pool), rng.choice(pool)]
            w = Fraction(rng.randint(1, 3), 4)
            if pair[0] == pair[1]:
                inner.append(unit(pair[0]))
            else:
                inner.append(Dist({pair[0]: w, pair[1]: 1 - w}))
        randoms = [accumulate([rng.choice(inner) for _ in range(size)]) for _ in range(4)]
        return list(dict.fromkeys([*enumerate_multisets(Space(inner[:3]), size), *randoms]))

    @_pooled
    def channel_pool(self, src: Space, dst: Space, tag: str) -> list[Channel]:
        """A few deterministic channels and a few seeded random ones."""
        out = [
            Channel.constant(src, unit(dst.elements[0])),
            Channel.deterministic(
                src,
                lambda x, _d=dst.elements: _d[list(src.elements).index(x) % len(_d)],
            ),
        ]
        rng = self._rng(f"channels:{tag}")
        for _ in range(3):
            table = {x: self._random_dist(rng, dst) for x in src.elements}
            out.append(Channel.from_mapping(table))
        return out

    @_pooled
    def function_pool(self, src: Space, dst: Space) -> list[dict]:
        """All plain functions between two small spaces, as dictionaries."""
        images = itertools.product(dst.elements, repeat=len(src.elements))
        return [dict(zip(src.elements, img)) for img in images]

    @_pooled
    def predicate_pool(self, space: Space) -> list[Predicate]:
        """Evidence to update with; random ones stay strictly positive."""
        elems = space.elements
        out = [
            Predicate({x: 1 for x in elems}),
            Predicate({x: (1 if i == 0 else Fraction(1, 2)) for i, x in enumerate(elems)}),
            Predicate({x: (1 if i == 0 else 0) for i, x in enumerate(elems)}),
        ]
        rng = self._rng(f"predicates:{space.elements}")
        values = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                  Fraction(2, 3), Fraction(3, 4), Fraction(1)]
        for _ in range(4):
            out.append(Predicate({x: rng.choice(values) for x in elems}))
        return out

    # The zips, computed once per sweep through the ``ch`` module, so a
    # patched or traced zip sees every computed call.

    @_pooled
    def zip_table(self, k: int, left: Space, right: Space) -> Callable[[Pair], tuple]:
        """``zip_tuples`` at every pair of length-k sequences over the two spaces.

        The table is keyed by the pair's components, which hash and compare
        without a call into ``Pair``; the lookup takes a ``Pair``.
        """
        ys = right.power(k)
        table = {(xs, y): ch.zip_tuples(xs, y) for xs in left.power(k) for y in ys}
        return lambda p: table[p.fst, p.snd]

    @_pooled
    def mzip_table(self, k: int, left: Space, right: Space) -> Channel:
        """``mzip`` as the Kleisli map ``M[k]X x M[k]Y -> D(M[k](X x Y))``, a
        channel on pairs of size-k multisets whose table fills on demand."""
        domain = Space(enumerate_multisets(left, k)).product(Space(enumerate_multisets(right, k)))
        return Channel(domain, lambda p: ch.mzip(p.fst, p.snd))


# -- helpers shared by several checks -----------------------------------------


def _power_channel(f: Channel) -> Callable[[tuple], Dist]:
    """A channel applied independently at every position of a sequence."""
    return lambda xs: big_tensor([f(x) for x in xs])


def _tensor_pairs(omega: Dist) -> Dist:
    """Apply the multiset tensor to a distribution over pairs of multisets."""
    return omega.map(lambda p: p.fst.tensor(p.snd))


def _iter_dd(psi_dist: Dist, times: int) -> Dist:
    out = psi_dist
    for _ in range(times):
        out = bind(out, ch.draw_delete)
    return out


def _pairs(left: Iterable, right: Iterable) -> Iterator[Pair]:
    """Every Pair of the two domains, the left component varying slowest."""
    right = list(right)
    return (Pair(a, b) for a in left for b in right)


def _lifted(ctx: "LawContext", tag: str, *sizes: int) -> Iterator[tuple]:
    """``(f, *lifts)`` for the first three channels ``X -> Y`` of the pool
    ``tag``, with ``f`` lifted to multisets of each size in turn."""
    for f in ctx.channel_pool(ctx.X, ctx.Y, tag)[:3]:
        yield (f, *(lifted_map(f, k) for k in sizes))


# -- the catalogue -------------------------------------------------------------
#
# ``@law`` adds each law to the catalogue in the order it is defined.  A
# law is a generator ``(ctx, *sizes)`` that yields its ``(domain, lhs, rhs)``
# cases at one tuple of sizes.  A law stated for every size names its sweep
# in ``sizes``, a key of ``_SIZES``, and is called at every tuple of the
# sweep in turn; the others take the context alone.  ``_first_mismatch``
# checks each case before the generator resumes, so the legs may close
# over its loop variables, such as a channel from a pool.  A work memo the
# legs share, ``functools.cache`` over one operation, is built inside the
# generator and so lives for one call.  Every size a law is checked at,
# caps below a bound included, is a row of the table; no law loops over a
# size or skips one.

# The named sweeps, each listing its size tuples in the order the laws
# visit them.  ``k`` and ``l`` are draw sizes, ``n`` is an urn size and
# ``m`` an intermediate one; ``j`` is a member count.
_SIZES: dict[str, Callable[[LawContext], Iterable[tuple[int, ...]]]] = {
    "": lambda ctx: [()],
    "k": lambda ctx: [(k,) for k in range(ctx.k_max + 1)],
    "k>0": lambda ctx: [(k,) for k in range(1, ctx.k_max + 1)],
    "k<=min(k_max,3)": lambda ctx: [(k,) for k in range(min(ctx.k_max, 3) + 1)],
    "j<=min(k_max+1,4)": lambda ctx: [(j,) for j in range(min(ctx.k_max + 1, 4) + 1)],
    "k,l": lambda ctx: itertools.product(range(ctx.k_max + 1), range(ctx.l_max + 1)),
    "n": lambda ctx: [(n,) for n in range(ctx.n_max + 1)],
    "n,k<=n": lambda ctx: [(n, k) for n in range(ctx.n_max + 1) for k in range(n + 1)],
    "n,0<k<=n": lambda ctx: [(n, k) for n in range(ctx.n_max + 1) for k in range(1, n + 1)],
    "n,m<=n,k<=m": lambda ctx: [(n, m, k) for n in range(ctx.n_max + 1)
                                for m in range(n + 1) for k in range(m + 1)],
}

_registered: list[Law] = []


def law(name: str, summary: str, sizes: str = "", expect_fail: bool = False) -> Callable:
    """Register the decorated check as the law ``name``, swept over ``sizes``."""
    sweep = _SIZES[sizes]

    def register(check: Callable) -> Callable:
        def cases(ctx: LawContext) -> Iterator[_Case]:
            for size in sweep(ctx):
                yield from check(ctx, *size)

        _registered.append(Law(name, summary, cases, expect_fail))
        return check

    return register


@law("acc-arr-id", "collapsing the arrangements of a multiset returns it", sizes="k")
def _law_acc_arr_id(ctx: LawContext, k: int):
    yield enumerate_multisets(ctx.X, k), lambda phi: ch.arrange(phi).map(accumulate), unit


@law("arr-acc-perm", "arranging a collapsed sequence is the uniform permutation mix", sizes="k")
def _law_arr_acc_perm(ctx: LawContext, k: int):
    yield ctx.X.power(k), lambda xs: ch.arrange(accumulate(xs)), oracles.permutation_mix


@law("arr-acc-tensor", "the permutation mix commutes with the big tensor", sizes="k")
def _law_arr_acc_tensor(ctx: LawContext, k: int):
    yield (itertools.product(ctx.corner_dists(ctx.X), repeat=k),
           lambda ws: bind(ch.arrange(accumulate(ws)), lambda vs: big_tensor(list(vs))),
           lambda ws: bind(big_tensor(list(ws)), lambda xs: ch.arrange(accumulate(xs))))


@law("arr-mn-iid", "arranging multinomial draws gives independent copies", sizes="k")
def _law_arr_mn_iid(ctx: LawContext, k: int):
    yield (ctx.dist_pool(ctx.X), lambda omega: bind(ch.multinomial(omega, k), ch.arrange),
           lambda omega: iid(omega, k))


@law("acc-iid-mn", "collapsing independent copies gives multinomial draws", sizes="k")
def _law_acc_iid_mn(ctx: LawContext, k: int):
    yield (ctx.dist_pool(ctx.X), lambda omega: iid(omega, k).map(accumulate),
           lambda omega: ch.multinomial(omega, k))


@law("mn-combine", "draws of combined sizes are sums of independent draws", sizes="k,l")
def _law_mn_combine(ctx: LawContext, k: int, l: int):
    yield (ctx.dist_pool(ctx.X), lambda omega: ch.multinomial(omega, k + l),
           lambda omega: monoid_sum(ch.multinomial(omega, k), ch.multinomial(omega, l)))


@law("flrn-mn", "learning from draws with replacement recovers the urn", sizes="k>0")
def _law_flrn_mn(ctx: LawContext, k: int):
    yield (ctx.dist_pool(ctx.X), lambda omega: bind(ch.multinomial(omega, k), flrn),
           lambda omega: omega)


@law("dd-mn", "deleting one element from a draw shrinks the draw size", sizes="k")
def _law_dd_mn(ctx: LawContext, k: int):
    yield (ctx.dist_pool(ctx.X),
           lambda omega: bind(ch.multinomial(omega, k + 1), ch.draw_delete),
           lambda omega: ch.multinomial(omega, k))


@law("flrn-dd", "learning is unchanged by deleting one random element", sizes="k>0")
def _law_flrn_dd(ctx: LawContext, k: int):
    yield (enumerate_multisets(ctx.X, k + 1), lambda psi: bind(ch.draw_delete(psi), flrn),
           flrn)


@law("hg-dd-iter", "draws without replacement are iterated single deletions", sizes="n,k<=n")
def _law_hg_dd_iter(ctx: LawContext, n: int, k: int):
    yield (enumerate_multisets(ctx.X, n), lambda psi: ch.hypergeometric(psi, k),
           lambda psi: _iter_dd(unit(psi), n - k))


@law("hg-natural", "relabeling the urn commutes with draws without replacement", sizes="n,k<=n")
def _law_hg_natural(ctx: LawContext, n: int, k: int):
    for f in ctx.function_pool(ctx.X, ctx.Y):
        yield (enumerate_multisets(ctx.X, n),
               lambda psi: ch.hypergeometric(psi.map_elements(f.__getitem__), k),
               lambda psi: ch.hypergeometric(psi, k).map(
                   lambda phi: phi.map_elements(f.__getitem__)))


@law("flrn-hg", "learning from draws without replacement recovers the urn", sizes="n,0<k<=n")
def _law_flrn_hg(ctx: LawContext, n: int, k: int):
    yield (enumerate_multisets(ctx.X, n), lambda psi: bind(ch.hypergeometric(psi, k), flrn),
           flrn)


@law("hg-hg", "two-stage subsampling equals one-stage subsampling", sizes="n,m<=n,k<=m")
def _law_hg_hg(ctx: LawContext, n: int, m: int, k: int):
    yield (enumerate_multisets(ctx.X, n),
           lambda psi: bind(ch.hypergeometric(psi, m), lambda phi: ch.hypergeometric(phi, k)),
           lambda psi: ch.hypergeometric(psi, k))


@law("hg-mn", "subsampling a replacement draw is a smaller replacement draw", sizes="k,l")
def _law_hg_mn(ctx: LawContext, k: int, l: int):
    # One channel over every draw of size k + l, so a draw that several
    # states share is subsampled once.
    sub = Channel(enumerate_multisets(ctx.X, k + l), lambda psi: ch.hypergeometric(psi, k))
    yield (ctx.dist_pool(ctx.X), lambda omega: bind(ch.multinomial(omega, k + l), sub),
           lambda omega: ch.multinomial(omega, k))


@law("zip-iid", "zipping independent copies matches copies of the product", sizes="k")
def _law_zip_iid(ctx: LawContext, k: int):
    zipped = ctx.zip_table(k, ctx.X, ctx.Y)
    xs, ys = ctx.dist_pool(ctx.X), ctx.dist_pool(ctx.Y)
    iids = functools.cache(lambda omega: iid(omega, k))
    yield (_pairs(xs, ys), lambda p: dtensor(iids(p.fst), iids(p.snd)).map(zipped),
           lambda p: iid(dtensor(p.fst, p.snd), k))


@law("zip-bigtensor", "zipping commutes with big tensors of distributions", sizes="k")
def _law_zip_bigtensor(ctx: LawContext, k: int):
    zipped = ctx.zip_table(k, ctx.X, ctx.Y)
    xs, ys = (list(itertools.product(ctx.corner_dists(s), repeat=k)) for s in (ctx.X, ctx.Y))
    tensors = functools.cache(lambda ws: big_tensor(list(ws)))
    yield (_pairs(xs, ys), lambda p: dtensor(tensors(p.fst), tensors(p.snd)).map(zipped),
           lambda p: big_tensor([dtensor(a, b) for a, b in zip(p.fst, p.snd)]))


@law("mzip-natural", "relabeling both sides commutes with multiset zipping", sizes="k")
def _law_mzip_natural(ctx: LawContext, k: int):
    yx, xy = ctx.mzip_table(k, ctx.Y, ctx.X), ctx.mzip_table(k, ctx.X, ctx.Y)
    for f in ctx.function_pool(ctx.X, ctx.Y):
        for g in ctx.function_pool(ctx.Y, ctx.X):
            yield (xy.domain,
                   lambda p: yx(Pair(p.fst.map_elements(f.__getitem__),
                                     p.snd.map_elements(g.__getitem__))),
                   lambda p: xy(p).map(lambda theta: theta.map_elements(
                       lambda q: Pair(f[q.fst], g[q.snd]))))


@law("mzip-unit", "zipping against a constant multiset is deterministic", sizes="k")
def _law_mzip_unit(ctx: LawContext, k: int):
    xy = ctx.mzip_table(k, ctx.X, ctx.Y)
    yield (_pairs(enumerate_multisets(ctx.X, k), ctx.Y),
           lambda p: xy(Pair(p.fst, Multiset({p.snd: k}))),
           lambda p: unit(p.fst.tensor(Multiset({p.snd: 1}))))


@law("mzip-assoc", "multiset zipping is associative up to rebracketing", sizes="k<=min(k_max,3)")
def _law_mzip_assoc(ctx: LawContext, k: int):
    def reassoc(theta: Multiset) -> Multiset:
        return theta.map_elements(lambda p: Pair(p.fst.fst, Pair(p.fst.snd, p.snd)))

    xy, yz = ctx.mzip_table(k, ctx.X, ctx.Y), ctx.mzip_table(k, ctx.Y, ctx.Z)
    xy_z = ctx.mzip_table(k, ctx.X.product(ctx.Y), ctx.Z)
    x_yz = ctx.mzip_table(k, ctx.X, ctx.Y.product(ctx.Z))
    yield (itertools.product(*(enumerate_multisets(s, k) for s in (ctx.X, ctx.Y, ctx.Z))),
           lambda t: bind(xy(Pair(t[0], t[1])), lambda th: xy_z(Pair(th, t[2]))).map(reassoc),
           lambda t: bind(yz(Pair(t[1], t[2])), lambda th: x_yz(Pair(t[0], th))))


@law("mzip-proj", "projecting a zipped multiset returns either input", sizes="k")
def _law_mzip_proj(ctx: LawContext, k: int):
    xy = ctx.mzip_table(k, ctx.X, ctx.Y)
    yield (xy.domain, lambda p: xy(p).map(lambda th: th.map_elements(lambda q: q.fst)),
           lambda p: unit(p.fst))
    yield (xy.domain, lambda p: xy(p).map(lambda th: th.map_elements(lambda q: q.snd)),
           lambda p: unit(p.snd))


@law("mzip-diag-counterexample", "zipping a multiset with itself is not duplication")
def _law_mzip_diag_counterexample(ctx: LawContext):
    # Pinned counterexample: zipping [1 a, 1 b] with itself can pair a
    # with b, so it is not the point mass at the duplicated multiset.
    yield ([Multiset({"a": 1, "b": 1})],
           lambda phi: ch.mzip(phi, phi) != unit(phi.map_elements(lambda x: Pair(x, x))),
           lambda phi: True)


@law("mzip-arr", "arranging a zipped multiset zips the arrangements", sizes="k")
def _law_mzip_arr(ctx: LawContext, k: int):
    xy, zipped = ctx.mzip_table(k, ctx.X, ctx.Y), ctx.zip_table(k, ctx.X, ctx.Y)
    yield (xy.domain, lambda p: bind(xy(p), ch.arrange),
           lambda p: dtensor(ch.arrange(p.fst), ch.arrange(p.snd)).map(zipped))


@law("mzip-dd", "deleting one element on both sides commutes with zipping", sizes="k")
def _law_mzip_dd(ctx: LawContext, k: int):
    small, big = ctx.mzip_table(k, ctx.X, ctx.Y), ctx.mzip_table(k + 1, ctx.X, ctx.Y)
    yield (big.domain,
           lambda p: bind(dtensor(ch.draw_delete(p.fst), ch.draw_delete(p.snd)), small),
           lambda p: bind(big(p), ch.draw_delete))


@law("mzip-flrn", "learning from a zipped multiset learns the tensor", sizes="k>0")
def _law_mzip_flrn(ctx: LawContext, k: int):
    xy = ctx.mzip_table(k, ctx.X, ctx.Y)
    yield (xy.domain, lambda p: bind(xy(p), flrn),
           lambda p: flrn(p.fst.tensor(p.snd)))


@law("mzip-mn", "zipped replacement draws are draws from the product", sizes="k")
def _law_mzip_mn(ctx: LawContext, k: int):
    zipped = ctx.mzip_table(k, ctx.X, ctx.Y)
    xs, ys = ctx.dist_pool(ctx.X), ctx.dist_pool(ctx.Y)
    draws = functools.cache(lambda omega: ch.multinomial(omega, k))
    yield (_pairs(xs, ys), lambda p: bind(dtensor(draws(p.fst), draws(p.snd)), zipped),
           lambda p: ch.multinomial(dtensor(p.fst, p.snd), k))


@law("mzip-hg", "zipping commutes with draws without replacement", sizes="n,k<=n")
def _law_mzip_hg(ctx: LawContext, n: int, k: int):
    big, small = ctx.mzip_table(n, ctx.X, ctx.Y), ctx.mzip_table(k, ctx.X, ctx.Y)
    yield (big.domain, lambda p: bind(big(p), lambda th: ch.hypergeometric(th, k)),
           lambda p: bind(dtensor(ch.hypergeometric(p.fst, k),
                                  ch.hypergeometric(p.snd, k)), small))


@law("mn-tensor-mismatch", "tensoring draws of different sizes is NOT a product draw",
     expect_fail=True)
def _law_mn_tensor_mismatch(ctx: LawContext):
    # Pinned counterexample: drawing 1 and 2 from the uniform coin and
    # tensoring the draws is not drawing 2 from the product distribution.
    omega = Dist.uniform(Space(("a", "b")))
    yield ([Pair(omega, omega)], lambda p: ch.multinomial(dtensor(p.fst, p.snd), 2),
           lambda p: _tensor_pairs(dtensor(ch.multinomial(p.fst, 1), ch.multinomial(p.snd, 2))))


@law("pml-defs-agree", "all formulations of the parallel draw law coincide",
     sizes="j<=min(k_max+1,4)")
def _law_pml_defs_agree(ctx: LawContext, j: int):
    # The joint-outcome and monoid-algebra routes against the production
    # law, then the triangle characterization on the expanded tuple.
    pmls = functools.cache(pml)
    psis = ctx.psi_pool(ctx.X, j)
    yield psis, oracles.pml_def1, pmls
    yield psis, oracles.pml_def4, pmls
    yield (psis, lambda psi: oracles.pml_def3_check([w for w, n in psi.entries for _ in range(n)]),
           lambda psi: True)


@law("pml-squeeze-left", "the law collapses tuples of distributions as tensors do", sizes="k")
def _law_pml_squeeze_left(ctx: LawContext, k: int):
    yield (itertools.product(ctx.corner_dists(ctx.X), repeat=k),
           lambda ws: pml(accumulate(ws)), lambda ws: big_tensor(list(ws)).map(accumulate))


@law("pml-squeeze-right", "arranging the law's output tensors the arrangements", sizes="k")
def _law_pml_squeeze_right(ctx: LawContext, k: int):
    yield (ctx.psi_pool(ctx.X, k), lambda psi: bind(pml(psi), ch.arrange),
           lambda psi: bind(ch.arrange(psi), lambda ws: big_tensor(list(ws))))


@law("pml-flrn", "learning from the law averages the member distributions", sizes="k>0")
def _law_pml_flrn(ctx: LawContext, k: int):
    yield (ctx.psi_pool(ctx.X, k), lambda psi: bind(pml(psi), flrn),
           lambda psi: flatten(flrn(psi)))


@law("pml-dd", "single deletion commutes with the parallel draw law", sizes="k")
def _law_pml_dd(ctx: LawContext, k: int):
    yield (ctx.psi_pool(ctx.X, k + 1), lambda psi: bind(pml(psi), ch.draw_delete),
           lambda psi: bind(ch.draw_delete(psi), pml))


@law("pml-hg", "draws without replacement commute with the law", sizes="n,k<=n")
def _law_pml_hg(ctx: LawContext, n: int, k: int):
    sub = Channel(enumerate_multisets(ctx.X, n), lambda phi: ch.hypergeometric(phi, k))
    yield (ctx.psi_pool(ctx.X, n), lambda psi: bind(pml(psi), sub),
           lambda psi: bind(ch.hypergeometric(psi, k), pml))


@law("pml-sum", "the law turns multiset sums into independent sums", sizes="k,l")
def _law_pml_sum(ctx: LawContext, k: int, l: int):
    pmls = functools.cache(pml)
    yield (_pairs(ctx.psi_pool(ctx.X, k), ctx.psi_pool(ctx.X, l)), lambda p: pmls(p.fst + p.snd),
           lambda p: monoid_sum(pmls(p.fst), pmls(p.snd)))


@law("pml-unit", "a multiset of point masses maps to a point mass", sizes="k")
def _law_pml_unit(ctx: LawContext, k: int):
    yield enumerate_multisets(ctx.X, k), lambda phi: pml(phi.map_elements(unit)), unit


@law("pml-mult", "flattening inner distributions commutes with the law", sizes="k<=min(k_max,3)")
def _law_pml_mult(ctx: LawContext, k: int):
    yield (ctx.nested_pool(ctx.X, k), lambda xi: pml(xi.map_elements(flatten)),
           lambda xi: flatten(pml(xi).map(pml)))


@law("lift-id", "lifting the identity channel is the identity", sizes="k")
def _law_lift_id(ctx: LawContext, k: int):
    yield enumerate_multisets(ctx.X, k), lifted_map(Channel.identity(ctx.X), k), unit


@law("lift-compose", "lifting preserves channel composition", sizes="k")
def _law_lift_compose(ctx: LawContext, k: int):
    gs = ctx.channel_pool(ctx.Y, ctx.Z, "lift-g")
    lgs = [lifted_map(g, k) for g in gs]
    for f in ctx.channel_pool(ctx.X, ctx.Y, "lift-f"):
        lf = lifted_map(f, k)
        for g, lg in zip(gs, lgs):
            yield (enumerate_multisets(ctx.X, k), lifted_map(compose(g, f), k),
                   lambda phi: push(lg, lf(phi)))


@law("mzip-pml", "the lifted tensor intertwines the law and zipping", sizes="k")
def _law_mzip_pml(ctx: LawContext, k: int):
    zipped = ctx.mzip_table(k, ctx.X, ctx.Y)
    pmls = functools.cache(pml)
    # Each pair of members tensored once, so ``pml`` meets the same states.
    tensors = functools.cache(lambda q: dtensor(q.fst, q.snd))
    yield (_pairs(ctx.psi_pool(ctx.X, k), ctx.psi_pool(ctx.Y, k)),
           lambda p: bind(dtensor(pmls(p.fst), pmls(p.snd)), zipped),
           lambda p: bind(ch.mzip(p.fst, p.snd),
                          lambda theta: pml(theta.map_elements(tensors))))


@law("lift-mzip", "lifted channels form a monoidal pair with zipping", sizes="k")
def _law_lift_mzip(ctx: LawContext, k: int):
    yx = ctx.mzip_table(k, ctx.Y, ctx.X)
    xz = ctx.mzip_table(k, ctx.X, ctx.Z)
    gs = ctx.channel_pool(ctx.Z, ctx.X, "monoidal-g")[:3]
    lgs = [lifted_map(g, k) for g in gs]
    for f in ctx.channel_pool(ctx.X, ctx.Y, "monoidal-f")[:3]:
        lf = lifted_map(f, k)
        for g, lg in zip(gs, lgs):
            lfg = lifted_map(ctensor(f, g), k)
            yield (xz.domain, lambda p: bind(dtensor(lf(p.fst), lg(p.snd)), yx),
                   lambda p: bind(xz(p), lfg))


@law("lift-sum", "lifted channels commute with multiset sums", sizes="k,l")
def _law_lift_sum(ctx: LawContext, k: int, l: int):
    for _, lk, ll, lkl in _lifted(ctx, "sum-f", k, l, k + l):
        yield (_pairs(enumerate_multisets(ctx.X, k), enumerate_multisets(ctx.X, l)),
               lambda p: lkl(p.fst + p.snd),
               lambda p: monoid_sum(lk(p.fst), ll(p.snd)))


@law("arr-chan-natural", "arrangement is natural for lifted channels", sizes="k")
def _law_arr_chan_natural(ctx: LawContext, k: int):
    for f, lf in _lifted(ctx, "natural", k):
        yield (enumerate_multisets(ctx.X, k),
               lambda phi: bind(ch.arrange(phi), _power_channel(f)),
               lambda phi: bind(lf(phi), ch.arrange))


@law("acc-chan-natural", "accumulation is natural for lifted channels", sizes="k")
def _law_acc_chan_natural(ctx: LawContext, k: int):
    for f, lf in _lifted(ctx, "natural", k):
        yield (ctx.X.power(k), lambda xs: lf(accumulate(xs)),
               lambda xs: _power_channel(f)(xs).map(accumulate))


@law("dd-chan-natural", "single deletion is natural for lifted channels", sizes="k")
def _law_dd_chan_natural(ctx: LawContext, k: int):
    for _, lifted_big, lifted_small in _lifted(ctx, "natural", k + 1, k):
        yield (enumerate_multisets(ctx.X, k + 1),
               lambda phi: bind(lifted_big(phi), ch.draw_delete),
               lambda phi: bind(ch.draw_delete(phi), lifted_small))


@law("mn-chan-natural", "replacement draws are natural for lifted channels", sizes="k")
def _law_mn_chan_natural(ctx: LawContext, k: int):
    for f, lf in _lifted(ctx, "natural", k):
        yield (ctx.dist_pool(ctx.X), lambda omega: ch.multinomial(push(f, omega), k),
               lambda omega: bind(ch.multinomial(omega, k), lf))


@law("hg-chan-natural", "no-replacement draws are natural for lifted channels", sizes="n,k<=n")
def _law_hg_chan_natural(ctx: LawContext, n: int, k: int):
    for _, lifted_big, lifted_small in _lifted(ctx, "natural", n, k):
        yield (enumerate_multisets(ctx.X, n),
               lambda phi: bind(lifted_big(phi), lambda psi: ch.hypergeometric(psi, k)),
               lambda phi: bind(ch.hypergeometric(phi, k), lifted_small))


@law("pml-tensor-mismatch", "the law does NOT commute with mixed-size tensors", expect_fail=True)
def _law_pml_tensor_mismatch(ctx: LawContext):
    # Pinned counterexample with a two-copy multiset on one side and a
    # single-copy multiset on the other.
    omega = Dist({"a": Fraction(3, 4), "b": Fraction(1, 4)})
    rho = Dist({"0": Fraction(2, 3), "1": Fraction(1, 3)})
    yield ([Pair(Multiset({omega: 2}), Multiset({rho: 1}))],
           lambda p: _tensor_pairs(dtensor(pml(p.fst), pml(p.snd))),
           lambda p: pml(p.fst.tensor(p.snd).map_elements(lambda q: dtensor(q.fst, q.snd))))


@law("sampling-correctness", "sample, transform, resample, learn: the composite state", sizes="k>0")
def _law_sampling(ctx: LawContext, k: int):
    for c in ctx.channel_pool(ctx.X, ctx.Y, "sampling"):
        lc = lifted_map(c, k)
        yield (ctx.dist_pool(ctx.X),
               lambda omega: bind(bind(ch.multinomial(omega, k), lc), flrn),
               lambda omega: push(c, omega))


@law("mn-update-validity", "evidence on draws has the product validity", sizes="k")
def _law_mn_update_validity(ctx: LawContext, k: int):
    draws = functools.cache(lambda omega: ch.multinomial(omega, k))
    for p in ctx.predicate_pool(ctx.X):
        ext = pred_extend(p)
        yield (ctx.dist_pool(ctx.X), lambda omega: validity(draws(omega), ext),
               lambda omega: validity(omega, p) ** k)


@law("mn-update", "updating draws equals drawing from the update", sizes="k")
def _law_mn_update(ctx: LawContext, k: int):
    draws = functools.cache(lambda omega: ch.multinomial(omega, k))
    for p in ctx.predicate_pool(ctx.X):
        ext = pred_extend(p)
        yield ([w for w in ctx.dist_pool(ctx.X) if validity(w, p) != 0],
               lambda omega: update(draws(omega), ext),
               lambda omega: ch.multinomial(update(omega, p), k))


@law("pml-update-validity", "evidence on the law multiplies member validities", sizes="k")
def _law_pml_update_validity(ctx: LawContext, k: int):
    pmls = functools.cache(pml)
    for p in ctx.predicate_pool(ctx.X):
        ext = pred_extend(p)
        yield (ctx.psi_pool(ctx.X, k), lambda psi: validity(pmls(psi), ext),
               lambda psi: math.prod(validity(omega, p) ** n for omega, n in psi.entries))


@law("pml-update", "updating the law's output updates every member", sizes="k")
def _law_pml_update(ctx: LawContext, k: int):
    pmls = functools.cache(pml)
    for p in ctx.predicate_pool(ctx.X):
        ext = pred_extend(p)
        yield ([psi for psi in ctx.psi_pool(ctx.X, k)
                if all(validity(omega, p) != 0 for omega, _ in psi.entries)],
               lambda psi: update(pmls(psi), ext),
               lambda psi: pml(psi.map_elements(lambda omega: update(omega, p))))


@law("msum-deterministic", "concatenating arrangements collapses to multiset sum", sizes="k,l")
def _law_msum_deterministic(ctx: LawContext, k: int, l: int):
    yield (_pairs(enumerate_multisets(ctx.X, k), enumerate_multisets(ctx.X, l)),
           lambda p: oracles.msum_channel(p.fst, p.snd), lambda p: unit(p.fst + p.snd))


LAWS: tuple[Law, ...] = tuple(_registered)

_BY_NAME = {law.name: law for law in LAWS}


def catalogue() -> list[tuple[str, str]]:
    """Names and one-line summaries of every law, in suite order."""
    return [(law.name, law.summary) for law in LAWS]


def run_law(law: Law, ctx: LawContext) -> LawReport:
    """Check one law; a library error raised by its legs fails the law alone."""
    try:
        witness = _first_mismatch(law.cases(ctx))
    except MulprobError as exc:
        return LawReport(law.name, ctx.params(), "fail", f"raised {type(exc).__name__}: {exc}")
    if law.expect_fail:
        if witness is None:
            return LawReport(law.name, ctx.params(), "fail",
                             "expected the two legs to differ, but they agree")
        return LawReport(law.name, ctx.params(), "expected-fail", witness)
    return LawReport(law.name, ctx.params(), "pass" if witness is None else "fail", witness)


def run_laws(only: str | None = None, **bounds) -> list[LawReport]:
    """Run the catalogue (or one named law) under the ``LawContext`` bounds given."""
    ctx = LawContext(**bounds)
    if only is not None:
        if only not in _BY_NAME:
            raise DomainError(f"unknown law {only!r}; see the catalogue listing")
        return [run_law(_BY_NAME[only], ctx)]
    return [run_law(law, ctx) for law in LAWS]


def render_reports(reports: Sequence[LawReport]) -> str:
    """Stable text rendering: one line per law plus a summary."""
    width = max(len(r.name) for r in reports)
    lines = []
    for r in reports:
        lines.append(f"{r.verdict.upper():13} {r.name.ljust(width)}  [{r.params}]")
        if r.witness:
            lines.append(f"{'':13} {r.witness}")
    counts = {"pass": 0, "fail": 0, "expected-fail": 0}
    for r in reports:
        counts[r.verdict] += 1
    lines.append(
        f"summary: {counts['pass']} pass, {counts['expected-fail']} expected-fail, "
        f"{counts['fail']} fail"
    )
    return "\n".join(lines)
