import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mulprob import channels, oracles
from mulprob.channels import (
    arrange,
    draw_delete,
    hypergeometric,
    multinomial,
    mzip,
    ppr,
    zip_tuples,
)
from mulprob.dist import Dist, Predicate, bind, flrn, pred_extend, unit, update
from mulprob.elements import Pair, Space, _FiniteMap
from mulprob.errors import DomainError, ResourceLimitError
from mulprob.multiset import Multiset, accumulate, enumerate_multisets
from mulprob.pml import pml

F = Fraction
AB = Space(["a", "b"])


def ms(**counts):
    return Multiset(counts)


OMEGA = Dist({"a": F(1, 3), "b": F(2, 3)})


def multinomial_by_sequences(omega, k):
    """Independent oracle: enumerate all length-k outcome sequences."""
    acc = {}
    for xs in itertools.product(omega.support, repeat=k):
        w = F(1)
        for x in xs:
            w *= omega[x]
        key = accumulate(xs)
        acc[key] = acc.get(key, F(0)) + w
    return Dist(acc)


class TestArrange:
    def test_uniform_over_listed_sequences(self):
        got = arrange(ms(a=1, b=2))
        assert got == Dist(
            {
                ("a", "b", "b"): F(1, 3),
                ("b", "a", "b"): F(1, 3),
                ("b", "b", "a"): F(1, 3),
            }
        )

    def test_constant_multiset(self):
        assert arrange(ms(x=4)) == unit(("x",) * 4)

    def test_ten_sequences(self):
        got = arrange(ms(a=2, b=3))
        assert len(got.entries) == 10
        assert all(w == F(1, 10) for _, w in got.entries)

    def test_empty(self):
        assert arrange(Multiset()) == unit(())


class TestMultinomial:
    def test_size_zero(self):
        assert multinomial(OMEGA, 0) == unit(Multiset())

    def test_size_one_relabels(self):
        assert multinomial(OMEGA, 1) == Dist({ms(a=1): F(1, 3), ms(b=1): F(2, 3)})

    def test_uniform_two_draws(self):
        got = multinomial(Dist.uniform(AB), 2)
        assert got == Dist({ms(a=2): F(1, 4), ms(a=1, b=1): F(1, 2), ms(b=2): F(1, 4)})
        assert got == multinomial_by_sequences(Dist.uniform(AB), 2)

    def test_against_sequence_oracle(self):
        pool = [
            OMEGA,
            unit("a"),
            Dist.uniform(AB),
            Dist({"a": F(1, 5), "b": F(4, 5)}),
            Dist({"a": F(2, 7), "b": F(4, 7), "c": F(1, 7)}),
        ]
        for omega in pool:
            for k in range(4):
                assert multinomial(omega, k) == multinomial_by_sequences(omega, k)

    def test_negative_size_rejected(self):
        with pytest.raises(DomainError):
            multinomial(OMEGA, -1)


class TestHypergeometric:
    def test_draw_everything(self):
        urn = ms(a=3, b=2)
        assert hypergeometric(urn, urn.size) == unit(urn)

    def test_single_draw(self):
        got = hypergeometric(ms(a=3, b=2), 1)
        assert got == Dist({ms(a=1): F(3, 5), ms(b=1): F(2, 5)})

    def test_two_from_two_and_two(self):
        got = hypergeometric(ms(a=2, b=2), 2)
        assert got == Dist(
            {ms(a=2): F(1, 6), ms(a=1, b=1): F(2, 3), ms(b=2): F(1, 6)}
        )

    def test_draw_size_zero(self):
        assert hypergeometric(ms(a=1), 0) == unit(Multiset())

    def test_small_draw_from_a_huge_count(self, monkeypatch):
        # The binomials are those a size-k draw reads, t <= k, however
        # many copies the urn holds.
        calls = []

        def counted_comb(n, t):
            calls.append(t)
            return math.comb(n, t)

        monkeypatch.setattr(channels, "comb", counted_comb)
        got = hypergeometric(Multiset({"a": 10**6, "b": 1}), 1)
        assert got == Dist({ms(a=1): F(10**6, 10**6 + 1), ms(b=1): F(1, 10**6 + 1)})
        assert max(calls) == 1

    def test_overdraw_rejected(self):
        with pytest.raises(DomainError):
            hypergeometric(ms(a=2), 3)

    def test_supports_are_sub_multisets(self):
        urn = ms(a=2, b=1, c=1)
        for k in range(urn.size + 1):
            got = hypergeometric(urn, k)
            for phi, _ in got.entries:
                assert phi.size == k and all(n <= urn[x] for x, n in phi.entries)


class TestDrawDelete:
    def test_singleton(self):
        assert draw_delete(ms(x=1)) == unit(Multiset())

    def test_two_copies(self):
        assert draw_delete(ms(a=2)) == unit(ms(a=1))

    def test_follows_the_displayed_rule(self):
        # Each element is removed with its frequency as probability.
        got = draw_delete(ms(a=3, b=2))
        assert got == Dist({ms(a=2, b=2): F(3, 5), ms(a=3, b=1): F(2, 5)})

    def test_removal_probability_is_frequency(self):
        urn = ms(a=4, b=1, c=2)
        got = draw_delete(urn)
        for x in urn.support:
            child = Multiset({**dict(urn.entries), x: urn[x] - 1})
            assert got[child] == flrn(urn)[x]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            draw_delete(Multiset())


class TestPpr:
    def test_single_position(self):
        assert ppr(("x",)) == unit(())

    def test_two_positions(self):
        assert ppr(("a", "b")) == Dist({("b",): F(1, 2), ("a",): F(1, 2)})

    def test_coinciding_deletions(self):
        assert ppr(("a", "a", "b")) == Dist({("a", "b"): F(2, 3), ("a", "a"): F(1, 3)})

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ppr(())


class TestZip:
    def test_single(self):
        assert zip_tuples(("a",), ("0",)) == (Pair("a", "0"),)

    def test_three(self):
        got = zip_tuples(("a", "b", "b"), ("0", "0", "1"))
        assert got == (Pair("a", "0"), Pair("b", "0"), Pair("b", "1"))

    def test_empty(self):
        assert zip_tuples((), ()) == ()

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            zip_tuples(("a",), ())


class TestMzip:
    def test_worked_example(self):
        got = mzip(ms(a=1, b=2), Multiset({"z0": 2, "z1": 1}))
        assert got == Dist(
            {
                Multiset({Pair("a", "z1"): 1, Pair("b", "z0"): 2}): F(1, 3),
                Multiset(
                    {Pair("a", "z0"): 1, Pair("b", "z0"): 1, Pair("b", "z1"): 1}
                ): F(2, 3),
            }
        )

    def test_constant_right_side(self):
        phi = ms(a=1, b=2)
        got = mzip(phi, Multiset({"y": 3}))
        assert got == unit(phi.tensor(ms(y=1)))

    def test_singletons(self):
        assert mzip(ms(a=1), Multiset({"0": 1})) == unit(Multiset({Pair("a", "0"): 1}))

    def test_empty(self):
        assert mzip(Multiset(), Multiset()) == unit(Multiset())

    def test_size_mismatch_rejected(self):
        with pytest.raises(DomainError):
            mzip(ms(a=1), ms(a=1, b=1))


def sized_multisets(atoms, k):
    return st.lists(st.sampled_from(atoms), min_size=k, max_size=k).map(accumulate)


@settings(max_examples=150)
@given(st.integers(0, 5).flatmap(
    lambda k: st.tuples(sized_multisets("abc", k), sized_multisets("uvw", k))))
def test_mzip_agrees_with_arrangement_pairs(pair):
    phi, psi = pair
    assert mzip(phi, psi) == oracles.mzip_arrangements(phi, psi)


class TestMzipCost:
    """mzip enumerates contingency tables, not pairs of arrangements."""

    def test_size_twelve_closed_form(self):
        # 853,776 arrangement pairs by definition; 7 tables here.
        got = mzip(ms(a=6, b=6), ms(u=6, v=6))
        assert len(got.entries) == 7
        for j in range(7):
            tau = Multiset({Pair("a", "u"): j, Pair("a", "v"): 6 - j,
                            Pair("b", "u"): 6 - j, Pair("b", "v"): j})
            want = F(math.factorial(6) ** 4,
                     math.factorial(12) * math.factorial(j) ** 2 * math.factorial(6 - j) ** 2)
            assert got[tau] == want

    def test_budget_counts_tables(self, monkeypatch):
        # 63,504 arrangement pairs, at most 6 tables of at most 4 cells.
        monkeypatch.setenv("MULPROB_MAX_CELLS", "24")
        got = mzip(ms(a=5, b=5), ms(u=5, v=5))
        assert len(got.entries) == 6
        monkeypatch.setenv("MULPROB_MAX_CELLS", "23")
        with pytest.raises(ResourceLimitError) as err:
            mzip(ms(a=5, b=5), ms(u=5, v=5))
        assert (err.value.op, err.value.needed) == ("cells of mzip contingency tables", 24)

    def test_budget_counts_cells_of_wide_tables(self, monkeypatch):
        # 100 tables, each with a cell in all 100 columns: 10,000 cells.
        monkeypatch.setenv("MULPROB_MAX_CELLS", "5000")
        psi = Multiset({f"x{i}": 1 for i in range(100)})
        with pytest.raises(ResourceLimitError) as err:
            mzip(ms(a=1, b=99), psi)
        assert (err.value.needed, err.value.limit) == (10_000, 5000)
        monkeypatch.setenv("MULPROB_MAX_CELLS", "10000")
        assert len(mzip(ms(a=1, b=99), psi).entries) == 100

    def test_many_rows_over_budget(self, monkeypatch):
        monkeypatch.setenv("MULPROB_MAX_CELLS", "1000")
        phi = Multiset({x: 3 for x in "abcdefgh"})
        psi = Multiset({y: 6 for y in "uvwz"})
        with pytest.raises(ResourceLimitError, match="mzip contingency tables"):
            mzip(phi, psi)


class TestBudgets:
    def test_hypergeometric_counts_sub_multisets(self, monkeypatch):
        urn = Multiset({x: 4 for x in "abcdefgh"})
        monkeypatch.setenv("MULPROB_MAX_CELLS", "100")
        with pytest.raises(ResourceLimitError, match="sub-multisets"):
            hypergeometric(urn, 10)

    def test_hypergeometric_feasible_urn_runs(self, monkeypatch):
        # 70 sub-multisets of size 4, though multichoose(8, 4) = 330.
        urn = Multiset({x: 1 for x in "abcdefgh"})
        monkeypatch.setenv("MULPROB_MAX_CELLS", "70")
        assert len(hypergeometric(urn, 4).entries) == 70

    def test_product_space_is_charged_before_it_is_built(self, monkeypatch):
        abcd = Space("abcd")
        monkeypatch.setenv("MULPROB_MAX_CELLS", "15")
        with pytest.raises(ResourceLimitError, match=r"^tensor product support needs 16 cells") as err:
            abcd.product(abcd)
        assert (err.value.op, err.value.needed, err.value.limit) == ("tensor product support", 16, 15)
        monkeypatch.setenv("MULPROB_MAX_CELLS", "16")
        assert len(abcd.product(abcd)) == 16


class TestPprProofReplay:
    """Positionwise deletion mirrors draw-and-delete across accumulation."""

    def test_acc_after_ppr_is_dd_after_acc(self):
        for k in (1, 2, 3):
            for xs in AB.power(k):
                lhs = ppr(xs).map(accumulate)
                rhs = draw_delete(accumulate(xs))
                assert lhs == rhs

    def test_ppr_commutes_with_big_tensor(self):
        from mulprob.dist import big_tensor

        dists = [OMEGA, unit("a"), Dist.uniform(AB)]
        for k in (1, 2):
            for ws in itertools.product(dists, repeat=k):
                lhs = bind(big_tensor(list(ws)), ppr)
                rhs = bind(ppr(ws), lambda vs: big_tensor(list(vs)))
                assert lhs == rhs


def test_channel_equality_is_pointwise():
    from mulprob.dist import Channel

    f = Channel.from_mapping({"a": OMEGA, "b": unit("b")})
    g = Channel(AB, lambda x: OMEGA if x == "a" else unit("b"))
    h = Channel.from_mapping({"a": OMEGA, "b": unit("a")})
    assert f == g and hash(f) == hash(g)
    assert f != h
    assert f != Channel.identity(Space(["a"]))


def test_every_draw_output_is_normalized():
    # The Dist constructor enforces the unit sum; evaluating a sample of
    # outputs here makes the guarantee visible as a test.
    for omega in (OMEGA, Dist.uniform(AB)):
        for k in range(4):
            assert sum(w for _, w in multinomial(omega, k).entries) == 1
    for urn in enumerate_multisets(AB, 4):
        for k in range(5):
            assert sum(w for _, w in hypergeometric(urn, k).entries) == 1
        if urn.size:
            assert sum(w for _, w in draw_delete(urn).entries) == 1


class TestOutcomesBuiltOnce:
    """Each outcome is built once, by the trusted ``_FiniteMap._of``, and
    hashed for the first time once, when the output's one dict takes it;
    no intermediate dict or ``Dist`` holds it first."""

    URN = Multiset({"a": 4, "b": 3, "c": 2, Pair("d", "0"): 3})
    PSI = Multiset({Dist({"a": F(1, 3), "b": F(2, 3)}): 2, Dist.uniform("bcd"): 3,
                    Dist({Pair("a", "0"): F(1, 2), "e": F(1, 4), "7": F(1, 4)}): 1})
    ABC = Dist.uniform("abc")
    PRED = Predicate({"a": F(1, 2), "b": F(1, 3), "c": 1})

    @staticmethod
    def counted(monkeypatch, op):
        """``op()`` with the values it builds and first hashes, by class."""
        built, hashed = Counter(), Counter()
        of, hash_ = _FiniteMap._of.__func__, _FiniteMap.__hash__

        def counted_of(cls, data, total):
            built[cls] += 1
            return of(cls, data, total)

        def counted_hash(value):
            if value._hash is None:
                hashed[type(value)] += 1
            return hash_(value)

        with monkeypatch.context() as patch:
            patch.setattr(_FiniteMap, "_of", classmethod(counted_of))
            patch.setattr(_FiniteMap, "__hash__", counted_hash)
            out = op()
        return out, built, hashed

    @pytest.mark.parametrize("op, dists", [
        (lambda: hypergeometric(TestOutcomesBuiltOnce.URN, 6), 1),
        (lambda: draw_delete(TestOutcomesBuiltOnce.URN), 1),
        (lambda: mzip(ms(a=3, b=2, c=1), ms(u=2, v=2, w=2)), 1),
        (lambda: pml(TestOutcomesBuiltOnce.PSI), 1),
        # ``update`` builds no outcome of its own: those of the draws it weighs.
        (lambda: update(multinomial(TestOutcomesBuiltOnce.ABC, 5),
                        pred_extend(TestOutcomesBuiltOnce.PRED)), 2),
    ], ids=["hypergeometric", "draw_delete", "mzip", "pml", "update"])
    def test_one_multiset_per_outcome(self, monkeypatch, op, dists):
        out, built, hashed = self.counted(monkeypatch, op)
        n = len(out._map)
        assert n > 1
        assert built == {Multiset: n, Dist: dists}
        assert hashed == {Multiset: n}

    def test_arrange_builds_each_sequence_once(self, monkeypatch):
        m = ms(a=3, b=2, c=2)
        out, built, hashed = self.counted(monkeypatch, lambda: arrange(m))
        assert len(out._map) == m.coefficient() == 210
        assert built == {Dist: 1} and not hashed
