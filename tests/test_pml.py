import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mulprob.channels import multinomial
from mulprob.combinatorics import multichoose
from mulprob.dist import (
    Channel,
    Dist,
    Predicate,
    bind,
    flatten,
    flrn,
    pred_extend,
    push,
    unit,
    update,
    validity,
)
from mulprob.elements import Pair, Space
from mulprob.errors import DomainError, ResourceLimitError
from mulprob.multiset import Multiset, accumulate, enumerate_multisets
from mulprob.oracles import pml_def1, pml_def3_check, pml_def4
from mulprob.pml import lifted_map, monoid_sum, pml

F = Fraction
AB = Space(["a", "b"])

OMEGA = Dist({"a": F(1, 3), "b": F(2, 3)})
RHO = Dist({"a": F(3, 4), "b": F(1, 4)})
PSI = Multiset({OMEGA: 2, RHO: 1})

EXPECTED = Dist(
    {
        Multiset({"a": 3}): F(1, 12),
        Multiset({"a": 2, "b": 1}): F(13, 36),
        Multiset({"a": 1, "b": 2}): F(4, 9),
        Multiset({"b": 3}): F(1, 9),
    }
)


def rand_dist(rng, space=AB):
    ws = [rng.randint(1, 9) for _ in space.elements]
    total = sum(ws)
    return Dist((x, F(w, total)) for x, w in zip(space.elements, ws))


class TestWorkedExample:
    def test_def3_at_the_example_tuple(self):
        assert pml_def3_check([OMEGA, OMEGA, RHO])

    def test_entry_point(self):
        assert pml(PSI) == EXPECTED


class TestDegenerateInputs:
    def test_empty_multiset(self):
        assert pml(Multiset()) == unit(Multiset())

    def test_single_member(self):
        got = pml(Multiset({OMEGA: 1}))
        assert got == Dist({Multiset({"a": 1}): F(1, 3), Multiset({"b": 1}): F(2, 3)})

    def test_repeated_member_is_a_plain_draw(self):
        for k in range(4):
            assert pml(Multiset({OMEGA: k})) == multinomial(OMEGA, k)

    def test_point_masses_collapse(self):
        psi = Multiset({unit("a"): 2, unit("b"): 1})
        assert pml(psi) == unit(Multiset({"a": 2, "b": 1}))

    def test_single_tuple_triangle(self):
        assert pml_def3_check([OMEGA])

    def test_rejects_plain_multisets(self):
        with pytest.raises(DomainError):
            pml(Multiset({"a": 2}))


class TestDefinitionAgreement:
    def test_on_random_inputs(self):
        rng = random.Random(42)
        pool = [OMEGA, RHO, Dist.uniform(AB)] + [rand_dist(rng) for _ in range(5)]
        for _ in range(60):
            size = rng.randint(0, 4)
            psi = accumulate([rng.choice(pool) for _ in range(size)])
            a = pml_def1(psi)
            assert pml(psi) == a
            assert pml_def4(psi) == a

    def test_triangle_on_random_tuples(self):
        rng = random.Random(43)
        pool = [OMEGA, RHO, Dist.uniform(AB)] + [rand_dist(rng) for _ in range(5)]
        for _ in range(40):
            size = rng.randint(0, 3)
            assert pml_def3_check([rng.choice(pool) for _ in range(size)])


class TestMonoidStructure:
    def test_unit(self):
        e = unit(Multiset())
        d = multinomial(OMEGA, 2)
        assert monoid_sum(e, d) == d
        assert monoid_sum(d, e) == d

    def test_commutative_and_associative(self):
        a = multinomial(OMEGA, 1)
        b = multinomial(RHO, 2)
        c = multinomial(Dist.uniform(AB), 1)
        assert monoid_sum(a, b) == monoid_sum(b, a)
        assert monoid_sum(monoid_sum(a, b), c) == monoid_sum(a, monoid_sum(b, c))

    def test_outcomes_must_be_multisets(self):
        # Atoms are strings, which ``+`` would concatenate.
        with pytest.raises(DomainError, match=r"^monoid sum needs distributions over multisets, found a, not a Multiset$"):
            monoid_sum(unit(Multiset()), unit("a"))

    def test_sum_is_under_the_cell_budget(self, monkeypatch):
        d = multinomial(OMEGA, 10)  # 11 outcomes: 121 pairs
        monkeypatch.setenv("MULPROB_MAX_CELLS", "100")
        with pytest.raises(ResourceLimitError, match="monoid sum outcome pairs") as exc:
            monoid_sum(d, d)
        assert (exc.value.op, exc.value.needed, exc.value.limit) == (
            "monoid sum outcome pairs", 121, 100)
        assert str(exc.value) == budget_message("monoid sum outcome pairs", 121, 100)


def summed_draw_checks(psi):
    """The budget checks of ``pml`` as (label, cells), in the order they run.

    Worked out from the definition: the members in canonical order, each
    one's draws counted as multisets, then the pairs of the outcomes so
    far with those draws counted as a monoid sum.
    """
    checks = []
    outcomes = {Multiset()}
    for member, n in psi.entries:
        m = len(member.support)
        draws = enumerate_multisets(member.support, n)
        checks.append((f"multisets of size {n} over {m} elements", multichoose(m, n)))
        checks.append(("monoid sum outcome pairs", len(outcomes) * len(draws)))
        outcomes = {phi + chi for phi in outcomes for chi in draws}
    return checks


def budget_message(op, needed, limit):
    return (f"{op} needs {needed} cells, exceeding the limit of {limit} "
            "(set MULPROB_MAX_CELLS to raise it)")


ABC = Dist.uniform("abc")
AD = Dist({"a": F(1, 2), "d": F(1, 2)})


class TestKernelBudget:
    """``pml`` and lifted channels run every budget check of summed draws:
    one per member for its draws, one per step for the pairs of outcomes."""

    # Each input with the limit at which ``pml`` first passes, as measured
    # on the chain of ``monoid_sum`` calls over ``multinomial`` outputs
    # that computed ``pml`` before the packed-count kernel.
    @pytest.mark.parametrize("psi, limit", [
        (Multiset({ABC: 2, AD: 1, unit("e"): 1}), 12),
        (Multiset({ABC: 3}), 10),
        (PSI, 6),
        (Multiset({Dist.uniform("ab"): 2, ABC: 1, Dist({"a": F(1, 3), "c": F(2, 3)}): 1}), 14),
        (Multiset({Dist.uniform("ab"): 3, Dist.uniform(["0", "00"]): 2}), 12),
    ], ids=["mixed", "one-member", "worked-example", "overlapping", "disjoint"])
    def test_pml_raises_on_the_first_check_over_the_limit(self, monkeypatch, psi, limit):
        checks = summed_draw_checks(psi)
        assert max(n for _, n in checks) == limit
        for lower in range(1, limit):
            op, needed = next((op, n) for op, n in checks if n > lower)
            monkeypatch.setenv("MULPROB_MAX_CELLS", str(lower))
            with pytest.raises(ResourceLimitError) as exc:
                pml(psi)
            assert (exc.value.op, exc.value.needed, exc.value.limit) == (op, needed, lower)
            assert str(exc.value) == budget_message(op, needed, lower)
        monkeypatch.setenv("MULPROB_MAX_CELLS", str(limit))
        got = pml(psi)
        monkeypatch.delenv("MULPROB_MAX_CELLS")
        assert got == pml_def1(psi)

    # Four outcomes for ``a`` and two for ``b``; the domain of the size-3
    # lifted channel has 4 multisets.
    WIDE = Channel.from_mapping({"a": Dist.uniform(["u", "v", "w", "x"]),
                                 "b": Dist.uniform(["u", "v"])})

    @pytest.mark.parametrize("phi, op", [
        (Multiset({"a": 3}), "multisets of size 3 over 4 elements"),
        (Multiset({"a": 2, "b": 1}), "monoid sum outcome pairs"),
    ], ids=["member-draws", "outcome-pairs"])
    def test_lifted_channel_raises_under_a_small_limit(self, monkeypatch, phi, op):
        chan = lifted_map(self.WIDE, 3)
        monkeypatch.setenv("MULPROB_MAX_CELLS", "19")
        with pytest.raises(ResourceLimitError) as exc:
            chan(phi)
        assert (exc.value.op, exc.value.needed, exc.value.limit) == (op, 20, 19)
        assert str(exc.value) == budget_message(op, 20, 19)
        monkeypatch.setenv("MULPROB_MAX_CELLS", "20")
        assert chan(phi) == pml(phi.map_elements(self.WIDE))


class TestWideKeys:
    """Outcomes over more elements than fit one machine word of counts,
    where the packed keys carry a fingerprint for hashing."""

    U = Dist.uniform([f"u{i}" for i in range(40)])
    V = Dist.uniform([f"v{i}" for i in range(40)])
    W = Dist({**{f"u{i}": F(1, 60) for i in range(30)}, **{f"w{i}": F(1, 60) for i in range(30)}})

    def test_disjoint_members(self):
        got = pml(Multiset({self.U: 1, self.V: 1}))
        want = {Multiset({x: 1, y: 1}): F(1, 1600) for x in self.U.support for y in self.V.support}
        assert dict(got.entries) == want

    def test_repeated_member_is_a_plain_draw(self):
        for k in (2, 3):
            assert pml(Multiset({self.U: k})) == multinomial(self.U, k)

    def test_overlapping_members(self):
        psi = Multiset({self.U: 1, self.W: 1})
        assert pml(psi) == pml_def1(psi)

    def test_monoid_sum(self):
        a, b = multinomial(self.U, 1), multinomial(self.W, 1)
        want: dict = {}
        for phi, w in a.entries:
            for chi, v in b.entries:
                want[phi + chi] = want.get(phi + chi, 0) + w * v
        assert dict(monoid_sum(a, b).entries) == want


@st.composite
def dists_over(draw, atoms, min_size=1):
    """A distribution on some of ``atoms`` with small integer weights."""
    support = draw(st.lists(st.sampled_from(atoms), min_size=min_size, max_size=len(atoms),
                            unique=True))
    ws = draw(st.lists(st.integers(1, 6), min_size=len(support), max_size=len(support)))
    return Dist({x: F(w, sum(ws)) for x, w in zip(support, ws)})


NARROW = ["a", "b", "0", Pair("a", "0"), Pair("b", Pair("a", "a"))]
# Four blocks of eight atoms, pairs among them.  Four members of one
# occurrence each, on at least six atoms of their own block, pack their
# outcomes over at least 24 atoms of 3 bits: past the 61 bits of one key.
BLOCKS = [[f"x{i}{j}" for j in range(6)] + [Pair(f"x{i}", "0"), Pair("0", f"x{i}")]
          for i in range(4)]


@settings(max_examples=60)
@given(st.one_of(
    st.lists(st.tuples(dists_over(NARROW), st.integers(1, 2)), max_size=4)
    .filter(lambda members: sum(n for _, n in members) <= 5),
    st.tuples(*(dists_over(block, min_size=6) for block in BLOCKS)).map(
        lambda members: [(d, 1) for d in members]),
))
def test_pml_agrees_with_joint_outcomes(members):
    psi = Multiset(members)  # a repeated member adds up
    assert pml(psi) == pml_def1(psi)


class TestLiftedMap:
    def test_identity_lifts_to_identity(self):
        chan = lifted_map(Channel.identity(AB), 2)
        for phi in chan.domain:
            assert chan(phi) == unit(phi)

    def test_deterministic_channel_maps_the_multiset(self):
        swap = {"a": "b", "b": "a"}
        chan = lifted_map(Channel.deterministic(AB, swap.__getitem__), 3)
        for phi in chan.domain:
            assert chan(phi) == unit(phi.map_elements(swap.__getitem__))

    def test_size_one_is_a_relabeling_of_the_channel(self):
        f = Channel.from_mapping(
            {"a": Dist({"u": F(1, 4), "v": F(3, 4)}), "b": unit("u")}
        )
        chan = lifted_map(f, 1)
        for x in AB:
            got = chan(Multiset({x: 1}))
            assert got == f(x).map(lambda y: Multiset({y: 1}))


# Three domain points, each with outputs on all 11 atoms of its own block.
# Size-2 and size-3 outcomes take 2 bits per atom, so two blocks fit one
# key, and all three (66 bits) do not: asked in a random order, a lifted
# channel switches its packing to wide keys at the first point that draws
# on the third block.
LIFT_BLOCKS = {x: [f"{x}{j}" for j in range(9)] + [Pair(x, "0"), Pair("0", x)] for x in "abc"}


@settings(max_examples=30)
@given(st.data())
def test_lifted_map_agrees_with_pml_in_any_order(data):
    wide = data.draw(st.booleans(), label="wide")
    f = Channel.from_mapping({
        x: data.draw(dists_over(LIFT_BLOCKS[x], min_size=11) if wide else dists_over(NARROW),
                     label=x)
        for x in "abc"})
    k = data.draw(st.integers(2, 3) if wide else st.integers(0, 3), label="k")
    lifted = lifted_map(f, k)
    for phi in data.draw(st.permutations(lifted.domain.elements), label="order"):
        assert lifted(phi) == pml(phi.map_elements(f))


class TestLearningAndSampling:
    def test_learning_averages_the_members(self):
        lhs = bind(pml(PSI), flrn)
        assert lhs == flatten(flrn(PSI))
        assert lhs == Dist({"a": F(17, 36), "b": F(19, 36)})

    def test_sampling_round_trip(self):
        c = Channel.from_mapping(
            {
                "a": Dist({"u": F(1, 2), "v": F(1, 2)}),
                "b": Dist({"u": F(1, 5), "v": F(4, 5)}),
            }
        )
        for k in (1, 2, 3):
            sampled = bind(push(lifted_map(c, k), multinomial(OMEGA, k)), flrn)
            assert sampled == push(c, OMEGA)


def flatten_multiset(outer: Multiset) -> Multiset:
    """The union of a multiset of multisets, each counted with its multiplicity."""
    counts: dict = {}
    for inner, n in outer.entries:
        for x, m in inner.entries:
            counts[x] = counts.get(x, 0) + n * m
    return Multiset(counts)


class TestMonadSideAxioms:
    """The law also respects the structure of multisets themselves."""

    def test_unit_side(self):
        # A one-element multiset of distributions relabels the member.
        for omega in (OMEGA, RHO, unit("a")):
            lhs = pml(Multiset({omega: 1}))
            rhs = omega.map(lambda x: Multiset({x: 1}))
            assert lhs == rhs

    def test_multiplication_side(self):
        # Flattening nested multisets before the law agrees with applying
        # the law at both levels and flattening the outcome multisets.
        rng = random.Random(17)
        pool = [OMEGA, RHO, Dist.uniform(AB)]
        for _ in range(40):
            inners = [
                accumulate([rng.choice(pool) for _ in range(rng.randint(0, 2))])
                for _ in range(rng.randint(0, 3))
            ]
            nested = accumulate(inners)
            lhs = pml(flatten_multiset(nested))
            rhs = pml(nested.map_elements(pml)).map(flatten_multiset)
            assert lhs == rhs


class TestUpdating:
    P = Predicate({"a": F(3, 4), "b": F(1, 3)})

    def test_draw_validity_is_a_power(self):
        ext = pred_extend(self.P)
        for k in range(4):
            assert validity(multinomial(OMEGA, k), ext) == validity(OMEGA, self.P) ** k

    def test_updated_draws_draw_from_the_update(self):
        ext = pred_extend(self.P)
        for k in range(1, 4):
            assert update(multinomial(OMEGA, k), ext) == multinomial(
                update(OMEGA, self.P), k
            )

    def test_validity_multiplies_over_members(self):
        ext = pred_extend(self.P)
        want = validity(OMEGA, self.P) ** 2 * validity(RHO, self.P)
        assert validity(pml(PSI), ext) == want

    def test_update_distributes_over_members(self):
        ext = pred_extend(self.P)
        got = update(pml(PSI), ext)
        want = pml(PSI.map_elements(lambda w: update(w, self.P)))
        assert got == want
