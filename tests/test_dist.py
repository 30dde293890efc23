import random
import re
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from mulprob.channels import (
    arrange, draw_delete, hypergeometric, multinomial, mzip, ppr, zip_tuples)
from mulprob.dist import (
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
from mulprob.elements import Pair, Space
from mulprob.errors import DomainError, MulprobError, ResourceLimitError
from mulprob.multiset import Multiset, enumerate_arrangements, enumerate_multisets
from mulprob.pml import lifted_map, monoid_sum, pml

F = Fraction
AB = Space(["a", "b"])


def d(**weights):
    return Dist({k: F(v) for k, v in weights.items()})


OMEGA = Dist({"a": F(1, 3), "b": F(2, 3)})
RHO = Dist({"a": F(3, 4), "b": F(1, 4)})


class TestConstruction:
    def test_point_mass(self):
        assert unit("a") == Dist({"a": 1})
        assert unit(Pair("a", "0")).support == (Pair("a", "0"),)
        assert sum(w for _, w in unit("x").entries) == 1

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            Dist({"a": F(1, 2), "b": F(1, 3)})

    def test_zero_weights_dropped(self):
        assert Dist({"a": 1, "b": 0}).support == ("a",)

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            Dist({"a": F(3, 2), "b": F(-1, 2)})
        with pytest.raises(DomainError, match=r"^negative weight -1 for a$"):
            Dist({"a": -1, "b": 2})

    def test_weights_only(self):
        # Numerators over a denominator are the library's own input (``Dist._over``).
        with pytest.raises(TypeError, match=r"unexpected keyword argument 'denominator'$"):
            Dist({"a": -1, "b": 2}, denominator=1)

    def test_floats_rejected(self):
        with pytest.raises(DomainError):
            Dist({"a": 0.5, "b": 0.5})

    def test_duplicate_keys_merge(self):
        assert Dist([("a", F(1, 2)), ("a", F(1, 2))]) == unit("a")

    def test_equality_is_order_insensitive(self):
        assert Dist([("a", F(1, 2)), ("b", F(1, 2))]) == Dist([("b", F(1, 2)), ("a", F(1, 2))])


class TestPushAndCompose:
    def setup_method(self):
        self.f = Channel.from_mapping(
            {
                "a": Dist({"0": F(1, 2), "1": F(1, 2)}),
                "b": Dist({"0": 1}),
            }
        )

    def test_identity_channel(self):
        assert push(Channel.identity(AB), OMEGA) == OMEGA

    def test_constant_channel_is_convex(self):
        chan = Channel.constant(AB, RHO)
        assert push(chan, d(a=F(1, 2), b=F(1, 2))) == RHO

    def test_hand_expanded_double_sum(self):
        got = push(self.f, d(a=F(1, 2), b=F(1, 2)))
        assert got == Dist({"0": F(3, 4), "1": F(1, 4)})

    def test_support_escape_rejected(self):
        with pytest.raises(DomainError):
            push(self.f, unit("c"))

    def test_rejections_print_values_in_ket_notation(self):
        with pytest.raises(DomainError, match=r"^support element \(c,00\) outside channel domain$"):
            push(self.f, unit(Pair("c", "00")))
        with pytest.raises(DomainError, match=r"^\[2 a\] is outside the channel domain$"):
            self.f(Multiset({"a": 2}))
        # Not an element value at all: shown as its repr.
        with pytest.raises(DomainError, match=r"^\[1\] is outside the channel domain$"):
            self.f([1])

    def test_push_names_the_first_outside_element_in_canonical_order(self):
        # Stored in the order d, a, c; the message names c, which sorts first.
        omega = Dist([("d", F(1, 3)), ("a", F(1, 3)), ("c", F(1, 3))])
        assert list(omega._map) == ["d", "a", "c"]
        with pytest.raises(DomainError, match=r"^support element c outside channel domain$"):
            push(self.f, omega)

    def test_push_names_an_element_outside_the_grammar_in_one_line(self):
        # ``1`` has no sort key, so the message names the first escaping
        # element in stored order.  The value is built inside the block, so
        # a constructor that rejects it passes too.
        with pytest.raises(MulprobError) as raised:
            push(Channel(["a"], unit), Dist([(1, F(1, 2)), ("b", F(1, 2))]))
        message = str(raised.value)
        assert "\n" not in message
        if message.startswith("support element"):
            assert message == "support element 1 outside channel domain"

    def test_unit_laws(self):
        assert compose(Channel.identity(Space(["0", "1"])), self.f)("a") == self.f("a")
        assert compose(self.f, Channel.identity(AB))("b") == self.f("b")

    def test_bind_is_under_the_cell_budget(self, monkeypatch):
        # Two inputs, each kernel call with six outcomes: 12 cells.
        def kernel(x):
            return Dist.uniform([f"{x}{i}" for i in range(6)])

        monkeypatch.setenv("MULPROB_MAX_CELLS", "11")
        with pytest.raises(ResourceLimitError, match="bind kernel outcomes needs 12 cells"):
            bind(OMEGA, kernel)
        monkeypatch.setenv("MULPROB_MAX_CELLS", "12")
        assert len(bind(OMEGA, kernel).support) == 12

    def test_bind_holds_no_earlier_kernel_output_while_the_kernel_runs(self):
        # ``held[0]`` is a control that ``bind`` never sees; every output
        # the kernel returned is held by ``held`` alone, as the control is.
        held = [Dist.uniform(["z0", "z1"])]

        def kernel(x):
            dists = [sys.getrefcount(held[i]) for i in range(len(held))]
            dicts = [sys.getrefcount(held[i]._map) for i in range(len(held))]
            assert dists == [dists[0]] * len(held)
            assert dicts == [dicts[0]] * len(held)
            out = Dist.uniform([x + "0", x + "1", "c"])
            held.append(out)
            return out

        out = bind(Dist.uniform("ab"), kernel)
        assert len(held) == 3
        assert out == Dist({"a0": F(1, 6), "a1": F(1, 6), "b0": F(1, 6), "b1": F(1, 6), "c": F(1, 3)})

    def test_associativity_on_random_channels(self):
        rng = random.Random(7)
        spaces = [AB, Space(["0", "1"]), Space(["u", "v"]), Space(["s", "t"])]

        def rand_channel(src, dst):
            def rand_dist():
                ws = [rng.randint(1, 5) for _ in dst.elements]
                total = sum(ws)
                return Dist((x, F(w, total)) for x, w in zip(dst.elements, ws))

            return Channel.from_mapping({x: rand_dist() for x in src.elements})

        for _ in range(20):
            f = rand_channel(spaces[0], spaces[1])
            g = rand_channel(spaces[1], spaces[2])
            h = rand_channel(spaces[2], spaces[3])
            lhs = compose(compose(h, g), f)
            rhs = compose(h, compose(g, f))
            for x in AB:
                assert lhs(x) == rhs(x)


def counting_channel(domain, kernel):
    """A channel whose kernel counts its runs at each point."""
    runs = Counter()

    def counted(x):
        runs[x] += 1
        return kernel(x)

    return Channel(domain, counted), runs


class TestChannelTable:
    def test_kernel_runs_once_per_point(self):
        c, runs = counting_channel(AB, lambda x: Dist.uniform([x + "0", x + "1", x + "2"]))
        assert c("a") is c("a")
        first = push(c, OMEGA)
        assert push(c, OMEGA) == first
        assert bind(OMEGA, c) == first
        lifted = lifted_map(c, 3)
        phi = Multiset({"a": 2, "b": 1})
        assert lifted(phi) is lifted(phi)
        assert runs == Counter({"a": 1, "b": 1})

    def test_kernel_that_returns_no_dist_raises_every_time(self):
        c, runs = counting_channel(AB, lambda x: {x: 1})
        for n in (1, 2):
            with pytest.raises(DomainError, match=r"^channel kernel returned \{'a': 1\}, not a Dist$"):
                c("a")
            assert runs["a"] == n

    def test_kernel_output_is_shown_in_ket_notation(self):
        c = Channel(AB, lambda x: Multiset({x: 1}))
        with pytest.raises(DomainError, match=r"^channel kernel returned \[1 a\], not a Dist$"):
            c("a")

    def test_budget_error_stores_nothing(self, monkeypatch):
        c, runs = counting_channel(AB, lambda x: Dist.uniform([x + "0", x + "1", x + "2"]))
        lifted = lifted_map(c, 3)
        phi = Multiset({"a": 3})
        monkeypatch.setenv("MULPROB_MAX_CELLS", "9")
        for _ in range(2):
            with pytest.raises(ResourceLimitError, match="needs 10 cells"):
                lifted(phi)
        monkeypatch.setenv("MULPROB_MAX_CELLS", "10")
        out = lifted(phi)
        assert len(out.support) == 10
        # Stored, so returned under any budget: nothing is computed.
        monkeypatch.setenv("MULPROB_MAX_CELLS", "0")
        assert lifted(phi) is out
        assert runs == Counter({"a": 1})

    def test_domain_errors_survive_a_filled_table(self):
        c, runs = counting_channel(AB, unit)
        assert [c(x) for x in AB] == [unit("a"), unit("b")]
        with pytest.raises(DomainError, match=r"^c is outside the channel domain$"):
            c("c")
        with pytest.raises(DomainError, match=r"^\[1\] is outside the channel domain$"):
            c([1])
        with pytest.raises(DomainError, match=r"^\{\} is outside the channel domain$"):
            c({})
        assert runs == Counter({"a": 1, "b": 1})

    def test_equality_fills_both_tables_and_still_decides(self):
        f, f_runs = counting_channel(AB, {"a": OMEGA, "b": unit("b")}.__getitem__)
        g, g_runs = counting_channel(AB, lambda x: OMEGA if x == "a" else unit("b"))
        h = Channel.from_mapping({"a": OMEGA, "b": unit("a")})
        for _ in range(2):
            assert f == g and hash(f) == hash(g)
            assert f != h
            assert f != Channel.identity(Space(["a"]))
        assert f_runs == g_runs == Counter({"a": 1, "b": 1})


class TestFlatten:
    def test_point_mass_of_distribution(self):
        assert flatten(unit(OMEGA)) == OMEGA

    def test_mix_of_point_masses(self):
        nested = Dist({unit("a"): F(1, 2), unit("b"): F(1, 2)})
        assert flatten(nested) == d(a=F(1, 2), b=F(1, 2))

    def test_weighted_average(self):
        # flrn of [2 omega, 1 rho] averages the members 2:1.
        nested = flrn(Multiset({OMEGA: 2, RHO: 1}))
        assert flatten(nested) == Dist({"a": F(17, 36), "b": F(19, 36)})

    def test_rejects_plain_elements(self):
        with pytest.raises(DomainError):
            flatten(unit("a"))


class TestTensors:
    def test_point_mass_tensor(self):
        got = dtensor(unit("a"), RHO)
        assert got == Dist({Pair("a", x): w for x, w in RHO.entries})

    def test_tensor_is_under_the_cell_budget(self, monkeypatch):
        u = Dist.uniform(Space([str(i) for i in range(11)]))  # 121 pairs
        monkeypatch.setenv("MULPROB_MAX_CELLS", "100")
        with pytest.raises(ResourceLimitError, match="tensor product support"):
            dtensor(u, u)

    def test_uniform_tensor(self):
        u = Dist.uniform(AB)
        v = Dist.uniform(Space(["0", "1"]))
        assert all(w == F(1, 4) for _, w in dtensor(u, v).entries)

    def test_four_products(self):
        got = dtensor(OMEGA, Dist({"0": F(3, 4), "1": F(1, 4)}))
        assert got == Dist(
            {
                Pair("a", "0"): F(1, 4),
                Pair("a", "1"): F(1, 12),
                Pair("b", "0"): F(1, 2),
                Pair("b", "1"): F(1, 6),
            }
        )

    def test_weights_sum_to_one(self):
        got = dtensor(OMEGA, RHO)
        assert sum(w for _, w in got.entries) == 1

    def test_affine_marginals(self):
        pair = dtensor(OMEGA, RHO)
        assert pair.map(lambda p: p.fst) == OMEGA
        assert pair.map(lambda p: p.snd) == RHO

    def test_ctensor_identity(self):
        both = ctensor(Channel.identity(AB), Channel.identity(AB))
        x = Pair("a", "b")
        assert both(x) == unit(x)

    def test_ctensor_projections_recover_components(self):
        f = Channel.constant(AB, OMEGA)
        g = Channel.constant(AB, RHO)
        out = ctensor(f, g)(Pair("a", "b"))
        assert out.map(lambda p: p.fst) == OMEGA
        assert out.map(lambda p: p.snd) == RHO

    def test_ctensor_bifunctorial(self):
        rng = random.Random(11)

        def rand_channel(src, dst):
            def rand_dist():
                ws = [rng.randint(1, 5) for _ in dst.elements]
                total = sum(ws)
                return Dist((x, F(w, total)) for x, w in zip(dst.elements, ws))

            return Channel.from_mapping({x: rand_dist() for x in src.elements})

        uv = Space(["u", "v"])
        for _ in range(10):
            h = rand_channel(AB, AB)
            k = rand_channel(AB, AB)
            f = rand_channel(AB, uv)
            g = rand_channel(AB, uv)
            lhs = compose(ctensor(f, g), ctensor(h, k))
            rhs = ctensor(compose(f, h), compose(g, k))
            for p in lhs.domain:
                assert lhs(p) == rhs(p)

    def test_big_tensor(self):
        assert big_tensor([OMEGA]) == Dist({("a",): F(1, 3), ("b",): F(2, 3)})
        assert big_tensor([]) == Dist({(): 1})
        u = Dist.uniform(AB)
        assert all(w == F(1, 4) for _, w in big_tensor([u, u]).entries)

    def test_iid(self):
        assert iid(OMEGA, 1) == Dist({("a",): F(1, 3), ("b",): F(2, 3)})
        assert iid(OMEGA, 2) == Dist(
            {
                ("a", "a"): F(1, 9),
                ("a", "b"): F(2, 9),
                ("b", "a"): F(2, 9),
                ("b", "b"): F(4, 9),
            }
        )
        assert iid(unit("x"), 3) == unit(("x", "x", "x"))


class TestFlrn:
    def test_normalizes_counts(self):
        assert flrn(Multiset({"a": 3, "b": 1})) == d(a=F(3, 4), b=F(1, 4))

    def test_constant_multiset(self):
        assert flrn(Multiset({"x": 9})) == unit("x")

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            flrn(Multiset())


class TestPredicates:
    def test_validity_of_truth(self):
        always = Predicate({"a": 1, "b": 1})
        never = Predicate({"a": 0, "b": 0})
        assert validity(OMEGA, always) == 1
        assert validity(OMEGA, never) == 0

    def test_validity_of_an_integer_valued_callable_is_a_fraction(self):
        value = validity(OMEGA, lambda x: int(x == "b"))
        assert value == F(2, 3) and type(value) is Fraction

    def test_validity_two_term_sum(self):
        p = Predicate({"a": 1, "b": F(1, 2)})
        assert validity(d(a=F(1, 2), b=F(1, 2)), p) == F(3, 4)

    def test_sharp_update(self):
        p = Predicate({"a": 1, "b": 0})
        assert update(Dist.uniform(AB), p) == unit("a")

    def test_update_with_truth_is_identity(self):
        assert update(OMEGA, Predicate({"a": 1, "b": 1})) == OMEGA

    def test_update_reweights(self):
        p = Predicate({"a": F(3, 4), "b": F(1, 4)})
        assert update(OMEGA, p) == d(a=F(3, 5), b=F(2, 5))

    def test_zero_validity_rejected(self):
        p = Predicate({"a": 0, "b": 1})
        with pytest.raises(DomainError):
            update(unit("a"), p)

    def test_value_range_checked(self):
        with pytest.raises(DomainError):
            Predicate({"a": F(3, 2)})

    def test_pred_extend(self):
        p = Predicate({"a": F(3, 4), "b": F(1, 3)})
        ext = pred_extend(p)
        assert ext(Multiset()) == 1
        assert pred_extend(Predicate({"a": F(1, 2)}))(Multiset({"a": 2})) == F(1, 4)
        assert ext(Multiset({"a": 1, "b": 1})) == F(1, 4)

    def test_update_calls_the_predicate_once_per_element(self):
        seen = []

        def p(x):
            seen.append(x)
            return F(1, 2) if x == "a" else F(1, 3)

        assert update(OMEGA, p) == d(a=F(3, 7), b=F(4, 7))
        assert sorted(seen) == ["a", "b"]

    def test_update_on_integer_values(self):
        assert update(OMEGA, lambda x: int(x == "b")) == unit("b")

    @pytest.mark.parametrize("value, message", [
        (0.5, "float weight 0.5 rejected"),
        (F(-1, 2), "predicate value -1/2 for (a,b) outside [0, 1]"),
        (0, "cannot update on evidence with zero validity"),
    ])
    def test_update_rejects(self, value, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            update(unit(Pair("a", "b")), lambda _: value)

    def test_pred_extend_rejects_floats(self):
        with pytest.raises(DomainError, match="float weight"):
            pred_extend(lambda _: 0.5)(Multiset({"a": 2}))

    def test_pred_extend_on_callables(self):
        ext = pred_extend(lambda x: F(2, 3) if x == "a" else 1)
        assert ext(Multiset({"a": 2, "b": 5})) == F(4, 9)
        assert type(ext(Multiset({"b": 1}))) is Fraction

    # A callable predicate's values obey the rule of ``Predicate``'s own.
    def test_validity_rejects_a_callable_value_below_zero(self):
        with pytest.raises(DomainError, match=r"^predicate value -1 for a outside \[0, 1\]$"):
            validity(OMEGA, lambda x: -1)

    def test_pred_extend_rejects_a_callable_value_above_one(self):
        with pytest.raises(DomainError, match=r"^predicate value 2 for a outside \[0, 1\]$"):
            pred_extend(lambda x: 2)(Multiset({"a": 2}))

    def test_update_rejects_a_callable_value_above_one(self):
        with pytest.raises(DomainError, match=r"^predicate value 5 for a outside \[0, 1\]$"):
            update(OMEGA, lambda x: 5 if x == "a" else 1)

    def test_update_composition(self):
        # Updating twice is one update with the pointwise product.
        p = Predicate({"a": F(1, 2), "b": 1})
        q = Predicate({"a": F(2, 3), "b": F(1, 3)})
        pq = Predicate({x: p(x) * q(x) for x in AB})
        assert update(update(OMEGA, p), q) == update(OMEGA, pq)


# -- monad laws on generated inputs -------------------------------------------

weight_lists = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)


@st.composite
def dists(draw, elements=("a", "b", "c")):
    ws = draw(weight_lists)
    support = list(elements[: len(ws)])
    total = sum(ws)
    return Dist((x, F(w, total)) for x, w in zip(support, ws))


@settings(max_examples=100)
@given(dists())
def test_monad_unit_laws(omega):
    space = Space(["a", "b", "c"])
    assert push(Channel.identity(space), omega) == omega
    assert flatten(unit(omega)) == omega
    assert flatten(omega.map(unit)) == omega


@settings(max_examples=60)
@given(dists(), st.randoms(use_true_random=False))
def test_monad_associativity(omega, rng):
    # Triple-nested distributions flatten the same from either end.
    def lift(w):
        choices = [unit("a"), unit("b"), Dist.uniform(["a", "b"])]
        return Dist.uniform([rng.choice(choices) for _ in range(2)])

    nested = omega.map(lift)  # distribution over distributions
    doubly = nested.map(lambda inner: inner.map(unit))
    assert flatten(flatten(doubly)) == flatten(doubly.map(flatten))


OUTCOMES = ("a", "b", "c", "d", "e", Pair("a", "b"), Multiset({"a": 2}))


@st.composite
def kernel_outputs(draw):
    """A distribution over some of ``OUTCOMES`` whose weights are parts of
    one denominator out of 2, 3, 4 and 6, in a random stored order."""
    den = draw(st.sampled_from([2, 3, 4, 6]))
    cuts = draw(st.lists(st.integers(1, den - 1), unique=True, max_size=len(OUTCOMES) - 1))
    bounds = [0, *sorted(cuts), den]
    support = draw(st.permutations(OUTCOMES))[: len(bounds) - 1]
    return Dist([(y, F(hi - lo, den)) for y, lo, hi in zip(support, bounds, bounds[1:])])


@settings(max_examples=100)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=5),
       st.lists(kernel_outputs(), min_size=5, max_size=5))
def test_bind_agrees_with_a_fraction_fold_in_first_seen_order(weights, outputs):
    omega = Dist([(f"x{i}", F(w, sum(weights))) for i, w in enumerate(weights)])
    table = {f"x{i}": d for i, d in enumerate(outputs)}
    want: dict = {}
    for x in omega._map:  # the order the kernel runs in
        for y in table[x]._map:
            want[y] = want.get(y, 0) + omega[x] * table[x][y]
    got = bind(omega, table.__getitem__)
    assert list(got._map) == list(want)
    assert {y: F(n, got._total) for y, n in got._map.items()} == want
    assert gcd(got._total, *got._map.values()) == 1


def test_flrn_convexity_of_monoid_sums():
    # Averaging a summed pair of independent draws mixes the averages,
    # weighted by the sizes of the two sides.
    from mulprob.pml import monoid_sum

    rng = random.Random(3)
    letters = ["a", "b"]
    for k in range(4):
        for l in range(4):
            if k + l == 0:
                continue
            for _ in range(5):
                def rand_dist_over(ms_list):
                    ws = [rng.randint(1, 4) for _ in ms_list]
                    total = sum(ws)
                    return Dist((m, F(w, total)) for m, w in zip(ms_list, ws))

                big = rand_dist_over(enumerate_multisets(Space(letters), k))
                small = rand_dist_over(enumerate_multisets(Space(letters), l))
                summed = monoid_sum(big, small)
                lhs = bind(summed, flrn)

                def averaged(side, weight):
                    out = {}
                    if weight == 0:
                        return out
                    for m, w in side.entries:
                        for x, v in flrn(m).entries:
                            out[x] = out.get(x, F(0)) + weight * w * v
                    return out

                mix = averaged(big, F(k, k + l))
                for x, v in averaged(small, F(l, k + l)).items():
                    mix[x] = mix.get(x, F(0)) + v
                assert lhs == Dist(mix)


@pytest.mark.parametrize("make, message", [
    (lambda: Predicate({"a": 1})(Pair("a", "b")), "predicate not defined at (a,b)"),
    (lambda: Predicate([(Pair("a", "0"), 1), (Pair("a", "0"), 0)]),
     "duplicate predicate entry for (a,0)"),
    (lambda: Predicate({Multiset({"a": 1}): 2}), "predicate value 2 for [1 a] outside [0, 1]"),
    (lambda: Multiset({Pair("a", "b"): -1}), "negative multiplicity -1 for (a,b)"),
    (lambda: Dist({Pair("a", "b"): F(3, 2), "c": F(-1, 2)}), "negative weight -1/2 for c"),
    (lambda: Dist({Pair("a", "b"): F(-1, 2), "c": F(3, 2)}), "negative weight -1/2 for (a,b)"),
    (lambda: flatten(unit(Pair("a", "b"))), "flatten needs distribution elements, got (a,b), not a Dist"),
    # A multiset stores counts and their sum as a distribution does, yet no
    # operation that takes a distribution takes one, and no kernel returns one.
    (lambda: dtensor(Multiset({"a": 2}), Multiset({"b": 2})), "dtensor got [2 a], not a Dist"),
    (lambda: big_tensor([Multiset({"a": 2})]), "big_tensor got [2 a], not a Dist"),
    (lambda: multinomial(Multiset({"a": 2}), 1), "multinomial got [2 a], not a Dist"),
    (lambda: push(Channel.identity(AB), Multiset({"a": 2, "b": 2})),
     "push got [2 a, 2 b], not a Dist"),
    (lambda: bind(Multiset({"a": 2}), unit), "bind got [2 a], not a Dist"),
    (lambda: validity(Multiset({"a": 2}), lambda _: 1), "validity got [2 a], not a Dist"),
    (lambda: update(Multiset({"a": 2}), lambda _: 1), "update got [2 a], not a Dist"),
    (lambda: monoid_sum(unit(Multiset()), Multiset({Multiset(): 2})),
     "monoid_sum got [2 []], not a Dist"),
    (lambda: bind(unit("a"), lambda _: Multiset({"u": 2, "v": 1})),
     "channel kernel returned [2 u, 1 v], not a Dist"),
    (lambda: bind(unit("a"), lambda _: 5), "channel kernel returned 5, not a Dist"),
    # And no operation that takes a multiset takes a distribution.
    (lambda: hypergeometric(Dist({"a": 1}), 1), "hypergeometric got <1 a>, not a Multiset"),
    (lambda: draw_delete(Dist({"a": 1})), "draw_delete got <1 a>, not a Multiset"),
    (lambda: arrange(Dist({"a": 1})), "arrange got <1 a>, not a Multiset"),
    (lambda: mzip(Multiset({"a": 1}), Dist({"b": 1})), "mzip got <1 b>, not a Multiset"),
    (lambda: flrn(Dist({"a": 1})), "flrn got <1 a>, not a Multiset"),
    (lambda: pml(Dist({unit("a"): 1})), "pml got <1 <1 a>>, not a Multiset"),
    (lambda: Multiset({"a": 1}).tensor(Dist({"u": F(1, 3), "v": F(2, 3)})),
     "tensor got <1/3 u, 2/3 v>, not a Multiset"),
    (lambda: Multiset({"a": 1}).tensor(Space(["u", "v"])),
     "tensor got Space(['u', 'v']), not a Multiset"),
    (lambda: enumerate_arrangements(unit("a")), "enumerate_arrangements got <1 a>, not a Multiset"),
    # Nor does a distribution pass for a channel.
    (lambda: push(unit("a"), unit("a")), "push got <1 a>, not a Channel"),
    (lambda: compose(unit("a"), Channel.identity(AB)), "compose got <1 a>, not a Channel"),
    (lambda: compose(Channel.identity(AB), unit("a")), "compose got <1 a>, not a Channel"),
    (lambda: ctensor(Channel.identity(AB), unit("a")), "ctensor got <1 a>, not a Channel"),
    (lambda: ctensor(unit("a"), Channel.identity(AB)), "ctensor got <1 a>, not a Channel"),
    (lambda: lifted_map(unit("a"), 2), "lifted_map got <1 a>, not a Channel"),
    # A space's counts are all 1, so no other count store passes for one.
    (lambda: Space(["a"]).product(Multiset({"b": 2})), "product got [2 b], not a Space"),
    (lambda: Space(["a"]).product(unit("a")), "product got <1 a>, not a Space"),
    # A sequence is a tuple, and a channel is built from a mapping.
    (lambda: ppr(unit("a")), "ppr got <1 a>, not a tuple"),
    (lambda: zip_tuples(unit("a"), unit("a")), "zip_tuples got <1 a>, not a tuple"),
    (lambda: Channel.from_mapping(unit("a")), "from_mapping got <1 a>, not a Mapping"),
    # A value outside the grammar has no ket text and is shown by its ``repr``.
    (lambda: Predicate({"a": 1})(Pair(1, 2)), "predicate not defined at Pair(1, 2)"),
    (lambda: Predicate({"a": 1})([1]), "predicate not defined at [1]"),
], ids=["predicate-call", "predicate-duplicate", "predicate-range", "multiplicity",
        "weight-atom", "weight-pair", "flatten", "dtensor-multiset", "big-tensor-multiset",
        "multinomial-multiset", "push-multiset", "bind-multiset", "validity-multiset",
        "update-multiset", "monoid-sum-multiset", "kernel-multiset", "kernel-int",
        "hypergeometric-dist", "draw-delete-dist", "arrange-dist", "mzip-dist", "flrn-dist",
        "pml-dist", "tensor-dist", "tensor-space", "enumerate-arrangements-dist",
        "push-dist-channel", "compose-dist-first", "compose-dist-second", "ctensor-dist-second",
        "ctensor-dist-first", "lifted-map-dist", "product-multiset", "product-dist", "ppr-dist",
        "zip-tuples-dist", "from-mapping-dist", "predicate-call-outside-grammar",
        "predicate-call-unhashable"])
def test_values_in_messages_are_in_ket_notation(make, message):
    with pytest.raises(DomainError) as exc:
        make()
    assert str(exc.value) == message
