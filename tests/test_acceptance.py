"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every comparison is bit-exact: distributions are maps into exact
rationals and equality is structural.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from mulprob.channels import draw_delete, hypergeometric, multinomial, mzip
from mulprob.cli import main
from mulprob.combinatorics import multichoose
from mulprob.dist import (
    Channel,
    Dist,
    Predicate,
    bind,
    dtensor,
    flrn,
    pred_extend,
    push,
    unit,
    update,
    validity,
)
from mulprob.elements import Space
from mulprob.errors import DomainError
from mulprob.laws import render_reports, run_laws
from mulprob.multiset import (
    Multiset,
    accumulate,
    enumerate_arrangements,
    enumerate_multisets,
)
from mulprob.oracles import pml_def1, pml_def3_check, pml_def4
from mulprob.pml import lifted_map, pml

F = Fraction
AB = Space(["a", "b"])
DATA = Path(__file__).parent / "data"


def report(number: int, description: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s < {limit:.0f}s): {description}")
    assert elapsed < limit


def rand_dist(rng, space=AB):
    ws = [rng.randint(1, 9) for _ in space.elements]
    total = sum(ws)
    return Dist((x, F(w, total)) for x, w in zip(space.elements, ws))


def test_criterion_1_parallel_draw_worked_example(capsys):
    started = time.perf_counter()
    code = main(["pml", "[2 <1/3 a, 2/3 b>, 1 <3/4 a, 1/4 b>]"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "<1/12 [3 a], 13/36 [2 a, 1 b], 4/9 [1 a, 2 b], 1/9 [3 b]>\n"
    with capsys.disabled():
        report(1, "parallel draw of [2 w, 1 r] prints the four exact weights", started, 1.0)


def test_criterion_2_mzip_worked_example(capsys):
    started = time.perf_counter()
    code = main(["mzip", "[1 a, 2 b]", "[2 z0, 1 z1]"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "<1/3 [1 (a,z1), 2 (b,z0)], 2/3 [1 (a,z0), 1 (b,z0), 1 (b,z1)]>\n"
    with capsys.disabled():
        report(2, "mzip of the two worked multisets is exactly 1/3 and 2/3", started, 1.0)


def test_criterion_3_four_definitions_agree():
    started = time.perf_counter()
    fixed_pool = [
        Dist({"a": F(1, 3), "b": F(2, 3)}),
        Dist({"a": F(3, 4), "b": F(1, 4)}),
        Dist.uniform(AB),
    ]

    def check(psi):
        base = pml(psi)
        assert pml_def1(psi) == base
        assert pml_def4(psi) == base
        expanded = [w for w, n in psi.entries for _ in range(n)]
        assert pml_def3_check(expanded)

    checked = 0
    for size in range(5):
        for psi in enumerate_multisets(Space(fixed_pool), size):
            check(psi)
            checked += 1
    assert checked == sum(multichoose(3, k) for k in range(5))

    rng = random.Random(2024)
    for _ in range(100):
        size = rng.randint(0, 4)
        members = [rng.choice(fixed_pool + [rand_dist(rng)]) for _ in range(size)]
        check(accumulate(members))

    report(3, "all four formulations agree on 35 exhaustive + 100 random inputs",
           started, 30.0)


def test_criterion_4_law_catalogue():
    started = time.perf_counter()
    reports = run_laws(x_size=2, y_size=2, k_max=3, l_max=3, n_max=4, seed=0, n_random=20)
    failures = [r for r in reports if not r.ok]
    assert not failures, failures
    # The rendered report at the default bounds is pinned byte for byte.
    assert render_reports(reports) == (DATA / "laws_default.txt").read_text()
    verdicts = [r.verdict for r in reports]
    assert verdicts.count("expected-fail") == 2
    assert verdicts.count("pass") == len(reports) - 2
    report(4, f"all {verdicts.count('pass')} positive laws hold bit-exactly", started, 300.0)


def test_criterion_5_negative_witnesses():
    started = time.perf_counter()

    # Witness 1: uniform coin, draw sizes 1 and 2.
    omega = Dist.uniform(AB)
    lhs = multinomial(dtensor(omega, omega), 2)
    rhs = dtensor(multinomial(omega, 1), multinomial(omega, 2)).map(
        lambda p: p.fst.tensor(p.snd)
    )
    assert lhs != rhs

    # Witness 2: two copies of 3/4|1/4 against one copy of 2/3|1/3.
    w = Dist({"a": F(3, 4), "b": F(1, 4)})
    r = Dist({"0": F(2, 3), "1": F(1, 3)})
    psi = Multiset({w: 2})
    phi = Multiset({r: 1})
    lhs = dtensor(pml(psi), pml(phi)).map(lambda p: p.fst.tensor(p.snd))
    rhs = pml(psi.tensor(phi).map_elements(lambda p: dtensor(p.fst, p.snd)))
    assert lhs != rhs

    # The law suite records both as expected failures.
    for name in ("mn-tensor-mismatch", "pml-tensor-mismatch"):
        (rep,) = run_laws(only=name)
        assert rep.verdict == "expected-fail"

    report(5, "both pinned tensor diagrams produce unequal legs", started, 5.0)


def test_criterion_6_sampling_and_update_identities():
    started = time.perf_counter()
    Y = Space(["u", "v"])
    rng = random.Random(99)
    values = [F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]

    for _ in range(20):
        omega = rand_dist(rng)
        chan = Channel.from_mapping({x: rand_dist(rng, Y) for x in AB})
        pred = Predicate({x: rng.choice(values) for x in AB})
        assert validity(omega, pred) != 0
        ext = pred_extend(pred)

        for k in range(1, 4):
            sampled = bind(push(lifted_map(chan, k), multinomial(omega, k)), flrn)
            assert sampled == push(chan, omega)

        for k in range(4):
            assert validity(multinomial(omega, k), ext) == validity(omega, pred) ** k
            assert update(multinomial(omega, k), ext) == multinomial(update(omega, pred), k)

        psi = accumulate([rand_dist(rng) for _ in range(rng.randint(0, 3))])
        product = F(1)
        for member, n in psi.entries:
            product *= validity(member, pred) ** n
        assert validity(pml(psi), ext) == product
        assert update(pml(psi), ext) == pml(psi.map_elements(lambda m: update(m, pred)))

    report(6, "sampling round trip and the four update identities hold", started, 60.0)


def test_criterion_7_normalization_is_structural():
    started = time.perf_counter()

    # The constructor rejects anything that does not sum to exactly one,
    # so no operation can ever emit an unnormalized distribution.
    with pytest.raises(DomainError):
        Dist({"a": F(1, 2), "b": F(1, 3)})
    with pytest.raises(DomainError):
        Dist({"a": F(2, 3), "b": F(2, 3), "c": F(-1, 3)})

    rng = random.Random(5)
    one = F(1)
    for _ in range(10):
        omega = rand_dist(rng)
        urn = Multiset({"a": 3, "b": 2})
        outputs = [
            multinomial(omega, 3),
            hypergeometric(urn, 2),
            draw_delete(urn),
            mzip(urn, Multiset({"u": 2, "v": 3})),
            pml(Multiset({omega: 2, rand_dist(rng): 1})),
        ]
        for out in outputs:
            assert sum(wt for _, wt in out.entries) == one

    report(7, "every constructed distribution sums exactly to one", started, 10.0)


def test_criterion_8_counting_identities():
    started = time.perf_counter()
    letters = ["a", "b", "c", "d"]
    for n in range(1, 5):
        space = Space(letters[:n])
        for k in range(7):
            multisets = enumerate_multisets(space, k)
            assert len(multisets) == multichoose(n, k)
            for phi in multisets:
                assert len(enumerate_arrangements(phi)) == phi.coefficient()
    report(8, "multiset and arrangement counts match the closed formulas", started, 10.0)
