"""The library makes no reference cycles: reference counting frees all it builds.

Each case runs with the cycle collector disabled, and then asks it for the
cyclic garbage left behind; the collector's state is restored afterwards.
A lifted channel keeps its packing, and the packing's outcome table, in
its kernel's closure: they must never come to reference the channel.
"""

import gc
from fractions import Fraction

import pytest

from mulprob.channels import arrange, draw_delete, hypergeometric, multinomial, mzip, ppr
from mulprob.dist import Channel, Dist, bind, flrn, push, unit
from mulprob.elements import Space
from mulprob.laws import run_laws
from mulprob.multiset import Multiset, enumerate_multisets
from mulprob.pml import lifted_map, monoid_sum, pml

F = Fraction
AB = Space(["a", "b"])
OMEGA = Dist({"a": F(1, 3), "b": F(2, 3)})
URN = Multiset({"a": 3, "b": 2, "c": 1})


def cyclic_garbage(run) -> int:
    """The objects the collector finds unreachable after ``run()``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def lifted_bind():
    f = Channel(AB, lambda x: OMEGA if x == "a" else Dist({"a": F(3, 4), "c": F(1, 4)}))
    lifted = lifted_map(f, 3)
    state = flrn(Multiset({m: 1 for m in enumerate_multisets(AB, 3)}))
    push(lifted, state)
    bind(state, lifted)


@pytest.mark.parametrize("run", [
    lambda: multinomial(OMEGA, 4),
    lambda: hypergeometric(URN, 3),
    lambda: draw_delete(URN),
    lambda: arrange(URN),
    lambda: mzip(URN, Multiset({"u": 4, "v": 2})),
    lambda: ppr(("a", "b", "a")),
    lambda: bind(OMEGA, lambda x: multinomial(OMEGA, 2) if x == "a" else unit(Multiset())),
    lambda: pml(Multiset({OMEGA: 2, unit("c"): 1, Dist({"b": F(1, 2), "d": F(1, 2)}): 1})),
    lambda: monoid_sum(multinomial(OMEGA, 2), hypergeometric(URN, 2)),
    lifted_bind,
    run_laws,
], ids=["multinomial", "hypergeometric", "draw_delete", "arrange", "mzip", "ppr", "bind", "pml",
        "monoid_sum", "lifted_map", "run_laws"])
def test_no_cyclic_garbage(run):
    assert cyclic_garbage(run) == 0

