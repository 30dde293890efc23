"""The trusted builders hold the invariants that the checking constructors enforce.

``_FiniteMap._of`` builds a value from a dict it is handed, with no checks:
each caller promises positive ``int`` counts that sum to the total, over
element values, and for a ``Dist`` numerators that share no factor with
their sum.  These cases wrap ``_of`` and check every value it builds, over
one default law sweep and over each public channel at the input sizes of
the benchmark's large single operations.  They also decode every key that
a packing of the ``pml`` kernel stored, and check that it names the
multiset stored under it.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from mulprob.channels import arrange, draw_delete, hypergeometric, multinomial, mzip, ppr
from mulprob.dist import Channel, Dist, Predicate, bind, flrn, pred_extend, push, update
from mulprob.elements import Space, _FiniteMap, elem_key
from mulprob.laws import run_laws
from mulprob.multiset import Multiset
from mulprob.pml import _WORD, _Packing, lifted_map, monoid_sum, pml

F = Fraction


def violations_of(cls, data, total, keyed: set) -> list[str]:
    """What is wrong with the value ``_of`` was asked to build.  ``keyed``
    holds the elements already found to have an ``elem_key``; values are
    immutable and equal values are elements alike, so each is checked once."""
    if type(data) is not dict:
        return [f"a {type(data).__name__}, not a dict"]
    counts = list(data.values())
    found = []
    if not all(type(n) is int and n > 0 for n in counts):
        found.append("a count that is not a positive int")
    elif sum(counts) != total:
        found.append(f"counts summing to {sum(counts)}, not {total}")
    if cls is Dist and counts and gcd(*counts) != 1:
        found.append(f"numerators with common factor {gcd(*counts)}")
    if cls is Space and any(n != 1 for n in counts):
        found.append("a count other than 1")
    if cls not in (Multiset, Dist, Space):
        found.append("a kind that only its own constructor builds")
    for e in data.keys() - keyed:
        try:
            elem_key(e)
            keyed.add(e)
        except TypeError:
            found.append(f"a key with no element order: {e!r}")
    return found


def unpacked(packing: _Packing, key: int) -> dict:
    """The counts that ``key`` holds in ``packing``, read one element at a
    time.  A key that fits one word was packed before the counts moved
    above the fingerprint, if they ever did."""
    low = packing.low if key.bit_length() > _WORD else 0
    bits, mask = packing.bits, (1 << packing.bits) - 1
    counts = {x: key >> low + i * bits & mask for i, x in enumerate(packing.atoms)}
    return {x: n for x, n in counts.items() if n}


class Audit:
    """The builds seen so far, what was wrong with them, and the packings made."""

    def __init__(self):
        self.built, self.found, self.packings, self.keyed = 0, [], [], set()

    def check(self) -> None:
        """Fail on any violation, or on any stored key that decodes to
        another multiset than the one stored under it."""
        assert self.built > 0
        assert not self.found, self.found
        for packing in self.packings:
            for key, m in packing.outcomes.items():
                assert type(m) is Multiset
                assert unpacked(packing, key) == m._map, (key, m)
                assert sum(m._map.values()) == m.size


@pytest.fixture
def audit(monkeypatch) -> Audit:
    """Wraps ``_of``, and ``_Packing`` to keep every packing made."""
    seen = Audit()
    of = _FiniteMap.__dict__["_of"].__func__
    init = _Packing.__init__

    def audited(cls, data, total):
        seen.built += 1
        for problem in violations_of(cls, data, total, seen.keyed):
            if len(seen.found) < 10:
                seen.found.append(f"{cls.__name__} over {total}: {problem}")
        return of(cls, data, total)

    def recorded(self, top):
        init(self, top)
        seen.packings.append(self)

    monkeypatch.setattr(_FiniteMap, "_of", classmethod(audited))
    monkeypatch.setattr(_Packing, "__init__", recorded)
    return seen


def test_default_sweep_builds_valid_values(audit):
    reports = run_laws()
    assert all(r.ok for r in reports)
    audit.check()
    assert audit.built > 10_000


def seeded_dist(rng, elems) -> Dist:
    cs = [rng.randint(1, 9) for _ in elems]
    return Dist({x: F(c, sum(cs)) for x, c in zip(elems, cs)})


RNG = random.Random(7)
E8, E6, E4 = list("abcdefgh"), list("abcdef"), list("abcd")
OMEGA8, OMEGA6, OMEGA4 = (seeded_dist(RNG, e) for e in (E8, E6, E4))
PSI_PML = Multiset({seeded_dist(RNG, E4): 5 for _ in range(3)})
CHAN = {x: seeded_dist(RNG, list("uvwz")) for x in E4}
PRED6 = {x: F(RNG.randint(0, 4), 4) for x in E6}
# Twenty fresh atoms per point: after the fourth point the counts no
# longer fit one word, and the lifted channel's packing widens.
WIDE = {x: Dist.uniform([f"{x}{j}" for j in range(20)]) for x in E4}


def dd_chain():
    out = hypergeometric(Multiset({x: 4 for x in E6}), 12)
    for _ in range(4):
        out = bind(out, draw_delete)
    return out


CHANNELS = {
    "mn": lambda: multinomial(OMEGA8, 8),
    "hg": lambda: hypergeometric(Multiset({x: 4 for x in E8}), 10),
    "dd": dd_chain,
    "arr": lambda: arrange(Multiset({"a": 3, "b": 3, "c": 2, "d": 2})),
    "ppr": lambda: ppr(tuple("aabbcd")),
    "mzip": lambda: mzip(Multiset({"a": 5, "b": 5}), Multiset({"u": 5, "v": 5})),
    "pml": lambda: pml(PSI_PML),
    "monoid_sum": lambda: monoid_sum(multinomial(OMEGA4, 6), hypergeometric(
        Multiset({x: 2 for x in E6}), 3)),
    "lift": lambda: bind(push(lifted_map(Channel.from_mapping(CHAN), 6),
                              multinomial(OMEGA4, 6)), flrn),
    "lift-wide": lambda: push(lifted_map(Channel.from_mapping(WIDE), 1), multinomial(OMEGA4, 1)),
    "update": lambda: update(multinomial(OMEGA6, 9), pred_extend(Predicate(PRED6))),
}


@pytest.mark.parametrize("op", CHANNELS)
def test_channel_builds_valid_values(audit, op):
    assert type(CHANNELS[op]()) is Dist
    audit.check()
