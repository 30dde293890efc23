import re
from collections import Counter
from fractions import Fraction

import pytest

import mulprob.channels
import mulprob.oracles
from mulprob.dist import Channel, Dist, unit
from mulprob.errors import DomainError
from mulprob.laws import LAWS, LawContext, catalogue, render_reports, run_law, run_laws
from mulprob.multiset import Multiset, enumerate_multisets
from mulprob.pml import pml

F = Fraction

FAST = dict(x_size=2, y_size=2, k_max=2, l_max=2, n_max=3, seed=0, n_random=6)


def test_catalogue_names_are_unique():
    names = [name for name, _ in catalogue()]
    assert len(names) == len(set(names))
    assert len(names) == len(LAWS)


def test_exactly_two_expected_failures():
    assert sum(law.expect_fail for law in LAWS) == 2


def test_full_suite_at_reduced_bounds():
    reports = run_laws(**FAST)
    assert all(r.ok for r in reports), render_reports(reports)
    verdicts = {r.name: r.verdict for r in reports}
    assert verdicts["mn-tensor-mismatch"] == "expected-fail"
    assert verdicts["pml-tensor-mismatch"] == "expected-fail"
    assert sum(v == "pass" for v in verdicts.values()) == len(LAWS) - 2


def test_negative_laws_carry_witnesses():
    for name in ("mn-tensor-mismatch", "pml-tensor-mismatch"):
        (report,) = run_laws(only=name, **FAST)
        assert report.verdict == "expected-fail"
        assert "lhs=" in report.witness and "rhs=" in report.witness


def test_unknown_law_rejected():
    with pytest.raises(DomainError):
        run_laws(only="no-such-law")


def test_reports_are_deterministic():
    a = render_reports(run_laws(**FAST))
    b = render_reports(run_laws(**FAST))
    assert a == b


def test_seed_changes_pools_not_verdicts():
    for seed in (1, 2):
        reports = run_laws(**{**FAST, "seed": seed})
        assert all(r.ok for r in reports)


def test_degenerate_size_zero_bounds():
    reports = run_laws(x_size=2, y_size=2, k_max=0, l_max=0, n_max=0, n_random=2)
    by_name = {r.name: r for r in reports}
    assert by_name["acc-arr-id"].verdict == "pass"
    assert by_name["pml-defs-agree"].verdict == "pass"


def test_one_atom_space_passes():
    # Over one atom every size-2 multiset zips with itself to the
    # duplicated one; the diagonal counterexample is pinned, not searched.
    reports = run_laws(**{**FAST, "x_size": 1})
    assert all(r.ok for r in reports), render_reports(reports)
    assert sum(r.verdict == "pass" for r in reports) == len(LAWS) - 2


@pytest.mark.parametrize("route", ["pml_def1", "pml_def4", "pml_def3_check"])
def test_wrong_pml_route_fails_defs_agree(monkeypatch, route):
    # Each cross-check route is compared pointwise against the production
    # law, so a wrong one fails the law with an input and both legs.
    wrong = {
        "pml_def1": lambda psi: unit(psi),
        "pml_def4": lambda psi: pml(psi).map(lambda phi: phi + phi),
        "pml_def3_check": lambda omegas: len(omegas) < 2,
    }[route]
    monkeypatch.setattr(mulprob.oracles, route, wrong)
    (report,) = run_laws(only="pml-defs-agree", **FAST)
    assert report.verdict == "fail"
    assert re.fullmatch(r"input=\[.*\]; lhs=.+; rhs=.+", report.witness)


def test_tampered_multinomial_is_caught(monkeypatch):
    # An off-by-one in the draw coefficients must surface as a witness in
    # the learning-recovers-the-urn law.
    def tampered(omega, k):
        weights = {}
        for phi in enumerate_multisets(omega.support, k):
            w = F(phi.coefficient() + 1)
            for x, n in phi.entries:
                w *= omega[x] ** n
            weights[phi] = w
        total = sum(weights.values())
        return Dist({phi: w / total for phi, w in weights.items()})

    monkeypatch.setattr(mulprob.channels, "multinomial", tampered)
    (report,) = run_laws(only="flrn-mn", **FAST)
    assert report.verdict == "fail"
    assert report.witness is not None
    assert "lhs=" in report.witness


def test_law_context_validates_bounds():
    with pytest.raises(DomainError):
        LawContext(x_size=0)


def test_run_law_params_capture_bounds():
    ctx = LawContext(**FAST)
    report = run_law(LAWS[0], ctx)
    assert "K<=2" in report.params
    assert report.ok


def test_raising_law_fails_alone(monkeypatch):
    # A library error inside one law's legs fails that law with the error
    # as its witness; the rest of the sweep still runs.
    def broken(urn):
        raise DomainError("tampered draw_delete")

    monkeypatch.setattr(mulprob.channels, "draw_delete", broken)
    reports = run_laws(**FAST)
    assert len(reports) == len(LAWS) == 53
    failed = {r.name: r.witness for r in reports if r.verdict == "fail"}
    assert set(failed) == {"dd-mn", "flrn-dd", "hg-dd-iter", "mzip-dd", "pml-dd",
                           "dd-chan-natural"}
    assert set(failed.values()) == {"raised DomainError: tampered draw_delete"}
    assert sum(r.verdict == "expected-fail" for r in reports) == 2


# The domain points each law checks at the default bounds.  A
# dropped size leaves every pinned report as it is, since the law still
# holds on fewer inputs; these counts do not.
DEFAULT_POINTS = {
    "acc-arr-id": 10, "arr-acc-perm": 15, "arr-acc-tensor": 40, "arr-mn-iid": 68,
    "acc-iid-mn": 68, "mn-combine": 272, "flrn-mn": 51, "dd-mn": 68, "flrn-dd": 12,
    "hg-dd-iter": 55, "hg-natural": 220, "flrn-hg": 40, "hg-hg": 140, "hg-mn": 272,
    "zip-iid": 1360, "zip-bigtensor": 820, "mzip-natural": 480, "mzip-unit": 20,
    "mzip-assoc": 100, "mzip-proj": 60, "mzip-diag-counterexample": 1, "mzip-arr": 30,
    "mzip-dd": 54, "mzip-flrn": 29, "mzip-mn": 1360, "mzip-hg": 225, "mn-tensor-mismatch": 1,
    "pml-defs-agree": 168, "pml-squeeze-left": 40,
    "pml-squeeze-right": 35, "pml-flrn": 34, "pml-dd": 55, "pml-hg": 218, "pml-sum": 1225,
    "pml-unit": 10, "pml-mult": 26, "lift-id": 10, "lift-compose": 250, "mzip-pml": 443,
    "lift-mzip": 270, "lift-sum": 300, "arr-chan-natural": 30, "acc-chan-natural": 45,
    "dd-chan-natural": 42, "mn-chan-natural": 204, "hg-chan-natural": 165,
    "pml-tensor-mismatch": 1, "sampling-correctness": 255, "mn-update-validity": 476,
    "mn-update": 472, "pml-update-validity": 245, "pml-update": 232, "msum-deterministic": 100,
}


def test_points_checked_at_default_bounds():
    # Counted from the cases' domains alone; no leg is evaluated.
    ctx = LawContext()
    points = {law.name: sum(sum(1 for _ in domain) for domain, _, _ in law.cases(ctx))
              for law in LAWS}
    assert points == DEFAULT_POINTS
    assert (len(points), sum(points.values())) == (53, 11222)


def test_default_sweep_runs_each_kernel_once_per_point(monkeypatch):
    # Every channel the sweep builds, lifted and composed ones included,
    # keeps a table; a law that applies one Kleisli map again looks it up.
    real_init = Channel.__init__
    runs: list[Counter] = []

    def init(self, domain, kernel):
        counts = Counter()
        runs.append(counts)

        def counted(x):
            counts[x] += 1
            return kernel(x)

        real_init(self, domain, counted)

    monkeypatch.setattr(Channel, "__init__", init)
    assert all(r.ok for r in run_laws())
    assert len(runs) > 100 and sum(map(len, runs)) > 1000
    assert {n for counts in runs for n in counts.values()} == {1}


def counted_mzip(monkeypatch, raises=False):
    """Wrap ``mzip`` so each computed call is counted by its inputs, or so
    that it raises a library error instead."""
    real = mulprob.channels.mzip
    calls = Counter()

    def counting(phi, psi):
        if raises:
            raise DomainError("tampered mzip")
        calls[phi, psi] += 1
        return real(phi, psi)

    monkeypatch.setattr(mulprob.channels, "mzip", counting)
    return calls


ZIPPING_LAWS = {"mzip-natural", "mzip-unit", "mzip-assoc", "mzip-proj", "mzip-diag-counterexample",
                "mzip-arr", "mzip-dd", "mzip-flrn", "mzip-mn", "mzip-hg", "mzip-pml", "lift-mzip"}


def test_sweep_zips_each_input_once(monkeypatch):
    # The laws bind and map zips over draws, where equal inputs recur; a
    # sweep computes each of them once.  The empty pair is in every size-0
    # table, and ``mzip-pml`` zips its own multisets of distributions.
    calls = counted_mzip(monkeypatch)
    reports = run_laws(**FAST)
    assert all(r.ok for r in reports), render_reports(reports)
    empty = (Multiset(), Multiset())
    assert empty in calls
    assert {n for pair, n in calls.items() if pair != empty} == {1}


def test_default_sweep_zip_counts(monkeypatch):
    calls = counted_mzip(monkeypatch)
    real = mulprob.channels.zip_tuples
    zipped = Counter()

    def counting(xs, ys):
        zipped[xs, ys] += 1
        return real(xs, ys)

    monkeypatch.setattr(mulprob.channels, "zip_tuples", counting)
    assert all(r.ok for r in run_laws())
    # Each input once, except the empty pair: once for each of the six
    # size-0 tables and once more by ``mzip-pml``'s own zip.
    # ``mzip-diag-counterexample`` zips its one pinned pair.
    assert (sum(calls.values()), len(calls), calls[Multiset(), Multiset()]) == (827, 821, 7)
    assert (sum(zipped.values()), len(zipped)) == (85, 85)


def test_raising_mzip_fails_the_zipping_laws_alone(monkeypatch):
    counted_mzip(monkeypatch, raises=True)
    reports = run_laws(**FAST)
    assert len(reports) == len(LAWS)
    failed = {r.name: r.witness for r in reports if r.verdict == "fail"}
    assert set(failed) == ZIPPING_LAWS
    assert set(failed.values()) == {"raised DomainError: tampered mzip"}
    assert sum(r.verdict == "expected-fail" for r in reports) == 2
    assert sum(r.verdict == "pass" for r in reports) == len(LAWS) - 2 - len(ZIPPING_LAWS)
