"""The benchmark's three workloads: inputs from a seed, execution, and checks.

Inputs are generated as plain oracle values (see ``oracle``) and handed
to mulprob only as ket text (``queries``) or as values built through the
public constructors (``bigops``).  Every check compares with the oracle
or with outputs written down by hand, never with mulprob itself.

Each workload generates its inputs in ``__init__`` (timed as set-up),
computes reference outputs in ``prepare()``, runs one pass with
``run_pass(run, span, pass_index)`` and checks what it recorded in
``verify(run)``.  Checks and references stay outside the timed regions.

Every time is read from ``CLOCK``, the CPU time of the process.  The
library is single-threaded and does no I/O while it computes, so its CPU
time is the wall time it would take on an idle machine; time spent waiting
for a CPU that other programs hold is left out.  After each timed
operation the workload reports its time to ``run.yardstick`` (see
``Yardstick``), and time spent there is left out of the pass.
"""

import gc
import hashlib
import io
import random
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import oracle as O

CLOCK = time.process_time
YARDSTICK_STATE = O.dist({"a": Fraction(1, 3), "b": Fraction(1, 6), "c": Fraction(1, 2)})


class Yardstick:
    """CPU time of a fixed computation of the benchmark's own, sampled
    between operations all through a run.

    The computation is the oracle's brute-force multinomial draw of 5 from
    a 3-point state, printed: pure-Python Fraction, tuple, dict and string
    work of the kind mulprob does, which never calls mulprob.  A sample is
    taken after every ``EVERY`` seconds of measured time, with the cyclic
    collector off so that the size of mulprob's heap does not reach it.
    Dividing a run's timings by its median sample cancels the drift in the
    speed of a shared machine, which the program and the yardstick both feel.
    """

    EVERY = 0.2

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0                # CPU time spent sampling
        self._due = 0.0

    def after(self, dt: float) -> None:
        """Count dt seconds of measured work; sample when a sample is due."""
        self._due += dt
        if self._due >= self.EVERY:
            self._due = 0.0
            self.sample()

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = CLOCK()
        O.fmt(O.mn_brute(YARDSTICK_STATE, 5))
        dt = CLOCK() - t0
        if collecting:
            gc.enable()
        self.samples.append(dt)
        self.spent += dt


class Workload:
    """Defaults for a workload with no reference to prepare and nothing to verify."""

    cycle = 1               # a run makes whole multiples of this many passes
    fixed_ops = 0           # length of the fixed list a pass repeats, if it is short

    def prepare(self):
        pass

    def verify(self, run):
        pass


# -- laws ------------------------------------------------------------------------

LAW_NAMES = (
    "acc-arr-id", "arr-acc-perm", "arr-acc-tensor", "arr-mn-iid", "acc-iid-mn",
    "mn-combine", "flrn-mn", "dd-mn", "flrn-dd", "hg-dd-iter", "hg-natural", "flrn-hg",
    "hg-hg", "hg-mn", "zip-iid", "zip-bigtensor", "mzip-natural", "mzip-unit",
    "mzip-assoc", "mzip-proj", "mzip-diag-counterexample", "mzip-arr", "mzip-dd",
    "mzip-flrn", "mzip-mn", "mzip-hg", "mn-tensor-mismatch", "pml-defs-agree",
    "pml-squeeze-left", "pml-squeeze-right", "pml-flrn", "pml-dd", "pml-hg", "pml-sum",
    "pml-unit", "pml-mult", "lift-id", "lift-compose", "mzip-pml", "lift-mzip",
    "lift-sum", "arr-chan-natural", "acc-chan-natural", "dd-chan-natural",
    "mn-chan-natural", "hg-chan-natural", "pml-tensor-mismatch", "sampling-correctness",
    "mn-update-validity", "mn-update", "pml-update-validity", "pml-update",
    "msum-deterministic",
)
EXPECTED_FAIL = ("mn-tensor-mismatch", "pml-tensor-mismatch")
EXPECTED_VERDICTS = {n: ("expected-fail" if n in EXPECTED_FAIL else "pass") for n in LAW_NAMES}


def laws_failures(reports) -> int:
    """Laws whose verdict differs from the catalogue's known verdicts."""
    got = {r.name: r.verdict for r in reports}
    names = set(got) | set(EXPECTED_VERDICTS)
    return sum(got.get(n) != EXPECTED_VERDICTS.get(n) for n in names)


class Laws(Workload):
    """One full run_laws() sweep at default bounds per pass.

    The random pools, and with them the cost of a sweep, depend on the
    seed given to run_laws.  Passes cycle through ``cycle`` seeds derived
    from the benchmark seed, and a run makes whole cycles, so that it
    weighs every pool the same however fast a sweep is.  One operation is
    one law check, timed by wrapping the module's ``run_law``.
    """

    cycle = 5
    fixed_ops = len(LAW_NAMES)

    def __init__(self, mp, seed):
        self.mp = mp
        self.sweep_seeds = [seed * self.cycle + i for i in range(self.cycle)]

    def run_pass(self, run, span, i):
        laws, latencies, yardstick = self.mp.laws, run.latencies, run.yardstick
        run_law = laws.run_law

        def timed_law(*args):
            t0 = CLOCK()
            try:
                return run_law(*args)
            finally:
                dt = CLOCK() - t0
                latencies.append(dt)
                yardstick.after(dt)

        laws.run_law = timed_law
        spent, t0 = yardstick.spent, CLOCK()
        try:
            with span("laws.sweep"):
                reports = laws.run_laws(seed=self.sweep_seeds[i % self.cycle])
        except Exception as exc:
            reports = []
            run.notes.append(f"run_laws raised {exc!r}")
        finally:
            laws.run_law = run_law
        run.pass_times.append(CLOCK() - t0 - (yardstick.spent - spent))
        run.attempted += len(LAW_NAMES)
        run.failed += laws_failures(reports)


# -- README examples ---------------------------------------------------------------

README_EXAMPLES = (
    (["mn", "--k", "2", "<1/3 a, 2/3 b>"], "<1/9 [2 a], 4/9 [1 a, 1 b], 4/9 [2 b]>\n"),
    (["hg", "--k", "2", "[2 a, 2 b]"], "<1/6 [2 a], 2/3 [1 a, 1 b], 1/6 [2 b]>\n"),
    (["dd", "[3 a, 2 b]"], "<2/5 [3 a, 1 b], 3/5 [2 a, 2 b]>\n"),
    (["arr", "[1 a, 2 b]"], "<1/3 (a,b,b), 1/3 (b,a,b), 1/3 (b,b,a)>\n"),
    (["acc", "a", "a", "b", "a"], "[3 a, 1 b]\n"),
    (["flrn", "[3 a, 1 b]"], "<3/4 a, 1/4 b>\n"),
    (["mzip", "[1 a, 2 b]", "[2 z0, 1 z1]"],
     "<1/3 [1 (a,z1), 2 (b,z0)], 2/3 [1 (a,z0), 1 (b,z0), 1 (b,z1)]>\n"),
    (["pml", "[2 <1/3 a, 2/3 b>, 1 <3/4 a, 1/4 b>]"],
     "<1/12 [3 a], 13/36 [2 a, 1 b], 4/9 [1 a, 2 b], 1/9 [3 b]>\n"),
    (["validity", "<1/2 a, 1/2 b>", "--pred", "(a:1, b:1/2)"], "3/4\n"),
    (["update", "<1/3 a, 2/3 b>", "--pred", "(a:3/4, b:1/4)"], "<3/5 a, 2/5 b>\n"),
    (["sample-check", "<1/3 a, 2/3 b>", "--chan", "{a: <1/2 u, 1/2 v>, b: <1 u>}", "--k", "2"],
     "sampled:  <5/6 u, 1/6 v>\ndirect:   <5/6 u, 1/6 v>\nsample-check: OK\n"),
)


def call_cli(main, argv) -> tuple:
    """Run ``main(argv)`` in-process; (exit code or failure tag, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = ("exit", exc.code)
        except Exception:
            rc = ("traceback", traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def readme_failures(mp) -> list[str]:
    bad = []
    for argv, expected in README_EXAMPLES:
        rc, out, err = call_cli(mp.cli.main, argv)
        if (rc, out, err) != (0, expected, ""):
            bad.append(" ".join(argv))
    return bad


# -- queries: generation -------------------------------------------------------------

IDENTS = ("a", "b", "c", "d", "e", "f", "x", "y", "z0", "z1", "u", "v")
NUMERALS = ("0", "1", "2", "3", "7", "12")
PAIRS = (O.pair("a", "0"), O.pair("b", "1"), O.pair("c", O.pair("d", "2")))
NESTED = (O.ms({"a": 1}), O.ms({"b": 1}), O.ms({"a": 2}), O.ms({"a": 1, "b": 1}),
          O.dist({"a": 1}), O.dist({"a": Fraction(1, 2), "b": Fraction(1, 2)}))
PRIMES = (2, 3, 5, 7, 11, 13)
PRED_VALUES = tuple(Fraction(v) for v in ("0", "1/4", "1/3", "1/2", "2/3", "3/4", "1"))

QUERY_KINDS = ("mn", "hg", "dd", "arr", "acc", "flrn", "mzip", "pml", "update",
               "validity", "sample-check")
MALFORMED_KINDS = ("bracket", "weights", "negative", "mzip-sizes")
PER_KIND = 40
PER_MALFORMED = 12


class Query:
    """One calculator call: argv, and how to compute the expected result."""

    __slots__ = ("kind", "argv", "expect_rc", "_expect", "_expected")

    def __init__(self, kind, argv, expect_rc, expect):
        self.kind, self.argv, self.expect_rc, self._expect = kind, argv, expect_rc, expect
        self._expected = None

    def expected_stdout(self) -> str | None:
        """Oracle output (None for a malformed query, which prints nothing)."""
        if self._expected is None and self._expect is not None:
            self._expected = self._expect()
        return self._expected


class _Gen:
    """Query generator.  ``shape`` fixes sizes, counts and kinds of element,
    identically for every seed, so that the cost profile of the pool does
    not depend on the seed; ``rng`` draws the content from the seed: which
    elements, the weights, the predicate values and the order of entries."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"queries:{seed}")
        self.shape = random.Random("queries:shapes")

    def elements(self, n: int, nested: bool = False) -> list:
        return self.rng.sample(NESTED if nested else IDENTS + NUMERALS + PAIRS, n)

    def weights(self, n: int) -> list[Fraction]:
        if n == 1:
            return [Fraction(1)]
        if self.shape.random() < 0.5:
            cs = [self.rng.randint(1, 9) for _ in range(n)]
            return [Fraction(c, sum(cs)) for c in cs]
        # Coprime denominators: distinct primes, each weight below 1/n, and the
        # last weight takes the rest.
        ws = [Fraction(self.rng.randint(1, p - 1), p * n) for p in self.rng.sample(PRIMES, n - 1)]
        return ws + [1 - sum(ws)]

    def dist(self, elems) -> tuple:
        return O.dist(dict(zip(elems, self.weights(len(elems)))))

    def counts(self, n: int, lo: int, hi: int, max_size: int = 12) -> list[int]:
        while True:
            cs = [self.shape.randint(lo, hi) for _ in range(n)]
            if sum(cs) <= max_size:
                return cs

    def multiset(self, counts: list[int]) -> tuple:
        return O.ms(dict(zip(self.elements(len(counts)), counts)))

    def rat(self, w: Fraction) -> str:
        s = self.rng.choice((1, 1, 1, 2, 3))
        if s == 1 and w.denominator == 1:
            return str(w.numerator)
        return f"{w.numerator * s}/{w.denominator * s}"

    def text(self, e) -> str:
        """Ket text for a value, entries shuffled and some fractions unreduced."""
        if isinstance(e, str):
            return e
        tag = e[0]
        if tag == "P":
            return f"({self.text(e[1])},{self.text(e[2])})"
        entries = list(e[1])
        self.rng.shuffle(entries)
        if tag == "M":
            return "[" + ", ".join(f"{n} {self.text(x)}" for x, n in entries) + "]"
        return "<" + ", ".join(f"{self.rat(w)} {self.text(x)}" for x, w in entries) + ">"

    def table(self, rows: dict, sep: str, braces: str) -> str:
        items = list(rows.items())
        self.rng.shuffle(items)
        inner = ", ".join(f"{self.text(x)}{sep}{self.rat(v) if isinstance(v, Fraction) else self.text(v)}"
                          for x, v in items)
        return braces[0] + inner + braces[1]

    def make(self, kind: str) -> Query:
        shape = self.shape
        if kind == "mn":
            nested = shape.random() < 0.25
            n = shape.randint(1, 3 if nested else 6)
            k = shape.choice([k for k in range(13) if n ** k <= 4096])
            d = self.dist(self.elements(n, nested))
            return Query(kind, ["mn", "--k", str(k), self.text(d)], 0,
                         lambda: _line(O.mn_brute(d, k)))
        if kind in ("hg", "dd"):
            urn = self.multiset(self.counts(shape.randint(1, 6), 1, 4))
            if kind == "dd":
                return Query(kind, ["dd", self.text(urn)], 0, lambda: _line(O.dd(urn)))
            k = shape.randint(0, O.size(urn))
            return Query(kind, ["hg", "--k", str(k), self.text(urn)], 0,
                         lambda: _line(O.hg_brute(urn, k)))
        if kind == "arr":
            while True:
                counts = self.counts(shape.randint(1, 4), 1, 3, max_size=8)
                if O.multinomial_coefficient(counts) <= 360:
                    break
            m = self.multiset(counts)
            return Query(kind, ["arr", self.text(m)], 0, lambda: _line(O.arr(m)))
        if kind == "acc":
            elems = self.elements(shape.randint(1, 6))
            xs = [elems[shape.randrange(len(elems))] for _ in range(shape.randint(1, 12))]
            return Query(kind, ["acc", *(self.text(x) for x in xs)], 0, lambda: _line(O.ms(xs)))
        if kind == "flrn":
            m = self.multiset(self.counts(shape.randint(1, 6), 1, 5))
            return Query(kind, ["flrn", self.text(m)], 0, lambda: _line(O.flrn(m)))
        if kind == "mzip":
            while True:
                k = shape.randint(1, 6)
                left = self.counts_of_size(k, shape.randint(1, 3))
                right = self.counts_of_size(k, shape.randint(1, 3))
                phi, psi = self.multiset(left), self.multiset(right)
                if O.coefficient(phi) * O.coefficient(psi) <= 900:
                    break
            return Query(kind, ["mzip", self.text(phi), self.text(psi)], 0,
                         lambda: _line(O.mzip_brute(phi, psi)))
        if kind == "pml":
            elems = self.elements(shape.randint(1, 4))
            members = [self.dist(self.rng.sample(elems, shape.randint(1, min(3, len(elems)))))
                       for _ in range(shape.randint(1, 3))]
            psi = O.ms(members[shape.randrange(len(members))] for _ in range(shape.randint(1, 4)))
            return Query(kind, ["pml", self.text(psi)], 0, lambda: _line(O.pml_brute(psi)))
        if kind in ("update", "validity"):
            elems = self.elements(shape.randint(1, 6))
            d = self.dist(elems)
            pred = {x: self.rng.choice(PRED_VALUES) for x in elems}
            if not any(pred.values()):
                pred[elems[0]] = Fraction(1)
            argv = [kind, self.text(d), "--pred", self.table(pred, ":", "()")]
            if kind == "update":
                return Query(kind, argv, 0, lambda: _line(O.update(d, pred)))
            return Query(kind, argv, 0, lambda: f"{O.validity(d, pred)}\n")
        if kind == "sample-check":
            xs = self.elements(shape.randint(1, 3))
            d = self.dist(xs)
            chan = {x: self.dist(self.rng.sample(["u", "v", "w"], shape.randint(1, 3))) for x in xs}
            k = shape.randint(1, 4)

            def expect():
                direct = O.fmt(O.push(chan, d))
                return f"sampled:  {direct}\ndirect:   {direct}\nsample-check: OK\n"

            return Query(kind, ["sample-check", self.text(d), "--chan", self.table(chan, ": ", "{}"),
                                "--k", str(k)], 0, expect)
        raise ValueError(kind)

    def counts_of_size(self, k: int, parts: int) -> list[int]:
        """Counts of a size-k multiset over at most ``parts`` elements."""
        cuts = sorted(self.shape.randint(0, k) for _ in range(parts - 1))
        counts = [b - a for a, b in zip([0] + cuts, cuts + [k])]
        return [c for c in counts if c]

    def malformed(self, kind: str) -> Query:
        shape = self.shape
        if kind == "bracket":
            good = self.make(shape.choice(("mn", "flrn", "dd", "pml")))
            argv = good.argv[:-1] + [good.argv[-1][:-1]]        # drop the closing bracket
            return Query(kind, argv, 2, None)
        if kind == "weights":
            d = self.dist(self.elements(shape.randint(2, 6)))
            (x, w), rest = d[1][0], d[1][1:]
            bad = ("D", ((x, w * 2),) + rest)                      # sums to 1 + w
            pred = {y: Fraction(1) for y, _ in d[1]}
            return Query(kind, ["validity", self.text(bad), "--pred", self.table(pred, ":", "()")],
                         2, None)
        if kind == "negative":
            urn = self.multiset(self.counts(shape.randint(1, 6), 1, 4))
            return Query(kind, [shape.choice(("dd", "flrn")), "[-" + self.text(urn)[1:]], 2, None)
        if kind == "mzip-sizes":
            k = shape.randint(1, 5)
            phi = self.multiset(self.counts_of_size(k, 2))
            psi = self.multiset(self.counts_of_size(k + shape.randint(1, 2), 2))
            return Query(kind, ["mzip", self.text(phi), self.text(psi)], 1, None)
        raise ValueError(kind)


def _line(v) -> str:
    return O.fmt(v) + "\n"


def make_queries(seed: int) -> list[Query]:
    gen = _Gen(seed)
    pool = [gen.make(kind) for kind in QUERY_KINDS for _ in range(PER_KIND)]
    pool += [gen.malformed(kind) for kind in MALFORMED_KINDS for _ in range(PER_MALFORMED)]
    gen.rng.shuffle(pool)
    return pool


def query_ok(q: Query, rc, out: str, err: str) -> bool:
    if rc != q.expect_rc:
        return False
    if q.expect_rc == 0:
        return err == "" and out == q.expected_stdout()
    prefix = "parse error: " if q.expect_rc == 2 else "error: "
    return out == "" and err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")


class Queries(Workload):
    """A closed loop of small calculator queries through cli.main(argv)."""

    def __init__(self, mp, seed):
        self.mp = mp
        self.pool = make_queries(seed)

    def prepare(self):
        for q in self.pool:
            q.expected_stdout()

    def run_pass(self, run, span, _i):
        main, latencies, clock, yardstick = self.mp.cli.main, run.latencies, CLOCK, run.yardstick
        total = 0.0
        for q in self.pool:
            t0 = clock()
            with span("queries.request"):
                rc, out, err = call_cli(main, q.argv)
            dt = clock() - t0
            total += dt
            latencies.append(dt)
            yardstick.after(dt)
            if not query_ok(q, rc, out, err):
                run.failed += 1
                if len(run.notes) < 5:
                    run.notes.append(f"{q.kind} query failed: {q.argv!r} -> {rc!r} {out!r} {err!r}")
        run.pass_times.append(total)
        run.attempted += len(self.pool)


# -- bigops ------------------------------------------------------------------------

BIGOPS = ("mn", "hg", "arr", "mzip", "pml", "lift", "dd", "update")


def to_library(mp, v):
    """Build a mulprob value from a plain oracle value via public constructors."""
    if isinstance(v, str):
        return v
    tag = v[0]
    if tag == "P":
        return mp.Pair(to_library(mp, v[1]), to_library(mp, v[2]))
    if tag == "M":
        return mp.Multiset({to_library(mp, x): n for x, n in v[1]})
    return mp.Dist({to_library(mp, x): w for x, w in v[1]})


def _seeded_dist(rng, elems) -> tuple:
    cs = [rng.randint(1, 9) for _ in elems]
    return O.dist({x: Fraction(c, sum(cs)) for x, c in zip(elems, cs)})


class BigOps(Workload):
    """The fixed list of large single operations, one pass per list; weights
    come from the seed."""

    fixed_ops = len(BIGOPS)

    def __init__(self, mp, seed: int):
        self.mp = mp
        self.seen: list[tuple] = []          # (op, digest, support size) per run
        rng = random.Random(f"bigops:{seed}")
        e8, e6, e4 = list("abcdefgh"), list("abcdef"), list("abcd")
        self.plain = p = {
            "omega8": _seeded_dist(rng, e8),
            "urn8": O.ms({x: 4 for x in e8}),
            "arr": O.ms({"a": 3, "b": 3, "c": 2, "d": 2}),
            "phi": O.ms({"a": 5, "b": 5}),
            "psi": O.ms({"u": 5, "v": 5}),
            "psi_pml": O.ms([d for d in (_seeded_dist(rng, e4) for _ in range(3))
                             for _ in range(5)]),
            "omega4": _seeded_dist(rng, e4),
            "chan": {x: _seeded_dist(rng, list("uvwz")) for x in e4},
            "urn6": O.ms({x: 4 for x in e6}),
            "omega6": _seeded_dist(rng, e6),
            "pred6": {x: rng.choice(PRED_VALUES[1:]) for x in e6},
        }
        self.lib = {name: to_library(mp, v) for name, v in p.items()
                    if name not in ("chan", "pred6")}
        self.lib["chan"] = mp.Channel.from_mapping(
            {x: to_library(mp, d) for x, d in p["chan"].items()})
        self.lib["pred6"] = mp.Predicate(p["pred6"])

    def run_pass(self, run, span, _i):
        total = 0.0
        for op in BIGOPS:
            t0 = CLOCK()
            try:
                with span(f"bigops.{op}"):
                    result = self.run_op(op)
            except Exception as exc:
                result = None
                run.notes.append(f"bigops {op} raised {exc!r}")
            dt = CLOCK() - t0
            total += dt
            run.latencies.append(dt)
            run.yardstick.after(dt)
            run.attempted += 1
            if result is None:
                self.seen.append((op, None, None))
            else:
                self.seen.append((op, library_digest(result), len(result.entries)))
            del result
        run.pass_times.append(total)

    def verify(self, run):
        expected = {}
        for op, got, support in self.seen:
            if op not in expected:
                want = self.expected(op)
                expected[op] = (digest(want[1]), self.expected_support(op) or len(want[1]))
            if (got, support) != expected[op]:
                run.failed += 1
                run.notes.append(f"bigops {op}: output differs from the closed form")
        self.seen.clear()

    def run_op(self, op: str):
        mp, v = self.mp, self.lib
        if op == "mn":
            return mp.multinomial(v["omega8"], 8)
        if op == "hg":
            return mp.hypergeometric(v["urn8"], 10)
        if op == "arr":
            return mp.arrange(v["arr"])
        if op == "mzip":
            return mp.mzip(v["phi"], v["psi"])
        if op == "pml":
            return mp.pml(v["psi_pml"])
        if op == "lift":
            lifted = mp.lifted_map(v["chan"], 6)
            return mp.bind(mp.push(lifted, mp.multinomial(v["omega4"], 6)), mp.flrn)
        if op == "dd":
            out = mp.hypergeometric(v["urn6"], 12)
            for _ in range(4):
                out = mp.bind(out, mp.draw_delete)
            return out
        if op == "update":
            return mp.update(mp.multinomial(v["omega6"], 9), mp.pred_extend(v["pred6"]))
        raise ValueError(op)

    def expected(self, op: str):
        """Closed-form reference for each op."""
        p = self.plain
        if op == "mn":
            return O.mn_closed(p["omega8"], 8)
        if op == "hg":
            return O.hg_closed(p["urn8"], 10)
        if op == "arr":
            return O.arr(p["arr"])
        if op == "mzip":
            return O.mzip_closed(p["phi"], p["psi"])
        if op == "pml":
            return O.pml_closed(p["psi_pml"])
        if op == "lift":           # sampling round trip: learn(lift(draws)) == push
            return O.push(p["chan"], p["omega4"])
        if op == "dd":             # k deletions after drawing n: a draw of n - k
            return O.hg_closed(p["urn6"], 8)
        if op == "update":         # updating draws: draws from the updated state
            return O.mn_closed(O.update(p["omega6"], p["pred6"]), 9)
        raise ValueError(op)

    def expected_support(self, op: str) -> int | None:
        """Support sizes known by counting, independent of both computations."""
        return {
            "mn": O.multichoose(8, 8),
            "arr": O.coefficient(self.plain["arr"]),
            "mzip": 6,
            "pml": O.multichoose(4, 15),
            "lift": 4,
            "update": O.multichoose(6, 9),
        }.get(op)


def digest(entries) -> str:
    """Hash of (plain element, weight) entries in order, one entry at a time."""
    h = hashlib.sha256()
    for e, w in entries:
        h.update(f"{w} {O.fmt(e)};".encode())
    return h.hexdigest()


def library_digest(d) -> str:
    return digest((O.from_library(x), w) for x, w in d.entries)


WORKLOADS = {"laws": Laws, "queries": Queries, "bigops": BigOps}
