"""mulprob benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload {laws,queries,bigops} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; mulprob is imported from ``src/``.
Each run sets up several times (fresh import plus input generation),
checks the README examples, then runs whole passes over the workload's
operations until ``--seconds`` of measured CPU time have elapsed, at least
three passes and a whole multiple of the workload's ``cycle``.  Timings are
reported in yardsticks (see ``workloads.Yardstick``).  Outputs are checked
against an independent oracle outside the timed regions.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the workload runs one pass untraced and one pass with spans around every
call into the library's modules, and the metrics are the per-layer ones.
Metric names and units are read from ``BENCHMARK.json``.
"""

import argparse
import contextlib
import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path

import workloads as W
from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 15
MIN_PASSES = 3          # so that pass_ys is a median even when one pass is long


def fresh_import():
    """Import mulprob and its CLI from the checkout, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "mulprob" or n.startswith("mulprob.")]:
        del sys.modules[name]
    mp = importlib.import_module("mulprob")
    importlib.import_module("mulprob.cli")
    if not Path(mp.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"mulprob imported from {mp.__file__}, not from {SRC}")
    return mp


class Run:
    """Operations attempted and failed, pass times and per-operation latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.pass_times: list[float] = []
        self.latencies: list[float] = []
        self.notes: list[str] = []
        self.yardstick = W.Yardstick()


def null_span(_name):
    return contextlib.nullcontext()


# -- measurement ----------------------------------------------------------------


def setup(workload: str, seed: int):
    """Set up SETUPS times; return the last workload and the median set-up time."""
    times = []
    for _ in range(SETUPS):
        t0 = W.CLOCK()
        mp = fresh_import()
        wl = W.WORKLOADS[workload](mp, seed)
        times.append(W.CLOCK() - t0)
        gc.collect()
    return mp, wl, statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def op_samples(wl, run: Run) -> list[float]:
    """One latency per operation run; but where a pass repeats a short fixed
    list of operations, one per operation in the list: its mean over the run."""
    m = wl.fixed_ops
    if not m:
        return run.latencies
    return [statistics.fmean(run.latencies[k::m]) for k in range(m)]


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest whole percentile, up to p99, with at least ten samples
    beyond it; the slowest sample when there are fewer than 20 samples."""
    n = len(latencies)
    if n < 20:
        return max(latencies), f"max of {n} samples"
    p = min(99, 100 * (n - 10) // n)
    return statistics.quantiles(latencies, n=100)[p - 1], f"p{p} of {n} samples"


def pass_time(wl, pass_times: list[float]) -> float:
    """Median over the run's cycles of the mean pass time within a cycle."""
    c = wl.cycle
    return statistics.median(sum(pass_times[i:i + c]) / c for i in range(0, len(pass_times), c))


def measure(wl, seconds: float) -> tuple[Run, dict, dict]:
    run = Run()
    wl.prepare()
    while (len(run.pass_times) < MIN_PASSES or sum(run.pass_times) < seconds
           or len(run.pass_times) % wl.cycle):
        wl.run_pass(run, null_span, len(run.pass_times))
    rss = peak_rss_mb()
    wl.verify(run)
    if not run.yardstick.samples:
        run.yardstick.sample()
    unit = statistics.median(run.yardstick.samples)
    samples = op_samples(wl, run)
    p_tail, tail_desc = tail(samples)
    seconds = {"pass": pass_time(wl, run.pass_times),
               "op_p50": statistics.median(samples), "op_tail": p_tail}
    metrics = {f"{name}_ys": t / unit for name, t in seconds.items()}
    metrics["peak_rss_mb"] = rss
    run.notes.append(f"{len(run.pass_times)} passes, {len(run.latencies)} operations, "
                     f"{len(samples)} latency samples; op_tail is the {tail_desc}")
    run.notes.append(f"yardstick: median {unit * 1e3:.3f} ms of {len(run.yardstick.samples)} "
                     f"samples; raw CPU times: " + ", ".join(
                         f"{name} {t * 1e3:.3f} ms" for name, t in seconds.items()))
    return run, metrics, seconds


def traced(mp, wl) -> tuple[Run, dict]:
    run = Run()
    wl.prepare()
    wl.run_pass(run, null_span, 0)
    untraced_s = run.pass_times[-1]
    tracer = Tracer()
    tracer.install(mp)
    wl.run_pass(run, tracer.span, 0)
    traced_s = run.pass_times[-1]
    wl.verify(run)
    metrics = tracer.metrics(W.LAW_NAMES, W.BIGOPS)
    metrics["trace_overhead_s"] = traced_s - untraced_s
    run.notes.append(f"one pass untraced ({untraced_s:.3f} s) and one traced ({traced_s:.3f} s), "
                     f"{len(tracer.span_fid)} spans across layers {', '.join(LAYERS)}")
    return run, metrics


def aliases(workload: str, run: Run, t: dict) -> list[str]:
    """The workload's own names for its end-to-end figures, in CPU time."""
    if workload == "laws":
        return [f"laws_s = {t['pass']:.4f} s (mean sweep of the median cycle)"]
    if workload == "bigops":
        return [f"bigops_s = {t['pass']:.4f} s (median pass over {len(W.BIGOPS)} ops)"]
    return [f"queries_per_s = {run.attempted / sum(run.pass_times):.1f} 1/s "
            f"(one client, closed loop)",
            f"query_p50_ms = {t['op_p50'] * 1e3:.3f} ms",
            f"query_p99_ms = {t['op_tail'] * 1e3:.3f} ms"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mulprob" / "__init__.py").is_file():
        print(f"perfbench: no mulprob sources at {SRC / 'mulprob'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    mp, wl, setup_s = setup(args.workload, args.seed)
    readme_bad = W.readme_failures(mp)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        run, values = traced(mp, wl)
        specs = spec["per_layer"]
    else:
        run, values, seconds = measure(wl, args.seconds)
        values["setup_s"] = setup_s
        specs = spec["end_to_end"]
        for line in aliases(args.workload, run, seconds):
            print(line)
        print(f"setup_s = {setup_s:.4f} s (median of {SETUPS} set-ups)")
        print(f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB")

    for example in readme_bad:
        print(f"README example output differs: mulprob {example}")
    for note in run.notes:
        print(note)
    print(f"failed_frac = {run.failed / run.attempted:.6f} ({run.failed} of {run.attempted})")
    print(json.dumps({
        "correct": run.failed == 0 and not readme_bad,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
