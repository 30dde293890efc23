"""Spans around calls into mulprob's modules, recorded from outside the library.

``Tracer.install`` wraps the public functions and methods of every
module of the package and rebinds each wrapped function at every place
the package imported it, so calls between modules pass through the
wrappers too.  Each call opens a span (name, start, end, parent) kept in
compact arrays until the process ends.  A call of a function into itself,
directly or through unwrapped helpers, is counted but opens no span of its
own: its time stays in the outer span of the same function.

A layer's self time is the duration of its spans minus the part covered
by their child spans.
"""

import dataclasses
import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

from oracle import multinomial_coefficient

LAYERS = ("combinatorics", "elements", "multiset", "dist", "errors",
          "channels", "pml", "ket", "cli", "laws")

# Dunder methods that are operations of the calculus rather than protocol
# plumbing; __eq__, __hash__ and friends are left alone.
_WRAPPED_DUNDERS = {"__init__", "__call__", "__add__", "__contains__"}

_CHANNEL_OPS = {"mn": "multinomial", "hg": "hypergeometric", "dd": "draw_delete",
                "arr": "arrange", "mzip": "mzip"}


def _coefficient(m) -> int:
    return multinomial_coefficient([n for _, n in m.entries])


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # function id -> span name
        self.layers: list[str] = []         # function id -> layer
        self.calls: list[int] = []          # function id -> calls, nested ones included
        self._ids: dict[str, int] = {}
        self.span_fid = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []         # open span indices
        self._stack_fid: list[int] = []     # function id of each open span
        self.counters = {
            "multiset.built": 0, "multiset.enumerated": 0,
            "dist.built": 0, "dist.entries_built": 0, "dist.peak_support": 0,
            "errors.cells_checked": 0,
            "channels.mzip_pairs": 0, "channels.mzip_support": 0,
            "pml.monoid_sum_pairs": 0,
            "ket.parse_chars": 0, "ket.format_chars": 0,
            "cli.rejected": 0,
        }

    # -- recording ----------------------------------------------------------

    def _fid(self, name: str, layer: str) -> int:
        fid = self._ids.get(name)
        if fid is None:
            fid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.calls.append(0)
        return fid

    def _open(self, fid: int) -> int:
        i = len(self.span_fid)
        self.span_fid.append(fid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(i)
        self._stack_fid.append(fid)
        return i

    def caller_layer(self) -> str | None:
        return self.layers[self._stack_fid[-1]] if self._stack_fid else None

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one request."""
        fid = self._fid(name, "benchmark")
        self.calls[fid] += 1
        i = self._open(fid)
        self.span_start[i] = time.perf_counter()
        try:
            yield
        finally:
            self.span_end[i] = time.perf_counter()
            self._stack.pop()
            self._stack_fid.pop()

    def wrap(self, f, layer: str, name: str, hook=None, namer=None):
        fixed = self._fid(name, layer)
        calls, stack, stack_fid = self.calls, self._stack, self._stack_fid
        starts, ends, perf = self.span_start, self.span_end, time.perf_counter
        open_span, fid_of = self._open, self._fid

        def traced(*args, **kwargs):
            fid = fixed if namer is None else fid_of(namer(args), layer)
            calls[fid] += 1
            if stack_fid and stack_fid[-1] == fid:
                result = f(*args, **kwargs)
            else:
                i = open_span(fid)
                starts[i] = perf()
                try:
                    result = f(*args, **kwargs)
                finally:
                    ends[i] = perf()
                    stack.pop()
                    stack_fid.pop()
            if hook is not None:
                hook(args, result)
            return result

        return functools.wraps(f)(traced)

    # -- installation -------------------------------------------------------

    def _hooks(self) -> dict:
        c = self.counters

        def multiset_built(args, _):
            c["multiset.built"] += 1

        def enumerated(_, result):
            c["multiset.enumerated"] += len(result)

        def dist_built(args, _):
            n = len(args[0].entries)
            c["dist.built"] += 1
            c["dist.entries_built"] += n
            if n > c["dist.peak_support"]:
                c["dist.peak_support"] = n

        def cells(args, _):
            c["errors.cells_checked"] += args[0]

        def mzip(args, result):
            c["channels.mzip_pairs"] += _coefficient(args[0]) * _coefficient(args[1])
            c["channels.mzip_support"] += len(result.entries)

        def monoid_sum(args, _):
            c["pml.monoid_sum_pairs"] += len(args[0].entries) * len(args[1].entries)

        def parsed(args, _):
            c["ket.parse_chars"] += len(args[0])

        def formatted(_, result):
            if self.caller_layer() != "ket":
                c["ket.format_chars"] += len(result)

        def cli_main(_, result):
            if result != 0:
                c["cli.rejected"] += 1

        hooks = {
            "multiset.Multiset.__init__": multiset_built,
            "multiset.enumerate_multisets": enumerated,
            "multiset.enumerate_arrangements": enumerated,
            "dist.Dist.__init__": dist_built,
            "errors.check_cells": cells,
            "channels.mzip": mzip,
            "pml.monoid_sum": monoid_sum,
            "cli.main": cli_main,
        }
        for fname in ("parse_value", "parse_element", "parse_multiset", "parse_dist",
                      "parse_predicate", "parse_channel"):
            hooks[f"ket.{fname}"] = parsed
        for fname in ("format_rational", "format_element", "format_multiset", "format_dist",
                      "format_predicate", "format_value"):
            hooks[f"ket.{fname}"] = formatted
        return hooks

    def install(self, package) -> None:
        """Wrap every layer of ``package`` and rebind at all import sites."""
        hooks = self._hooks()
        namers = {"laws.run_law": lambda args: f"laws.{args[0].name}"}
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{obj.__qualname__}"
                    replaced[obj] = self.wrap(obj, layer, name, hooks.get(name), namers.get(name))
                elif (inspect.isclass(obj) and not dataclasses.is_dataclass(obj)
                      and not issubclass(obj, BaseException)):
                    self._wrap_methods(obj, layer, hooks)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _wrap_methods(self, cls, layer: str, hooks: dict) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _WRAPPED_DUNDERS:
                continue
            if isinstance(obj, classmethod):
                name = f"{layer}.{obj.__func__.__qualname__}"
                setattr(cls, attr, classmethod(self.wrap(obj.__func__, layer, name, hooks.get(name))))
            elif inspect.isfunction(obj):
                name = f"{layer}.{obj.__qualname__}"
                setattr(cls, attr, self.wrap(obj, layer, name, hooks.get(name)))

    # -- analysis -----------------------------------------------------------

    def span_totals(self) -> tuple[list[float], list[float], float]:
        """Self time per function id, outermost inclusive time per function id,
        and inclusive time of LawContext spans not nested in another one."""
        fids, parents = self.span_fid, self.span_parent
        dur = array("d", (e - s for s, e in zip(self.span_start, self.span_end)))
        own = array("d", dur)
        for i, p in enumerate(parents):
            if p >= 0:
                own[p] -= dur[i]
        self_by_fid = [0.0] * len(self.names)
        outer_by_fid = [0.0] * len(self.names)
        context = [".LawContext." in n for n in self.names]
        context_s = 0.0
        for i, fid in enumerate(fids):
            self_by_fid[fid] += own[i]
            p = parents[i]
            if p < 0 or fids[p] != fid:
                outer_by_fid[fid] += dur[i]
            if context[fid] and (p < 0 or not context[fids[p]]):
                context_s += dur[i]
        return self_by_fid, outer_by_fid, context_s

    def metrics(self, law_names, bigops_names) -> dict[str, float]:
        """Every per-layer metric; a layer the workload never entered reads 0."""
        self_t, outer_t, context_s = self.span_totals()
        ids, c = self._ids, self.counters

        def calls(name):
            return self.calls[ids[name]] if name in ids else 0

        def own(name):
            return self_t[ids[name]] if name in ids else 0.0

        def outer(name):
            return outer_t[ids[name]] if name in ids else 0.0

        def layer_self(layer, prefix=""):
            return sum(t for n, l, t in zip(self.names, self.layers, self_t)
                       if l == layer and n.startswith(f"{layer}.{prefix}"))

        out = {
            "combinatorics.calls": sum(calls(f"combinatorics.{f}")
                                       for f in ("factorial", "binomial", "multichoose")),
            "combinatorics.self_s": layer_self("combinatorics"),
            "elements.elem_key_calls": calls("elements.elem_key"),
            "elements.self_s": layer_self("elements"),
            "elements.space_contains_calls": calls("elements.Space.__contains__"),
            "multiset.built": c["multiset.built"],
            "multiset.enumerated": c["multiset.enumerated"],
            "multiset.self_s": layer_self("multiset"),
            "dist.built": c["dist.built"],
            "dist.entries_built": c["dist.entries_built"],
            "dist.peak_support": c["dist.peak_support"],
            "dist.bind_calls": calls("dist.bind"),
            "dist.self_s": layer_self("dist"),
            "errors.check_calls": calls("errors.check_cells"),
            "errors.cells_checked": c["errors.cells_checked"],
        }
        for short, fname in _CHANNEL_OPS.items():
            out[f"channels.{short}_calls"] = calls(f"channels.{fname}")
            out[f"channels.{short}_self_s"] = own(f"channels.{fname}")
        pairs = c["channels.mzip_pairs"]
        out["channels.mzip_pairs"] = pairs
        out["channels.mzip_yield"] = c["channels.mzip_support"] / pairs if pairs else 0.0
        out.update({
            "pml.pml_calls": calls("pml.pml"),
            "pml.monoid_sum_calls": calls("pml.monoid_sum"),
            "pml.monoid_sum_pairs": c["pml.monoid_sum_pairs"],
            "pml.lifted_map_calls": calls("pml.lifted_map"),
            "pml.self_s": layer_self("pml"),
            "ket.parse_s": layer_self("ket", "parse_"),
            "ket.format_s": layer_self("ket", "format_"),
            "ket.parse_chars": c["ket.parse_chars"],
            "ket.format_chars": c["ket.format_chars"],
            "cli.self_s": layer_self("cli"),
            "cli.build_parser_s": outer("cli.build_parser"),
            "cli.rejected": c["cli.rejected"],
            "laws.context_s": context_s,
        })
        for law in law_names:
            out[f"laws.{law}_s"] = outer(f"laws.{law}")
        for op in bigops_names:
            out[f"bigops.{op}_s"] = outer(f"bigops.{op}")
        return out
