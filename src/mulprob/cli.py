"""Command-line interface.

Every command reads ket-notation literals, evaluates one operation
exactly, and prints the canonical ket rendering of the result.  Exit
codes: 0 on success, 1 on a domain or resource error, 2 on a parse
error or a bad command line; every error is one line on stderr.

Each subcommand is one row of ``_COMMANDS``: its help, its arguments,
the operation on the parsed arguments and the printer of its result.
``main`` builds the parser from that table on its first call and reuses
it for every later call, so the CLI can be called repeatedly in one
process.
"""

import argparse
import sys
from typing import Callable, NamedTuple

from . import __version__
from .channels import arrange, draw_delete, hypergeometric, mzip, multinomial
from .dist import bind, flrn, push, update, validity
from .errors import DomainError, ParseError, ResourceLimitError
from .ket import (
    format_value,
    parse_channel,
    parse_dist,
    parse_element,
    parse_multiset,
    parse_predicate,
)
from .laws import catalogue, render_reports, run_laws
from .multiset import accumulate
from .pml import lifted_map, pml


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a ``ParseError``, in one line."""

    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}")


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {text}")
    return value


def _positive(text: str) -> int:
    value = _natural(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text}")
    return value


def _arg(flag: str, help: str, **options) -> tuple[str, dict]:
    return flag, {"help": help, **options}


def _k(help: str) -> tuple[str, dict]:
    return _arg("--k", help, type=_natural, required=True)


def _bound(flag: str, default: int, help: str) -> tuple[str, dict]:
    return _arg(flag, help, type=_natural, default=default)


class _Command(NamedTuple):
    help: str
    args: tuple[tuple[str, dict], ...]   # name or flag, add_argument keywords
    op: Callable                         # parsed arguments -> result
    # Result -> text, or (text, whether the command's check held); None
    # prints with ``format_value``.  Operations and printers look the
    # library's functions up when they run, not when the table is built,
    # so a wrapper later bound to a module name (as perfbench's tracer
    # does) sees every call.
    show: Callable | None = None


def _sample_check(a) -> tuple:
    # The direct push first, so an error names an element the user wrote.
    omega, chan = parse_dist(a.state), parse_channel(a.chan)
    direct = push(chan, omega)
    return bind(push(lifted_map(chan, a.k), multinomial(omega, a.k)), flrn), direct


def _show_check(legs: tuple) -> tuple[str, bool]:
    sampled, direct = legs
    held = sampled == direct
    return (f"sampled:  {format_value(sampled)}\ndirect:   {format_value(direct)}\n"
            f"sample-check: {'OK' if held else 'MISMATCH'}"), held


def _laws(a) -> list:
    if a.list:
        return catalogue()
    return run_laws(x_size=a.x_size, y_size=a.y_size, k_max=a.k, l_max=a.l, n_max=a.n,
                    seed=a.seed, n_random=a.random, only=a.law)


def _show_laws(result: list) -> tuple[str, bool]:
    if isinstance(result[0], tuple):  # the catalogue: (name, summary) rows
        width = max(len(name) for name, _ in result)
        return "\n".join(f"{name.ljust(width)}  {summary}" for name, summary in result), True
    return render_reports(result), all(r.ok for r in result)


_MULTISET = _arg("multiset", "multiset literal")
_STATE = _arg("state", "distribution literal")

_COMMANDS = {
    "mn": _Command(
        "draws with replacement from a distribution",
        (_arg("state", "distribution literal, e.g. '<1/3 a, 2/3 b>'"), _k("draw size")),
        lambda a: multinomial(parse_dist(a.state), a.k)),
    "hg": _Command(
        "draws without replacement from an urn",
        (_arg("urn", "multiset literal, e.g. '[3 a, 2 b]'"), _k("draw size")),
        lambda a: hypergeometric(parse_multiset(a.urn), a.k)),
    "dd": _Command(
        "delete one element drawn from an urn", (_arg("urn", "multiset literal"),),
        lambda a: draw_delete(parse_multiset(a.urn))),
    "arr": _Command(
        "uniform arrangement of a multiset into sequences", (_MULTISET,),
        lambda a: arrange(parse_multiset(a.multiset))),
    "acc": _Command(
        "collapse a sequence of elements to a multiset",
        (_arg("elements", "element literals, in order", nargs="+"),),
        lambda a: accumulate([parse_element(e) for e in a.elements])),
    "flrn": _Command(
        "normalize a multiset into a distribution", (_MULTISET,),
        lambda a: flrn(parse_multiset(a.multiset))),
    "mzip": _Command(
        "probabilistic zip of two equal-size multisets",
        (_arg("left", "multiset literal"), _arg("right", "multiset literal")),
        lambda a: mzip(parse_multiset(a.left), parse_multiset(a.right))),
    "pml": _Command(
        "distribution over multisets from a multiset of distributions",
        (_arg("multiset", "multiset of distribution literals"),),
        lambda a: pml(parse_multiset(a.multiset))),
    "update": _Command(
        "condition a distribution on fuzzy evidence",
        (_STATE, _arg("--pred", "predicate literal, e.g. '(a:1, b:1/2)'", required=True)),
        lambda a: update(parse_dist(a.state), parse_predicate(a.pred))),
    "validity": _Command(
        "expected value of a predicate in a state",
        (_STATE, _arg("--pred", "predicate literal", required=True)),
        lambda a: validity(parse_dist(a.state), parse_predicate(a.pred)),
        str),
    "sample-check": _Command(
        "sample a state, push samples through a channel, learn, compare",
        (_STATE,
         _arg("--chan", "channel table, e.g. '{a: <1/2 u, 1/2 v>, b: <1 u>}'", required=True),
         _arg("--k", "sample size (at least 1)", type=_positive, required=True)),
        _sample_check, _show_check),
    "laws": _Command(
        "check the commuting-diagram catalogue",
        (_arg("--list", "list the catalogue and exit", action="store_true"),
         _arg("--law", "run a single law by name"),
         _bound("--x-size", 2, "size of the first space"),
         _bound("--y-size", 2, "size of the second space"),
         _bound("--k", 3, "bound on draw sizes"),
         _bound("--l", 3, "bound on secondary sizes"),
         _bound("--n", 4, "bound on urn sizes"),
         _arg("--seed", "seed for the random pools", type=int, default=0),
         _bound("--random", 20, "number of random test distributions per space")),
        _laws, _show_laws),
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``mulprob`` command, built from ``_COMMANDS``."""
    parser = _ArgumentParser(
        prog="mulprob",
        description="Exact calculator for multiset and distribution channels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, options in command.args:
            p.add_argument(flag, **options)
    return parser


_parser: argparse.ArgumentParser | None = None   # built by the first call of main


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        command = _COMMANDS[args.command]
        result = command.op(args)
        try:
            out = (command.show or format_value)(result)
        except ValueError:  # an int longer than sys.get_int_max_str_digits()
            raise ResourceLimitError(
                f"the result has a number of more than {sys.get_int_max_str_digits()} "
                "digits, the interpreter's limit for printing one") from None
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text, ok = out if isinstance(out, tuple) else (out, True)
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
