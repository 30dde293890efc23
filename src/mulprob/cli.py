"""Command-line interface.

Every command reads ket-notation literals, evaluates one operation
exactly, and prints the canonical ket rendering of the result.  Exit
codes: 0 on success, 1 on a domain or resource error, 2 on a parse
error or a bad command line; every error is one line on stderr.
"""

import argparse
import sys

from . import __version__
from .channels import arrange, draw_delete, hypergeometric, mzip, multinomial
from .dist import bind, flrn, push, update, validity
from .errors import DomainError, ParseError, ResourceLimitError
from .ket import (
    format_dist,
    format_multiset,
    format_rational,
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


def _cmd_mn(args) -> int:
    print(format_dist(multinomial(parse_dist(args.state), args.k)))
    return 0


def _cmd_hg(args) -> int:
    print(format_dist(hypergeometric(parse_multiset(args.urn), args.k)))
    return 0


def _cmd_dd(args) -> int:
    print(format_dist(draw_delete(parse_multiset(args.urn))))
    return 0


def _cmd_arr(args) -> int:
    print(format_dist(arrange(parse_multiset(args.multiset))))
    return 0


def _cmd_acc(args) -> int:
    print(format_multiset(accumulate([parse_element(e) for e in args.elements])))
    return 0


def _cmd_flrn(args) -> int:
    print(format_dist(flrn(parse_multiset(args.multiset))))
    return 0


def _cmd_mzip(args) -> int:
    print(format_dist(mzip(parse_multiset(args.left), parse_multiset(args.right))))
    return 0


def _cmd_pml(args) -> int:
    print(format_dist(pml(parse_multiset(args.multiset))))
    return 0


def _cmd_update(args) -> int:
    print(format_dist(update(parse_dist(args.state), parse_predicate(args.pred))))
    return 0


def _cmd_validity(args) -> int:
    print(format_rational(validity(parse_dist(args.state), parse_predicate(args.pred))))
    return 0


def _cmd_sample_check(args) -> int:
    omega = parse_dist(args.state)
    chan = parse_channel(args.chan)
    lifted = lifted_map(chan, args.k)
    sampled = bind(push(lifted, multinomial(omega, args.k)), flrn)
    direct = push(chan, omega)
    print(f"sampled:  {format_dist(sampled)}")
    print(f"direct:   {format_dist(direct)}")
    if sampled == direct:
        print("sample-check: OK")
        return 0
    print("sample-check: MISMATCH")
    return 1


def _cmd_laws(args) -> int:
    if args.list:
        width = max(len(name) for name, _ in catalogue())
        for name, summary in catalogue():
            print(f"{name.ljust(width)}  {summary}")
        return 0
    reports = run_laws(
        x_size=args.x_size,
        y_size=args.y_size,
        k_max=args.k,
        l_max=args.l,
        n_max=args.n,
        seed=args.seed,
        n_random=args.random,
        only=args.law,
    )
    print(render_reports(reports))
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mulprob",
        description="Exact calculator for multiset and distribution channels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mn", help="draws with replacement from a distribution")
    p.add_argument("state", help="distribution literal, e.g. '<1/3 a, 2/3 b>'")
    p.add_argument("--k", type=_natural, required=True, help="draw size")
    p.set_defaults(func=_cmd_mn)

    p = sub.add_parser("hg", help="draws without replacement from an urn")
    p.add_argument("urn", help="multiset literal, e.g. '[3 a, 2 b]'")
    p.add_argument("--k", type=_natural, required=True, help="draw size")
    p.set_defaults(func=_cmd_hg)

    p = sub.add_parser("dd", help="delete one element drawn from an urn")
    p.add_argument("urn", help="multiset literal")
    p.set_defaults(func=_cmd_dd)

    p = sub.add_parser("arr", help="uniform arrangement of a multiset into sequences")
    p.add_argument("multiset", help="multiset literal")
    p.set_defaults(func=_cmd_arr)

    p = sub.add_parser("acc", help="collapse a sequence of elements to a multiset")
    p.add_argument("elements", nargs="+", help="element literals, in order")
    p.set_defaults(func=_cmd_acc)

    p = sub.add_parser("flrn", help="normalize a multiset into a distribution")
    p.add_argument("multiset", help="multiset literal")
    p.set_defaults(func=_cmd_flrn)

    p = sub.add_parser("mzip", help="probabilistic zip of two equal-size multisets")
    p.add_argument("left", help="multiset literal")
    p.add_argument("right", help="multiset literal")
    p.set_defaults(func=_cmd_mzip)

    p = sub.add_parser("pml", help="distribution over multisets from a multiset of distributions")
    p.add_argument("multiset", help="multiset of distribution literals")
    p.set_defaults(func=_cmd_pml)

    p = sub.add_parser("update", help="condition a distribution on fuzzy evidence")
    p.add_argument("state", help="distribution literal")
    p.add_argument("--pred", required=True, help="predicate literal, e.g. '(a:1, b:1/2)'")
    p.set_defaults(func=_cmd_update)

    p = sub.add_parser("validity", help="expected value of a predicate in a state")
    p.add_argument("state", help="distribution literal")
    p.add_argument("--pred", required=True, help="predicate literal")
    p.set_defaults(func=_cmd_validity)

    p = sub.add_parser(
        "sample-check",
        help="sample a state, push samples through a channel, learn, compare",
    )
    p.add_argument("state", help="distribution literal")
    p.add_argument("--chan", required=True,
                   help="channel table, e.g. '{a: <1/2 u, 1/2 v>, b: <1 u>}'")
    p.add_argument("--k", type=_natural, required=True, help="sample size (at least 1)")
    p.set_defaults(func=_cmd_sample_check)

    p = sub.add_parser("laws", help="check the commuting-diagram catalogue")
    p.add_argument("--list", action="store_true", help="list the catalogue and exit")
    p.add_argument("--law", help="run a single law by name")
    p.add_argument("--x-size", type=_natural, default=2, help="size of the first space")
    p.add_argument("--y-size", type=_natural, default=2, help="size of the second space")
    p.add_argument("--k", type=_natural, default=3, help="bound on draw sizes")
    p.add_argument("--l", type=_natural, default=3, help="bound on secondary sizes")
    p.add_argument("--n", type=_natural, default=4, help="bound on urn sizes")
    p.add_argument("--seed", type=int, default=0, help="seed for the random pools")
    p.add_argument("--random", type=_natural, default=20,
                   help="number of random test distributions per space")
    p.set_defaults(func=_cmd_laws)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
