"""Parsing and printing of the ket text notation.

The bit-exact surface syntax of the library:

* element: an identifier (``a``, ``z0``), a numeral of ASCII digits
  (``0``), a pair of elements ``(a,0)``, a multiset or a distribution, so
  pair components, multiset and distribution entries, predicate keys and
  channel keys may all be multisets or distributions, as in
  ``([1 a],[1 u])``
* multiset: ``[3 a, 2 b]``, empty ``[]``
* distribution: ``<1/3 a, 2/3 b>``; never empty
* predicate: ``(a:1, b:1/2)``, at the top level only
* channel: ``{a: <1/2 u, 1/2 v>, b: <1 u>}``, one output per element of
  its domain, printed in the domain's order; ``{}`` is the channel with
  an empty domain; at the top level only
* rational: ``p`` or ``p/q``, always reduced on output

Printed output is canonical: entries sorted by the element order,
rationals in lowest terms, so printing after parsing normalizes and two
equal values, channels included, always print identically.
"""

import re
import sys
from fractions import Fraction

from .dist import Channel, Dist, Predicate
from .elements import Elem, Pair, _show
from .errors import DomainError, ParseError
from .multiset import Multiset

# Deepest nesting of brackets the parser accepts.
_MAX_DEPTH = 100

# -- formatting ---------------------------------------------------------------


def format_value(v) -> str:
    """The canonical text of any value: an element, a multiset, a distribution,
    a predicate or a channel; a channel's table is filled to print it."""
    if isinstance(v, str):
        return v
    if isinstance(v, Pair):
        return f"({format_value(v.fst)},{format_value(v.snd)})"
    if isinstance(v, tuple):
        return "(" + ",".join(format_value(c) for c in v) + ")"
    if isinstance(v, Multiset):
        return "[" + ", ".join(f"{n} {format_value(e)}" for e, n in v.entries) + "]"
    if isinstance(v, Dist):
        return "<" + ", ".join(f"{w} {format_value(e)}" for e, w in v.entries) + ">"
    if isinstance(v, Predicate):
        return "(" + ", ".join(f"{format_value(e)}:{w}" for e, w in v.entries) + ")"
    if isinstance(v, Channel):
        return "{" + ", ".join(f"{format_value(x)}: {format_value(v(x))}" for x in v.domain) + "}"
    raise TypeError(f"cannot format {v!r} as a value")


# -- tokenizing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<space>\s+)|(?P<nat>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>[\[\]<>(){},:/-])|(?P<bad>.)",
    re.S,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind != "space":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[1] != text:
            raise ParseError(f"expected {text!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def enter(self, text: str) -> int:
        """Consume an opening bracket one nesting level deeper; return its position."""
        _, _, pos = self.expect(text)
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"nesting deeper than {_MAX_DEPTH} levels", pos)
        return pos

    def leave(self, text: str) -> None:
        self.expect(text)
        self.depth -= 1

    def done(self) -> None:
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])

    # -- grammar --------------------------------------------------------------

    def nat(self) -> int:
        tok = self.next()
        if tok[0] != "nat":
            raise ParseError(f"expected a natural number, found {tok[1] or 'end of input'!r}", tok[2])
        try:
            return int(tok[1])
        except ValueError:  # longer than the interpreter's int/str digit limit
            raise ParseError(f"number of {len(tok[1])} digits, more than the limit of "
                             f"{sys.get_int_max_str_digits()}", tok[2]) from None

    def rational(self) -> Fraction:
        negative = False
        if self.peek()[1] == "-":
            self.next()
            negative = True
        num = self.nat()
        if negative:
            num = -num
        if self.peek()[1] == "/":
            self.next()
            dtok = self.peek()
            den = self.nat()
            if den == 0:
                raise ParseError("zero denominator", dtok[2])
            return Fraction(num, den)
        return Fraction(num)

    def element(self) -> Elem:
        """An atom, a pair of elements, a multiset or a distribution."""
        kind, text, pos = self.peek()
        if kind in ("ident", "nat"):
            self.next()
            return text
        if text == "(":
            self.enter("(")
            return self.pair_rest(self.element())
        if text == "[":
            return self.multiset()
        if text == "<":
            return self.dist()
        raise ParseError(f"expected an element, found {text or 'end of input'!r}", pos)

    def pair_rest(self, fst: Elem) -> Pair:
        """The rest of a pair whose opening bracket and first element are read."""
        self.expect(",")
        snd = self.element()
        self.leave(")")
        return Pair(fst, snd)

    def entries(self, start: int, close: str, entry, build, empty: bool = False):
        """Comma-separated entries up to ``close``, made into a value by ``build``.

        The opening bracket, at ``start``, is read; ``empty`` allows no
        entries.  A value ``build`` rejects is a parse error at ``start``.
        """
        items = []
        if not (empty and self.peek()[1] == close):
            items.append(entry())
            while self.peek()[1] == ",":
                self.next()
                items.append(entry())
        self.leave(close)
        try:
            return build(items)
        except DomainError as exc:
            raise ParseError(str(exc), start) from None

    def weighted(self, weight) -> tuple:
        """A weight and the element after it, as an ``(element, weight)`` entry."""
        w = weight()
        return self.element(), w

    def multiset(self) -> Multiset:
        return self.entries(self.enter("["), "]", lambda: self.weighted(self.nat), Multiset, True)

    def dist(self) -> Dist:
        return self.entries(self.enter("<"), ">", lambda: self.weighted(self.rational), Dist)

    def predicate(self) -> Predicate:
        start = self.enter("(")
        return self.predicate_rest(self.element(), start)

    def predicate_rest(self, key: Elem, start: int) -> Predicate:
        """The rest of a predicate whose opening bracket and first key are read.

        Every key is read one nesting level inside the bracket, so a key
        that parses in one position parses in any, the canonical one too.
        """
        keys = [key]

        def entry():
            k = keys.pop() if keys else self.element()
            self.expect(":")
            return k, self.rational()

        return self.entries(start, ")", entry, Predicate)

    def channel(self) -> Channel:
        table = {}

        def entry():
            key = self.element()
            self.expect(":")
            if key in table:
                raise ParseError(f"duplicate channel entry for {_show(key)}", self.peek()[2])
            table[key] = self.dist()

        self.entries(self.enter("{"), "}", entry, list, True)
        return Channel.from_mapping(table)

    def any_value(self):
        """An element, or at the top level a predicate or a channel."""
        kind, text, pos = self.peek()
        if text == "{":
            return self.channel()
        if text == "(":
            # A parenthesis opens either a pair or a predicate; the token
            # after the first inner element, which may itself be a pair,
            # tells them apart.
            self.enter("(")
            first = self.element()
            if self.peek()[1] == ":":
                return self.predicate_rest(first, pos)
            return self.pair_rest(first)
        return self.element()


def _parse_with(method_name: str, text: str):
    parser = _Parser(text)
    value = getattr(parser, method_name)()
    parser.done()
    return value


def parse_value(text: str):
    """Parse any ket literal: an element (multisets and distributions
    included), a predicate or a channel."""
    return _parse_with("any_value", text)


def parse_element(text: str) -> Elem:
    return _parse_with("element", text)


def parse_multiset(text: str) -> Multiset:
    return _parse_with("multiset", text)


def parse_dist(text: str) -> Dist:
    return _parse_with("dist", text)


def parse_predicate(text: str) -> Predicate:
    return _parse_with("predicate", text)


def parse_channel(text: str) -> Channel:
    return _parse_with("channel", text)
