"""One tokenizer for the package's text grammars: observable strings,
fermion strings and kernel sources.

A grammar is a compiled regex of named groups; the group that matched
names the token's kind.  Matches in a group `skip` are dropped, a match in
a group `bad` is a ParseError, and characters no group matches are skipped.
"""

from __future__ import annotations

import math
import re

from .errors import ParseError

NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
MAX_INDEX = 2**16 - 1  # largest qubit or mode index that text input may name
_INDEX_DIGITS = len(str(MAX_INDEX))
# int() may refuse a longer decimal string: the lowest limit Python can be set to
_MAX_DIGITS = 640


class TokenStream:
    """The tokens of `text`, lexed eagerly so that a bad character anywhere is
    reported first: (kind, text, offset) triples.  Positions are character
    offsets, or (line, column) pairs when `lines` is set."""

    __slots__ = ("text", "tokens", "pos", "lines")

    def __init__(self, grammar: re.Pattern, text: str, lines: bool = False):
        self.text = text
        self.lines = lines
        self.pos = 0
        tokens = [(m.lastgroup, m.group(), m.start()) for m in grammar.finditer(text)]
        kinds = {tok[0] for tok in tokens}
        if "bad" in kinds:
            tok = next(tok for tok in tokens if tok[0] == "bad")
            raise ParseError(f"unexpected character {tok[1]!r}", self.where(tok))
        if "skip" in kinds:
            tokens = [tok for tok in tokens if tok[0] != "skip"]
        self.tokens = tokens + [None]  # peek past the last token gives None

    def _at(self, offset: int):
        if not self.lines:
            return offset
        line_start = self.text.rfind("\n", 0, offset)
        return (self.text.count("\n", 0, offset) + 1, offset - line_start)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok is not None:
            self.pos += 1
        return tok

    def where(self, tok=None):
        """Position of `tok`, by default of the next token, or of the end of text."""
        tok = tok or self.peek()
        return self._at(tok[2] if tok else len(self.text))

    def expect(self, text: str):
        tok = self.next()
        if tok is None or tok[1] != text:
            raise self._expected(tok, repr(text))
        return tok

    def expect_kind(self, kind: str, what: str):
        tok = self.next()
        if tok is None or tok[0] != kind:
            raise self._expected(tok, what)
        return tok

    def _expected(self, tok, what: str) -> ParseError:
        got = f", got {tok[1]!r}" if tok else ""
        return ParseError(f"expected {what}{got}", self.where(tok))

    def sign(self) -> float:
        """-1.0 after consuming a '-' token; 1.0 after a '+' or if neither is next."""
        tok = self.tokens[self.pos]
        if tok is None or tok[1] not in ("+", "-"):
            return 1.0
        self.pos += 1
        return -1.0 if tok[1] == "-" else 1.0

    def number(self, tok) -> float:
        """The NUMBER token `tok` as a float; ParseError where it overflows."""
        value = float(tok[1])
        if value == math.inf:
            raise ParseError(f"number {tok[1]!r} overflows a float", self.where(tok))
        return value

    def signed_number(self) -> float:
        """A NUMBER token with an optional leading '+' or '-'."""
        return self.sign() * self.number(self.expect_kind("num", "number"))

    def complex_literal(self) -> complex:
        """``(re,im)`` with optionally signed parts."""
        self.expect("(")
        re_part = self.signed_number()
        self.expect(",")
        im_part = self.signed_number()
        self.expect(")")
        return complex(re_part, im_part)

    def index(self, digits: str, tok, what: str, bound: int | None = MAX_INDEX) -> int:
        """`digits`, part of token `tok`, as an integer no greater than `bound`;
        with no bound, as one of at most _MAX_DIGITS significant digits."""
        if not digits.isdigit():
            raise ParseError(f"{what} must be an integer, got {digits!r}", self.where(tok))
        if len(digits) > _INDEX_DIGITS:  # int() refuses a few thousand digits
            digits = digits.lstrip("0") or "0"
        if bound is None:
            if len(digits) <= _MAX_DIGITS:
                return int(digits)
            raise ParseError(f"{what} has more than {_MAX_DIGITS} digits", self.where(tok))
        if len(digits) <= _INDEX_DIGITS and (value := int(digits)) <= bound:
            return value
        raise ParseError(f"{what} exceeds {bound}", self.where(tok))
