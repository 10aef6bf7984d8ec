"""Reader and writer for the ``.crn`` reaction-network text format.

One statement per line; ``#`` starts a comment; blank lines are ignored.

    reaction := side "->" side "@" RATE     e.g.  2X + Y -> 3X @ 1
    side     := "0" | term ("+" term)*      "0" is the empty side
    term     := [COUNT] IDENT               "2X" and "2 X" are both valid
    init     := "init" IDENT "=" COUNT      e.g.  init X = 5120

Species identifiers are case-sensitive, start with a letter, and continue
with letters, digits, or underscores; they are registered in first
appearance order. ``init`` is a reserved word at the start of a statement.
Rate constants are positive finite decimals (scientific notation allowed).
Initial counts may only name species that appear in some reaction.

The writer emits a canonical form: within each side species follow table
order, coefficient 1 is omitted, tokens are separated by single spaces, and
rates use their shortest round-tripping decimal. ``parse(serialize(doc))``
reproduces ``doc``; serializing a parsed text is idempotent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .core import Crn, CrnError, make_crn

_TOKEN_RE = re.compile(
    r"""(?P<ws>[^\S\n]+)
      | (?P<arrow>->)
      | (?P<plus>\+)
      | (?P<at>@)
      | (?P<eq>=)
      | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_INT_RE = re.compile(r"\d+\Z")


class ParseError(CrnError):
    """Syntax or consistency error in ``.crn`` text, with its position."""

    def __init__(self, line: int, column: int, message: str, token: str = ""):
        self.line = line
        self.column = column
        self.message = message
        self.token = token
        where = f"line {line}, column {column}: {message}"
        if token:
            where += f" (near {token!r})"
        super().__init__(where)


@dataclass
class CrnDocument:
    """A parsed CRN plus its declared initial counts."""

    crn: Crn
    initial_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for name, count in self.initial_counts.items():
            if name not in self.crn.species:
                raise CrnError(f"init for undeclared species {name!r}")
            if count < 0:
                raise CrnError(f"negative init for species {name!r}")

    def initial_state(self):
        """Dense initial count vector (zero for species without an init)."""
        return self.crn.species.state_from(self.initial_counts)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    column: int


def _tokenize(line: str, lineno: int) -> list[_Token]:
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    line = line.rstrip("\r")
    tokens = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            raise ParseError(lineno, pos + 1, "unexpected character", line[pos])
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), m.start() + 1))
        pos = m.end()
    return tokens


class _Cursor(object):
    def __init__(self, tokens: list[_Token], lineno: int, line_len: int):
        self._tokens = tokens
        self._i = 0
        self.lineno = lineno
        self._end_col = line_len + 1

    def peek(self, ahead: int = 0) -> _Token | None:
        i = self._i + ahead
        return self._tokens[i] if i < len(self._tokens) else None

    def next(self) -> _Token | None:
        tok = self.peek()
        if tok is not None:
            self._i += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        if tok is None:
            return ParseError(self.lineno, self._end_col, message)
        return ParseError(self.lineno, tok.column, message, tok.text)

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            raise self.fail(f"expected {what}")
        self._i += 1
        return tok

    def at_end(self) -> bool:
        return self._i >= len(self._tokens)


_DIGITS_RE = re.compile(r"\d+")
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def _parse_term(cur: _Cursor) -> tuple[int, str]:
    """One ``[COUNT] IDENT`` term.

    In side context a number token is an integer count, possibly glued to
    an identifier: ``2E0`` is two of species ``E0``, not the number 2e0
    (scientific notation is meaningful only in rate position).
    """
    tok = cur.peek()
    if tok is None:
        raise cur.fail("expected a species term")
    count = 1
    name: str | None = None
    if tok.kind == "number":
        digits = _DIGITS_RE.match(tok.text).group()
        rest = tok.text[len(digits):]
        count = int(digits)
        if rest:
            if not _IDENT_RE.match(rest):
                raise cur.fail("stoichiometric count must be a plain integer")
            name = rest
        cur.next()
        if count == 0:
            raise ParseError(cur.lineno, tok.column,
                             "zero stoichiometric coefficient", tok.text)
    if name is None:
        name = cur.expect("ident", "a species identifier").text
    return count, name


def _parse_side(cur: _Cursor) -> dict[str, int]:
    """Parse a reaction side into name -> count. Empty dict for "0"."""
    tok = cur.peek()
    if tok is not None and tok.kind == "number" and tok.text == "0":
        following = cur.peek(1)
        if following is None or following.kind != "ident":
            cur.next()
            return {}
    side: dict[str, int] = {}
    while True:
        count, name = _parse_term(cur)
        side[name] = side.get(name, 0) + count
        tok = cur.peek()
        if tok is None or tok.kind != "plus":
            return side
        cur.next()


def _parse_rate(cur: _Cursor) -> float:
    tok = cur.peek()
    if tok is None or tok.kind != "number":
        raise cur.fail("expected a rate constant")
    value = float(tok.text)
    if not (value > 0.0) or value == float("inf"):
        raise cur.fail("rate constant must be positive and finite")
    cur.next()
    return value


def parse(text: str) -> CrnDocument:
    """Parse ``.crn`` text into a :class:`CrnDocument`.

    Raises :class:`ParseError` (always with a position) on the first
    offending statement. Runs in time linear in the input size.
    """
    reactions: list[tuple[dict[str, int], dict[str, int], float]] = []
    reaction_keys: set[tuple] = set()
    inits: list[tuple[int, _Token, int]] = []  # line, name token, count

    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        cur = _Cursor(tokens, lineno, len(raw))
        first = tokens[0]
        if first.kind == "ident" and first.text == "init":
            cur.next()
            name_tok = cur.expect("ident", "a species identifier")
            cur.expect("eq", "'='")
            count_tok = cur.expect("number", "a count")
            if not _INT_RE.match(count_tok.text):
                raise ParseError(lineno, count_tok.column,
                                 "initial count must be a plain integer",
                                 count_tok.text)
            if not cur.at_end():
                raise cur.fail("unexpected trailing input")
            inits.append((lineno, name_tok, int(count_tok.text)))
            continue

        reactants = _parse_side(cur)
        cur.expect("arrow", "'->'")
        products = _parse_side(cur)
        cur.expect("at", "'@'")
        rate = _parse_rate(cur)
        if not cur.at_end():
            raise cur.fail("unexpected trailing input")
        if reactants == products:
            raise ParseError(lineno, first.column,
                             "reactant and product vectors are equal")
        key = (tuple(sorted(reactants.items())), tuple(sorted(products.items())), rate)
        if key in reaction_keys:
            raise ParseError(lineno, first.column, "duplicate reaction")
        reaction_keys.add(key)
        reactions.append((reactants, products, rate))

    crn = make_crn(reactions)
    initial_counts: dict[str, int] = {}
    for lineno, name_tok, count in inits:
        if name_tok.text not in crn.species:
            raise ParseError(lineno, name_tok.column,
                             "init for undeclared species", name_tok.text)
        if name_tok.text in initial_counts:
            raise ParseError(lineno, name_tok.column,
                             "duplicate init for species", name_tok.text)
        initial_counts[name_tok.text] = count

    return CrnDocument(crn, initial_counts)


def _format_rate(k: float) -> str:
    s = repr(k)
    return s[:-2] if s.endswith(".0") else s


_GLUE_AMBIGUOUS_RE = re.compile(r"[eE]\d")


def _format_side(counts: tuple[int, ...], names: tuple[str, ...]) -> str:
    terms = []
    for i, c in enumerate(counts):
        if c == 1:
            terms.append(names[i])
        elif c > 1:
            # "2E0" would lex as the number 2e0; keep such names separated
            sep = " " if _GLUE_AMBIGUOUS_RE.match(names[i]) else ""
            terms.append(f"{c}{sep}{names[i]}")
    return " + ".join(terms) if terms else "0"


def serialize(document: CrnDocument) -> str:
    """Write a document in canonical form; see the module docstring."""
    names = document.crn.species.names
    lines = []
    for rxn in document.crn.reactions:
        lines.append(f"{_format_side(rxn.reactants, names)} -> "
                     f"{_format_side(rxn.products, names)} @ "
                     f"{_format_rate(rxn.rate_constant)}")
    for name in names:
        if name in document.initial_counts:
            lines.append(f"init {name} = {document.initial_counts[name]}")
    return "".join(line + "\n" for line in lines)


def load(path) -> CrnDocument:
    """Parse a ``.crn`` file (UTF-8, LF or CRLF)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(1, 1, f"not valid UTF-8 ({exc.reason})") from exc
    return parse(text)
