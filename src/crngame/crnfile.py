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
Stoichiometric coefficients, summed per species and side, are at most
``core.MAX_COEFFICIENT`` (10**6), the bound every reaction keeps. Initial
counts are at most 2**63 - 1 and may only name species that appear in some
reaction. A count of any length past its bound is a :class:`ParseError`;
its digits are counted before it is converted.

Each line is scanned once into ``(kind, text, column)`` tokens ended by an
``end`` marker one column past the line; a short recursive descent reads
them. Every error is a :class:`ParseError` naming a line and column: the
offending token's, or the end marker's when a token is missing.

The writer emits a canonical form: within each side species follow table
order, coefficient 1 is omitted, tokens are separated by single spaces, and
rates use their shortest round-tripping decimal. ``parse(serialize(doc))``
reproduces ``doc``; serializing a parsed text is idempotent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .core import MAX_COEFFICIENT, MAX_COUNT, Crn, CrnError, bounded_count, make_crn

# One token per match: optional blanks, then the token. ``bad`` is any
# other non-blank character; trailing blanks match nothing.
_TOKEN_RE = re.compile(
    r"""[^\S\n]*(?:
        (?P<arrow>->)
      | (?P<plus>\+)
      | (?P<at>@)
      | (?P<eq>=)
      | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<bad>\S))
    """,
    re.VERBOSE,
)

# A number token in side position: an integer count, possibly glued to an
# identifier (``2E0`` is two of species ``E0``, not the number 2e0).
_TERM_RE = re.compile(r"(\d+)([A-Za-z][A-Za-z0-9_]*)?\Z")


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


def _error(lineno: int, token: tuple[str, str, int], message: str) -> ParseError:
    return ParseError(lineno, token[2], message, token[1])


def _bounded(lineno: int, token: tuple[str, str, int], digits: str,
             bound: int, what: str) -> int:
    """``int(digits)``, which must be at most ``bound`` (see :func:`bounded_count`)."""
    count = bounded_count(digits, bound)
    if count is None:
        raise _error(lineno, token, f"{what} must be at most {bound}")
    return count


def _expect(tokens: list, i: int, kind: str, what: str, lineno: int) -> str:
    """The text of ``tokens[i]``, which must be of ``kind``."""
    if tokens[i][0] != kind:
        raise _error(lineno, tokens[i], f"expected {what}")
    return tokens[i][1]


def _side(tokens: list, i: int, lineno: int) -> tuple[dict[str, int], int]:
    """The side at ``tokens[i]`` as name -> count, and the index after it.

    A "0" that no identifier follows is the empty side.
    """
    if tokens[i][1] == "0" and tokens[i + 1][0] != "ident":
        return {}, i + 1
    side: dict[str, int] = {}
    while True:
        kind, text, _ = token = tokens[i]
        if kind == "end":
            raise _error(lineno, token, "expected a species term")
        count, name = 1, None
        if kind == "number":
            term = _TERM_RE.match(text)
            if term is None:
                raise _error(lineno, token, "stoichiometric count must be a plain integer")
            count = _bounded(lineno, token, term[1], MAX_COEFFICIENT,
                             "stoichiometric coefficient")
            name = term[2]
            i += 1
            if count == 0:
                raise _error(lineno, token, "zero stoichiometric coefficient")
        if name is None:
            name = _expect(tokens, i, "ident", "a species identifier", lineno)
            i += 1
        side[name] = side.get(name, 0) + count
        if side[name] > MAX_COEFFICIENT:
            raise _error(lineno, token,
                         f"stoichiometric coefficient must be at most {MAX_COEFFICIENT}")
        if tokens[i][0] != "plus":
            return side, i
        i += 1


def parse(text: str) -> CrnDocument:
    """Parse ``.crn`` text into a :class:`CrnDocument`.

    Raises :class:`ParseError` (always with a position) on the first
    offending statement. Runs in time linear in the input size.
    """
    reactions: list[tuple[dict[str, int], dict[str, int], float]] = []
    reaction_keys: set[tuple] = set()
    inits: list[tuple[int, tuple, int]] = []  # line, name token, count

    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = []
        for m in _TOKEN_RE.finditer(raw.split("#", 1)[0].rstrip("\r")):
            kind = m.lastgroup
            token = (kind, m[kind], m.start(kind) + 1)
            if kind == "bad":
                raise _error(lineno, token, "unexpected character")
            tokens.append(token)
        if not tokens:
            continue
        tokens.append(("end", "", len(raw) + 1))

        if tokens[0][1] == "init":
            _expect(tokens, 1, "ident", "a species identifier", lineno)
            _expect(tokens, 2, "eq", "'='", lineno)
            count = _expect(tokens, 3, "number", "a count", lineno)
            if not count.isdecimal():
                raise _error(lineno, tokens[3], "initial count must be a plain integer")
            count = _bounded(lineno, tokens[3], count, MAX_COUNT, "initial count")
            if tokens[4][0] != "end":
                raise _error(lineno, tokens[4], "unexpected trailing input")
            inits.append((lineno, tokens[1], count))
            continue

        reactants, i = _side(tokens, 0, lineno)
        _expect(tokens, i, "arrow", "'->'", lineno)
        products, i = _side(tokens, i + 1, lineno)
        _expect(tokens, i, "at", "'@'", lineno)
        kind, rate_text, _ = tokens[i + 1]
        if kind != "number":
            raise _error(lineno, tokens[i + 1], "expected a rate constant")
        rate = float(rate_text)
        if not (rate > 0.0) or rate == float("inf"):
            raise _error(lineno, tokens[i + 1], "rate constant must be positive and finite")
        if tokens[i + 2][0] != "end":
            raise _error(lineno, tokens[i + 2], "unexpected trailing input")
        if reactants == products:
            raise ParseError(lineno, tokens[0][2],
                             "reactant and product vectors are equal")
        key = (tuple(sorted(reactants.items())), tuple(sorted(products.items())), rate)
        if key in reaction_keys:
            raise ParseError(lineno, tokens[0][2], "duplicate reaction")
        reaction_keys.add(key)
        reactions.append((reactants, products, rate))

    crn = make_crn(reactions)
    initial_counts: dict[str, int] = {}
    for lineno, name_tok, count in inits:
        name = name_tok[1]
        if name not in crn.species:
            raise _error(lineno, name_tok, "init for undeclared species")
        if name in initial_counts:
            raise _error(lineno, name_tok, "duplicate init for species")
        initial_counts[name] = count

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
