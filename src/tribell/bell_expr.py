"""Correlator expressions for the three-party, two-setting, two-outcome scenario.

A Bell expression is an integer-coefficient combination of correlator
terms. Each term is indexed by a triple ``(t1, t2, t3)`` with entries in
``{0, 1, 2}``: index 0 selects the identity slot of that party, 1 its
first setting and 2 its second. The text form uses the letters A/a for
party 1, B/b for party 2 and C/c for party 3, so ``"2 AB - abc"`` stands
for ``2<A B> - <a b c>``. A term is ``[+|-] [integer] [letters]``, and any
whitespace, line breaks included, separates tokens.

The embedded catalog holds the 46 tight inequalities of this scenario in
Sliwa's enumeration together with their local maxima. It and the
reference table of :mod:`tribell.fixtures` are checked on every load
against a CRC-32 of their text as read (:func:`read_checked_table`).
The check guards package data against accidental damage: whoever edits a
table on purpose can update the constant beside it too, so a
cryptographic digest would buy nothing. CRC-32 catches every change
confined to 32 bits or fewer and any other random change with probability
1 - 2**-32. It comes from ``zlib``, which numpy already imports, whereas
``hashlib`` would load OpenSSL's libcrypto (about 3.5 MB of memory) into
processes that need nothing else of it. Commands that run the seesaw
(``qmax``, ``tables``) still load OpenSSL: its restarts draw from
``numpy.random``, which imports ``hashlib`` through ``secrets``.
"""

from __future__ import annotations

import numbers
import re
import zlib
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from types import MappingProxyType

import numpy as np

__all__ = [
    "CATALOG_IDS",
    "BellExpression",
    "BellParseError",
    "CatalogEntry",
    "CatalogIntegrityError",
    "catalog_entry",
    "deterministic_value",
    "format_expression",
    "load_catalog",
    "local_bound",
    "parse_expression",
    "read_checked_table",
    "substitute_identity",
]

TermIndex = tuple[int, int, int]

_LETTER_SLOT = {"A": (0, 1), "a": (0, 2), "B": (1, 1), "b": (1, 2), "C": (2, 1), "c": (2, 2)}
_SLOT_LETTER = {(party, setting): letter for letter, (party, setting) in _LETTER_SLOT.items()}

# The ids of the catalog's rows; the reference table has one row per id too.
CATALOG_IDS = range(1, 47)

_CATALOG_RESOURCE = "data/sliwa_catalog.txt"
_CATALOG_CRC32 = "14b70b96"


class BellParseError(ValueError):
    """Malformed expression text; ``position`` is the first bad character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class CatalogIntegrityError(RuntimeError):
    """The embedded catalog does not match its frozen checksum."""


# The largest absolute coefficient sum an expression may have: every
# value of it, as an int64 sum or in a float64 tensor, is then exact.
_MAX_COEFFICIENT_SUM = 2**53


class BellExpression:
    """Immutable sparse coefficient map over the 27 term indices.

    Zero coefficients are dropped on construction, so two expressions are
    equal exactly when their stored mappings are equal. The absolute values
    of the coefficients may sum to at most 2**53.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        clean: dict[TermIndex, int] = {}
        for term, coeff in dict(coeffs).items():
            term = tuple(term)
            if len(term) != 3 or any(t not in (0, 1, 2) for t in term):
                raise ValueError(f"bad term index {term!r}")
            if not isinstance(coeff, numbers.Integral) and not float(coeff).is_integer():
                raise ValueError(f"coefficient {coeff!r} of term {term!r} is not an integer")
            coeff = int(coeff)
            if coeff != 0:
                clean[term] = clean.get(term, 0) + coeff
        total = sum(abs(c) for c in clean.values())
        if total > _MAX_COEFFICIENT_SUM:
            raise ValueError(f"coefficients' absolute sum {total} exceeds 2**53")
        self._coeffs = MappingProxyType({t: c for t, c in clean.items() if c != 0})

    @property
    def coeffs(self):
        return self._coeffs

    def coefficient(self, term: TermIndex) -> int:
        return self._coeffs.get(tuple(term), 0)

    def tensor(self) -> np.ndarray:
        """Dense (3, 3, 3) coefficient array, axis p indexed by slot t_p."""
        out = np.zeros((3, 3, 3), dtype=np.int64)
        for (t1, t2, t3), coeff in self._coeffs.items():
            out[t1, t2, t3] = coeff
        return out

    def __eq__(self, other):
        if not isinstance(other, BellExpression):
            return NotImplemented
        return dict(self._coeffs) == dict(other._coeffs)

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __len__(self):
        return len(self._coeffs)

    def __repr__(self):
        return f"BellExpression({format_expression(self)!r})"


@dataclass(frozen=True)
class CatalogEntry:
    id: int
    local_maximum: int
    expression: BellExpression
    source: str  # expression text as published, term order preserved


_TOKEN = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<int>\d+)|(?P<word>[A-Za-z]+)|(?P<bad>\S))")


def _tokenize(text: str):
    # Every character but whitespace starts a match: only trailing whitespace is skipped.
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise BellParseError(f"unexpected character {match.group(kind)!r}", match.start(kind))
        tokens.append((kind, match.group(kind), match.start(kind)))
    return tokens


def _word_term(word: str, pos: int) -> TermIndex:
    slots = [0, 0, 0]
    last_party = -1
    for offset, letter in enumerate(word):
        slot = _LETTER_SLOT.get(letter)
        if slot is None:
            raise BellParseError(f"unknown letter {letter!r}", pos + offset)
        party, setting = slot
        if slots[party]:
            raise BellParseError(f"party {party + 1} appears twice in {word!r}", pos + offset)
        if party < last_party:
            raise BellParseError(f"letters out of party order in {word!r}", pos + offset)
        slots[party] = setting
        last_party = party
    return (slots[0], slots[1], slots[2])


def parse_expression(text: str) -> BellExpression:
    """Parse expression text such as ``"2 A + BC - ABC"``.

    Terms are ``[+|-] [integer] [letters]``; only the first may omit its
    sign. Any whitespace, line breaks included, separates tokens. Equal
    terms add up.

    Raises
    ------
    BellParseError
        On the first malformed token, with its character position.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise BellParseError("empty expression", 0)
    coeffs: dict[TermIndex, int] = {}
    i = 0
    while i < len(tokens):
        sign = 1
        kind, value, pos = tokens[i]
        if kind == "sign":
            sign = 1 if value == "+" else -1
            i += 1
            if i == len(tokens):
                raise BellParseError("dangling sign", pos)
            kind, value, pos = tokens[i]
        elif i:
            raise BellParseError("expected '+' or '-' between terms", pos)
        magnitude = 1
        if kind == "int":
            magnitude = int(value)
            i += 1
        term = (0, 0, 0)
        if i < len(tokens) and tokens[i][0] == "word":
            term = _word_term(tokens[i][1], tokens[i][2])
            i += 1
        elif kind != "int":
            raise BellParseError("expected a term", pos)
        coeffs[term] = coeffs.get(term, 0) + sign * magnitude
    return BellExpression(coeffs)


def format_expression(expr: BellExpression) -> str:
    """Canonical text form: terms in term-index order, unit coefficients elided."""
    if not expr.coeffs:
        return "0"
    pieces = []
    for term in sorted(expr.coeffs):
        coeff = expr.coeffs[term]
        word = "".join(_SLOT_LETTER[(party, setting)] for party, setting in enumerate(term) if setting)
        magnitude = abs(coeff)
        if not word:
            body = str(magnitude)
        elif magnitude == 1:
            body = word
        else:
            body = f"{magnitude} {word}"
        pieces.append((coeff < 0, body))
    negative, body = pieces[0]
    parts = [("-" if negative else "") + body]
    for negative, body in pieces[1:]:
        parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


def deterministic_value(expr: BellExpression, strategy) -> int:
    """Value of ``expr`` on one deterministic strategy.

    ``strategy`` lists the six outputs ``(A, a, B, b, C, c)``, each +1 or -1.
    """
    strategy = tuple(strategy)
    if len(strategy) != 6 or any(s not in (1, -1) for s in strategy):
        raise ValueError("strategy must be six values from {+1, -1}")
    total = 0
    for (t1, t2, t3), coeff in expr.coeffs.items():
        product = coeff
        for party, slot in enumerate((t1, t2, t3)):
            if slot:
                product *= strategy[2 * party + slot - 1]
        total += product
    return total


# Rows enumerate the four (first, second) output pairs of one party in the
# order (+,+), (+,-), (-,+), (-,-); column 0 is the identity slot.
_PARTY_STRATEGIES = np.array(
    [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]], dtype=np.int64
)


def local_bound(expr: BellExpression) -> tuple[int, tuple[int, ...]]:
    """Maximum of ``expr`` over all 64 deterministic strategies.

    Returns the bound and the first maximizing strategy in lexicographic
    order (outputs +1 before -1, party 1 varying slowest).
    """
    tensor = expr.tensor()
    v = _PARTY_STRATEGIES
    values = np.einsum("ijk,ai,bj,ck->abc", tensor, v, v, v)
    flat = int(np.argmax(values))
    ia, ib, ic = np.unravel_index(flat, (4, 4, 4))
    strategy = (
        v[ia, 1], v[ia, 2], v[ib, 1], v[ib, 2], v[ic, 1], v[ic, 2],
    )
    return int(values[ia, ib, ic]), tuple(int(s) for s in strategy)


def substitute_identity(
    expr: BellExpression, party: int, sign_first: int, sign_second: int
) -> BellExpression:
    """Replace both settings of one party by signed identity outcomes.

    ``party`` is 1, 2 or 3. A term using that party's first setting is
    multiplied by ``sign_first`` and its slot cleared; likewise for the
    second setting. Terms merge after substitution, so cancellations drop
    out of the result.
    """
    if party not in (1, 2, 3):
        raise ValueError("party must be 1, 2 or 3")
    if sign_first not in (1, -1) or sign_second not in (1, -1):
        raise ValueError("signs must be +1 or -1")
    axis = party - 1
    signs = (1, sign_first, sign_second)
    merged: dict[TermIndex, int] = {}
    for term, coeff in expr.coeffs.items():
        slot = term[axis]
        new_term = list(term)
        new_term[axis] = 0
        key = tuple(new_term)
        merged[key] = merged.get(key, 0) + coeff * signs[slot]
    return BellExpression(merged)


def read_checked_table(resource: str, crc32: str, name: str, error: type, parse_row):
    """Rows of an embedded table, one per catalog id, in id order.

    The CRC-32 of the text as read, as 8 lowercase hex digits, must equal
    ``crc32``; blank lines and ``#`` comments are skipped and each other
    line, stripped, goes to ``parse_row``, whose results carry an ``id``. A
    wrong checksum, a row that ``parse_row`` rejects (with ``error`` or a
    ``ValueError``) or a wrong id sequence raises ``error``, with messages
    that start with ``name``; a rejected row's also names its line.
    """
    text = resources.files(__package__).joinpath(resource).read_text(encoding="utf-8")
    digest = format(zlib.crc32(text.encode("utf-8")), "08x")
    if digest != crc32:
        raise error(f"{name} checksum mismatch: expected {crc32}, got {digest}")
    rows = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                rows.append(parse_row(line))
            except (ValueError, error) as err:
                raise error(f"{name} line {number}: {err}") from None
    if [row.id for row in rows] != list(CATALOG_IDS):
        raise error(f"{name} must hold ids {CATALOG_IDS[0]}..{CATALOG_IDS[-1]} in order")
    return tuple(rows)


def _parse_catalog_row(line: str) -> CatalogEntry:
    ident, lmax, body = line.split(";")
    return CatalogEntry(
        id=int(ident),
        local_maximum=int(lmax),
        expression=parse_expression(body),
        source=body.strip(),
    )


@lru_cache(maxsize=1)
def load_catalog() -> tuple[CatalogEntry, ...]:
    """All 46 catalog entries, ordered by id, checksum-verified."""
    return read_checked_table(_CATALOG_RESOURCE, _CATALOG_CRC32, "catalog",
                              CatalogIntegrityError, _parse_catalog_row)


def catalog_entry(ident: int) -> CatalogEntry:
    if ident not in CATALOG_IDS:
        raise KeyError(f"no catalog entry {ident}; ids run {CATALOG_IDS[0]}..{CATALOG_IDS[-1]}")
    return load_catalog()[ident - 1]
