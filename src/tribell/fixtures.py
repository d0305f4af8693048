"""Optimal states and measurements for the 46 inequalities, with targets.

The package ships a text table, checked on every load against a CRC-32
of its text as read (see :mod:`tribell.bell_expr`), holding, per inequality,
the optimal quantum value, a symbolic recipe for the optimal state and the
six optimal observables, the expected monotone profile, and the expected
class pair. This module parses those recipes into concrete
:class:`~tribell.qcore.PureState` / :class:`~tribell.qcore.Observable`
objects so the reproduction suite can re-derive every published quantity.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bell_expr import CATALOG_IDS, catalog_entry, read_checked_table
from .monotones import DEFAULT_CLASS_TOL
from .qcore import (
    _PARTY_INDEX,
    MINUS_IDENTITY,
    PLUS_IDENTITY,
    Observable,
    PureState,
    bell_operator,
    expectation,
)
from .seesaw import Solution

__all__ = [
    "AQ_ANOMALY_IDS",
    "AQ_TOL",
    "ExpectedProfile",
    "FixtureIntegrityError",
    "FIXTURE_TOL",
    "FixtureRecord",
    "INCOMPATIBILITY_CLASS_TOL",
    "PROFILE_TOL",
    "VALUE_TOL",
    "fixture_record",
    "fixture_solution",
    "load_reference_table",
]

# Reproduction tolerances. The value tolerances are keyed by whether the
# reference maximum is closed-form or a printed decimal.
VALUE_TOL = {"closed": 1e-7, "decimal": 5e-4}
FIXTURE_TOL = {"closed": 1e-9, "decimal": 2e-3}
PROFILE_TOL = 2e-3
INCOMPATIBILITY_CLASS_TOL = 2e-5
AQ_TOL = 2e-3
# Rows whose almost-quantum bound lies above their maximum (the AQ anomalies),
# left out of the check of AQ against the maximum.
AQ_ANOMALY_IDS = (23, 41)

_TABLE_RESOURCE = "data/reference_tables.txt"
_TABLE_CRC32 = "15a4f4bc"

# Closed-form constants appearing in the optimal measurement angles.
F_ANGLE = (5.0 - math.sqrt(17.0)) / 4.0
S_ANGLE = -math.asin(math.sqrt(2.0 + math.sqrt(78.0 * math.sqrt(17.0) - 318.0)) / 2.0)
G_ANGLE = 160.0 - 39.0 * math.sqrt(17.0)

_SQRT2 = math.sqrt(2.0)
_D_GAP = math.sqrt((5.0 * math.sqrt(17.0) - 13.0) / 2.0)
_D_PLUS = 0.5 * math.sqrt(2.0 + _D_GAP)
_D_MINUS = 0.5 * math.sqrt(2.0 - _D_GAP)

# Single-qubit kets usable inside state recipes. The u+/u- amplitudes admit
# two published sign readings; the one below reproduces the maximum of
# inequality 8 (20/3) to machine precision, the other misses by >1. The
# h+/h- kets follow the published definition literally; see the reference
# table for the measurement-order caveat on inequality 23.
_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "t+": np.array([1.0, 1.0j], dtype=complex) / _SQRT2,
    "t-": np.array([1.0, -1.0j], dtype=complex) / _SQRT2,
    "b+": np.array([-1.0, 1.0], dtype=complex) / _SQRT2,
    "b-": np.array([-1.0, -1.0], dtype=complex) / _SQRT2,
    "u+": np.array([1.0 / _SQRT2, (-_SQRT2 - 4.0j) / 6.0], dtype=complex),
    "u-": np.array([(_SQRT2 - 4.0j) / 6.0, 1.0 / _SQRT2], dtype=complex),
    "h+": np.array([_D_MINUS, _D_PLUS], dtype=complex),
    "h-": np.array([-_D_PLUS, _D_MINUS], dtype=complex),
}

_PAIR_SLOTS = {"AB": (0, 1), "AC": (0, 2), "BC": (1, 2)}

_EXPR_NAMES = {"sqrt": cmath.sqrt, "pi": math.pi, "I": 1.0j,
               "f": F_ANGLE, "s": S_ANGLE, "g": G_ANGLE}
_EXPR_CHARS = re.compile(r"^[0-9A-Za-z+\-*/(). ]+$")
_IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9]*")

_ROTATION_PREFIX = re.compile(r"^R\(([^)]*)\)\s+")
# A ket, |k1 k2 k3> or |k1 k2>_XY, always written just after its coefficient.
_KET = re.compile(r"\|([^|>]*)>(?:_([A-Z]{2}))?")
_BLOCH_TEXT = re.compile(r"^bloch\(([^,]+),(.+)\)$")

# Printed Bloch pairs carry five decimals (one pair only four), so their
# norm can be off by a few parts in 1e5; anything larger points at a
# transcription error. The worst shipped pair deviates by 5.1e-5.
_BLOCH_NORM_TOL = 1e-4
_STATE_NORM_TOL = 1e-3
_REAL_TOL = 1e-12


class FixtureIntegrityError(RuntimeError):
    """The shipped reference table is damaged or malformed."""


@dataclass(frozen=True)
class ExpectedProfile:
    """One published row of monotone values."""

    negativity: float
    c_ab: float
    c_ac: float
    c_bc: float
    i_a: float
    i_b: float
    i_c: float

    @property
    def concurrences(self) -> tuple[float, float, float]:
        return (self.c_ab, self.c_ac, self.c_bc)

    @property
    def incompatibilities(self) -> tuple[float, float, float]:
        return (self.i_a, self.i_b, self.i_c)


@dataclass(frozen=True)
class FixtureRecord:
    id: int
    kind: str
    maximum: float
    state_text: str | None
    measurement_texts: tuple[str, ...]
    profile: ExpectedProfile
    class_pair: tuple[int, int]
    # Class tolerances: the row's own entanglement tolerance where it sets
    # one, else the defaults.
    entanglement_tol: float
    incompatibility_tol: float


def _evaluate(text: str, names: dict | None = None):
    """Evaluate an arithmetic recipe over the whitelisted names (plus ``names``)."""
    text = text.strip()
    names = {**_EXPR_NAMES, **(names or {})}
    if not text or not _EXPR_CHARS.match(text):
        raise FixtureIntegrityError(f"bad expression: {text!r}")
    for name in _IDENTIFIER.findall(text):
        if name not in names:
            raise FixtureIntegrityError(f"unknown name {name!r} in {text!r}")
    try:
        return eval(text, {"__builtins__": {}}, names)
    except (SyntaxError, TypeError, ArithmeticError) as err:
        raise FixtureIntegrityError(f"bad expression {text!r}: {err}") from None


def _evaluate_real(text: str) -> float:
    value = complex(_evaluate(text))
    if abs(value.imag) > _REAL_TOL * (1.0 + abs(value.real)):
        raise FixtureIntegrityError(f"expression {text!r} is not real")
    return value.real


def _ket(labels: list[str], pair: str | None) -> np.ndarray:
    """Product vector of one ket; a bipartite ket leaves its third party at |0>."""
    if len(labels) == 3 and pair is None:
        slots = (0, 1, 2)
    elif len(labels) == 2 and pair in _PAIR_SLOTS:
        slots = _PAIR_SLOTS[pair]
    else:
        raise FixtureIntegrityError(f"bad ket: {labels!r} {pair!r}")
    factors = [_KETS["0"], _KETS["0"], _KETS["0"]]
    for slot, label in zip(slots, labels):
        try:
            factors[slot] = _KETS[label]
        except KeyError:
            raise FixtureIntegrityError(f"unknown ket label {label!r}") from None
    return np.einsum("a,b,c->abc", factors[0], factors[1], factors[2])


def _apply_rotation(amplitudes: np.ndarray, party: int, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    rotation = np.array([[c, -s], [s, c]], dtype=complex)
    rotated = np.tensordot(rotation, amplitudes, axes=([1], [party]))
    return np.moveaxis(rotated, 0, party)


def _parse_state(text: str) -> PureState:
    rotations: list[tuple[int, float]] = []
    match = _ROTATION_PREFIX.match(text)
    if match is not None:
        for piece in match.group(1).split(","):
            party, _, angle = piece.partition(":")
            if party.strip() not in _PARTY_INDEX or not angle:
                raise FixtureIntegrityError(f"bad rotation text: {piece!r}")
            rotations.append((_PARTY_INDEX[party.strip()], _evaluate_real(angle)))
        text = text[match.end():]
    # Each ket becomes a name bound to its product vector, so the whole
    # recipe is one expression: "c1|0 0 0> - c2|1 1 1>" reads "c1*K0 - c2*K1".
    kets: dict[str, np.ndarray] = {}

    def bind(ket: re.Match) -> str:
        name = f"K{len(kets)}"
        kets[name] = _ket(ket.group(1).split(), ket.group(2))
        return f"*{name}"

    body = _KET.sub(bind, text)
    if not kets or "|" in body or ">" in body:
        raise FixtureIntegrityError(f"bad state recipe: {text!r}")
    amplitudes = _evaluate(body, kets)
    for party, angle in rotations:
        amplitudes = _apply_rotation(amplitudes, party, angle)
    norm = float(np.linalg.norm(amplitudes))
    if abs(norm - 1.0) > _STATE_NORM_TOL:
        raise FixtureIntegrityError(f"state recipe norm {norm} too far from 1")
    return PureState.from_vector(amplitudes.reshape(-1), normalize=True)


def _parse_measurement(text: str) -> Observable:
    if text == "id+":
        return PLUS_IDENTITY
    if text == "id-":
        return MINUS_IDENTITY
    if text == "x":
        return Observable.from_bloch(1.0, 0.0, 0.0)
    if text == "z":
        return Observable.from_bloch(0.0, 0.0, 1.0)
    match = _BLOCH_TEXT.match(text)
    if match is None:
        raise FixtureIntegrityError(f"bad measurement text: {text!r}")
    x = _evaluate_real(match.group(1))
    z = _evaluate_real(match.group(2))
    norm = math.hypot(x, z)
    if abs(norm - 1.0) > _BLOCH_NORM_TOL:
        raise FixtureIntegrityError(f"Bloch pair {text!r} has norm {norm}")
    return Observable.from_bloch(x / norm, 0.0, z / norm)


def _parse_row(line: str) -> FixtureRecord:
    fields = line.split(";")
    if len(fields) != 13:
        raise FixtureIntegrityError(f"row needs 13 fields, got {len(fields)}")
    ident = int(fields[0])
    kind = fields[1]
    if kind not in ("closed", "decimal"):
        raise FixtureIntegrityError(f"row {ident}: bad kind {kind!r}")
    maximum = _evaluate_real(fields[2])
    state_text = None if fields[3] == "none" else fields[3]
    numbers = [float(piece) for piece in fields[10].split(",")]
    if len(numbers) != 7:
        raise FixtureIntegrityError(f"row {ident}: bad profile")
    pair = tuple(int(piece) for piece in fields[11].split(","))
    if len(pair) != 2:
        raise FixtureIntegrityError(f"row {ident}: bad class pair")
    entanglement_tol = DEFAULT_CLASS_TOL
    if fields[12]:
        key, _, value = fields[12].partition("=")
        if key != "ent_tol":
            raise FixtureIntegrityError(f"row {ident}: unknown option {key!r}")
        entanglement_tol = float(value)
    return FixtureRecord(
        id=ident,
        kind=kind,
        maximum=maximum,
        state_text=state_text,
        measurement_texts=tuple(fields[4:10]),
        profile=ExpectedProfile(*numbers),
        class_pair=pair,
        entanglement_tol=entanglement_tol,
        incompatibility_tol=INCOMPATIBILITY_CLASS_TOL,
    )


@lru_cache(maxsize=1)
def load_reference_table() -> tuple[FixtureRecord, ...]:
    """All 46 reference rows, ordered by id, checksum-verified."""
    return read_checked_table(_TABLE_RESOURCE, _TABLE_CRC32, "reference table",
                              FixtureIntegrityError, _parse_row)


def fixture_record(ident: int) -> FixtureRecord:
    if ident not in CATALOG_IDS:
        raise KeyError(f"inequality id must be {CATALOG_IDS[0]}..{CATALOG_IDS[-1]}, got {ident}")
    return load_reference_table()[ident - 1]


def fixture_solution(ident: int) -> Solution:
    """The published optimal state and six observables (A, a, B, b, C, c).

    Bipartite states are padded with |0>. Rows without a state get |000>:
    with both of their observables at +identity per party the value does
    not depend on the state.
    """
    record = fixture_record(ident)
    if record.state_text is None:
        state = PureState(np.eye(8, dtype=complex)[0])
    else:
        state = _parse_state(record.state_text)
    measurements = tuple(_parse_measurement(text) for text in record.measurement_texts)
    operator = bell_operator(catalog_entry(ident).expression, measurements)
    return Solution(
        state=state,
        measurements=measurements,
        value=expectation(state, operator),
        sweeps_used=0,
        restart_index=0,
    )
