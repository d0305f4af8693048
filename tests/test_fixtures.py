import math
import re

import numpy as np
import pytest

from tribell.bell_expr import catalog_entry
from tribell.fixtures import (
    INCOMPATIBILITY_CLASS_TOL,
    FixtureIntegrityError,
    _parse_state,
    fixture_record,
    fixture_solution,
    load_reference_table,
)
from tribell.monotones import DEFAULT_CLASS_TOL
from tribell.seesaw import evaluate_solution

STATELESS_IDS = (1, 10)
CLOSED_IDS = set(range(1, 16)) | {17, 18, 20, 23, 26, 29, 30, 37, 38, 43, 44, 45}


def test_table_loads_all_ids_once():
    records = load_reference_table()
    assert [record.id for record in records] == list(range(1, 47))


def test_record_kinds():
    for ident in range(1, 47):
        record = fixture_record(ident)
        assert record.kind in ("closed", "decimal")
        assert (record.kind == "closed") == (ident in CLOSED_IDS)
        assert len(record.measurement_texts) == 6
        assert len(record.class_pair) == 2


def test_fixture_record_rejects_unknown_id():
    for bad in (0, 47):
        with pytest.raises(KeyError):
            fixture_record(bad)


def test_closed_form_maxima_are_stored_exactly():
    assert fixture_record(7).maximum == 20 / 3
    assert fixture_record(18).maximum == pytest.approx(2 * (7 - math.sqrt(17)), abs=1e-15)
    assert fixture_record(23).maximum == pytest.approx(1.5 * (math.sqrt(17) - 1), abs=1e-15)


def test_states_build_normalized():
    for ident in range(1, 47):
        state = fixture_solution(ident).state
        assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12
        if ident in STATELESS_IDS:
            assert state.amplitudes[0] == 1


def test_measurements_build_for_all_rows():
    for ident in range(1, 47):
        measurements = fixture_solution(ident).measurements
        assert len(measurements) == 6
        for obs in measurements:
            if not obs.is_identity:
                assert abs(np.linalg.norm(obs.vector) - 1) < 1e-12


def test_printed_bloch_pairs_norm_honesty():
    """The table prints 4-5 decimals; renormalization is bounded by what
    those truncations can cause. Row 41's fourth slot has a 4-decimal x
    and carries the single largest correction."""
    from tribell.fixtures import _evaluate_real

    worst_overall, worst_rest = 0.0, 0.0
    for ident in range(1, 47):
        record = fixture_record(ident)
        for slot, text in enumerate(record.measurement_texts):
            match = re.match(r"^bloch\((.*)\)$", text)
            if not match:
                continue
            args = match.group(1)
            depth, cut = 0, None
            for k, ch in enumerate(args):
                depth += ch == "("
                depth -= ch == ")"
                if ch == "," and depth == 0:
                    cut = k
                    break
            x = _evaluate_real(args[:cut])
            z = _evaluate_real(args[cut + 1:])
            deviation = abs(math.hypot(x, z) - 1.0)
            worst_overall = max(worst_overall, deviation)
            if (ident, slot) != (41, 3):
                worst_rest = max(worst_rest, deviation)
    assert worst_overall < 6e-5
    assert worst_rest < 3e-5


def test_stateless_rows_use_identity_measurements():
    for ident in STATELESS_IDS:
        record = fixture_record(ident)
        assert record.state_text is None
        solution = fixture_solution(ident)
        assert solution.value == pytest.approx(record.maximum, abs=1e-12)


def test_fixture_solution_is_self_consistent():
    for ident in (3, 7, 23, 41):
        solution = fixture_solution(ident)
        expr = catalog_entry(ident).expression
        assert abs(evaluate_solution(expr, solution) - solution.value) < 1e-10


def test_fixture_values_spot_checks():
    assert fixture_solution(7).value == pytest.approx(20 / 3, abs=1e-12)
    assert fixture_solution(18).value == pytest.approx(2 * (7 - math.sqrt(17)), abs=1e-12)
    assert fixture_solution(23).value == pytest.approx(
        1.5 * (math.sqrt(17) - 1), abs=1e-12)
    assert fixture_solution(26).value == pytest.approx(1 + 4 * math.sqrt(3), abs=1e-12)


def test_expected_values_bundle():
    record = fixture_record(26)
    profile = record.profile
    assert record.maximum == pytest.approx(1 + 4 * math.sqrt(3), abs=1e-12)
    assert profile.negativity == pytest.approx(0.942809, abs=1e-6)
    assert profile.concurrences == (profile.c_ab, profile.c_ac, profile.c_bc)
    assert profile.incompatibilities == (1.0, 1.0, 1.0)
    assert (profile.entanglement_class, profile.incompatibility_class) == (5, 11)
    assert record.class_pair == (5, 11)


@pytest.mark.parametrize("recipe", [
    "(1/sqrt(2))|0 q>_AB + (1/sqrt(2))|1 1>_AB",
    "__import__('os')|0 0 0>",
    "sqrt(2)|0 0 0> + 1|1 1 1>",
    "junk(2)|0 0 0>",
    "(1/sqrt(2))|0 0 0> | (1/sqrt(2))|1 1 1>",
    "(1/sqrt(2))|0 0 0> + (1/sqrt(2))|1 1 1>>",
    "(1/sqrt(2))|0 0>_XY + (1/sqrt(2))|1 1>_AB",
    "|0 0 0>",
    "0.5",
])
def test_damaged_recipes_are_rejected(recipe):
    with pytest.raises(FixtureIntegrityError):
        _parse_state(recipe)


def test_class_tolerance_overrides():
    assert fixture_record(36).entanglement_tol == 1e-6
    assert fixture_record(26).entanglement_tol == DEFAULT_CLASS_TOL
    assert fixture_record(26).incompatibility_tol == INCOMPATIBILITY_CLASS_TOL


def test_table_checksum_guard(monkeypatch):
    import tribell.fixtures as mod

    load_reference_table.cache_clear()
    monkeypatch.setattr(mod, "_TABLE_CRC32", "0" * 8)
    try:
        with pytest.raises(FixtureIntegrityError):
            load_reference_table()
    finally:
        load_reference_table.cache_clear()


def test_profile_classes_must_equal_the_class_pair(damaged_class_pair):
    with pytest.raises(FixtureIntegrityError, match=f"^{re.escape(damaged_class_pair)}$"):
        load_reference_table()
