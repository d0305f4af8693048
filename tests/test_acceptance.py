"""Acceptance gate: one test per criterion, tolerances as stated.

Run with ``pytest -v tests/test_acceptance.py`` to get the per-criterion
pass/fail lines. The 200-restart seesaw pass and the certification-grade
moment-matrix survey are session fixtures shared across criteria.
"""

import itertools
import math
import time

import numpy as np
import pytest

from tribell.bell_expr import (
    CATALOG_IDS,
    BellExpression,
    catalog_entry,
    format_expression,
    load_catalog,
    local_bound,
    parse_expression,
    substitute_identity,
)
from tribell.fixtures import (
    AQ_ANOMALY_IDS,
    AQ_TOL,
    fixture_record,
    fixture_solution,
)
from tribell.monotones import classify_incompatibility, entanglement_profile
from tribell.npa import npa_upper_bound
from tribell.qcore import PureState, partial_transpose
from tribell.seesaw import SeesawParams, evaluate_solution, quantum_maximum, seesaw_run

from conftest import CERTIFY_SDP, CLOSED_FORM


def test_criterion_1_local_bounds_exact_and_fast():
    started = time.perf_counter()
    for entry in load_catalog():
        bound, strategy = local_bound(entry.expression)
        assert bound == entry.local_maximum, f"id {entry.id}"
        assert len(strategy) == 6
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"local bounds took {elapsed:.2f} s"


def test_criterion_2_closed_form_maxima(full_seesaw):
    solutions, elapsed = full_seesaw
    assert elapsed < 300.0, f"full catalog seesaw took {elapsed:.1f} s"
    for ident, value in CLOSED_FORM.items():
        record = fixture_record(ident)
        assert record.maximum == pytest.approx(value, abs=1e-12), f"id {ident} row"
    for ident in CATALOG_IDS:
        record = fixture_record(ident)
        if record.kind != "closed":
            continue
        got = solutions[ident].value
        assert got == pytest.approx(record.maximum, abs=1e-7), (
            f"id {ident}: seesaw {got!r} vs closed form {record.maximum!r}")


def test_criterion_3_decimal_maxima(full_seesaw):
    solutions, _ = full_seesaw
    quoted = {16: 6.12883, 22: 6.19794, 42: 13.0471}
    for ident, printed in quoted.items():
        assert fixture_record(ident).maximum == pytest.approx(printed, abs=5e-6)
    for ident in CATALOG_IDS:
        record = fixture_record(ident)
        if record.kind != "decimal":
            continue
        got = solutions[ident].value
        assert got == pytest.approx(record.maximum, abs=5e-4), (
            f"id {ident}: seesaw {got!r} vs printed {record.maximum!r}")


def test_criterion_4_fixture_evaluation():
    for ident in CATALOG_IDS:
        record = fixture_record(ident)
        solution = fixture_solution(ident)
        expr = catalog_entry(ident).expression
        value = evaluate_solution(expr, solution)
        tol = 1e-9 if record.kind == "closed" else 2e-3
        assert value == pytest.approx(record.maximum, abs=tol), (
            f"id {ident}: fixture evaluates to {value!r}, row says {record.maximum!r}")


def test_criterion_5_monotone_reproduction():
    for ident in CATALOG_IDS:
        record = fixture_record(ident)
        solution = fixture_solution(ident)
        expected = record.profile
        profile = entanglement_profile(solution.state, tol=record.entanglement_tol)
        inc = classify_incompatibility(solution.measurements, tol=record.incompatibility_tol)
        got = (profile.n_abc, profile.c_ab, profile.c_ac, profile.c_bc,
               inc.i_a, inc.i_b, inc.i_c)
        want = (expected.negativity, *expected.concurrences,
                *expected.incompatibilities)
        for k, (g, w) in enumerate(zip(got, want)):
            assert g == pytest.approx(w, abs=2e-3), f"id {ident} quantity {k}"
        assert (profile.class_id, inc.class_id) == record.class_pair, f"id {ident}"


def test_criterion_6_moment_matrix_anomalies(npa_survey):
    bound_23, seconds_23 = npa_survey[(23, "AQ")]
    bound_41, seconds_41 = npa_survey[(41, "AQ")]
    assert bound_23 == pytest.approx(4.7754, abs=2e-3)
    assert bound_41 == pytest.approx(10.3735, abs=2e-3)
    assert seconds_23 < 60.0 and seconds_41 < 60.0

    bipartite = substitute_identity(catalog_entry(23).expression, 3, 1, 1)
    started = time.perf_counter()
    bound = npa_upper_bound(bipartite, "AQ", CERTIFY_SDP)
    elapsed = time.perf_counter() - started
    assert bound == pytest.approx(1.5 * (math.sqrt(17) - 1), abs=2e-3)
    assert elapsed < 60.0, f"bipartite AQ solve took {elapsed:.1f} s"


def test_criterion_7_sandwich_and_level_monotonicity(full_seesaw, npa_survey):
    solutions, _ = full_seesaw
    for ident in CATALOG_IDS:
        seesaw_value = solutions[ident].value
        aq, seconds_aq = npa_survey[(ident, "AQ")]
        one_ab, seconds_ab = npa_survey[(ident, "1+AB")]
        assert seconds_aq < 60.0 and seconds_ab < 60.0, f"id {ident}"
        assert seesaw_value - 1e-6 <= aq, (
            f"id {ident}: AQ {aq!r} below seesaw {seesaw_value!r}")
        assert aq <= one_ab + 1e-7, (
            f"id {ident}: AQ {aq!r} above 1+AB {one_ab!r}")
        record = fixture_record(ident)
        if record.kind == "closed" and ident not in AQ_ANOMALY_IDS:
            assert aq == pytest.approx(record.maximum, abs=AQ_TOL), f"id {ident}"


def test_criterion_8a_local_unitary_invariance():
    gen = np.random.default_rng(2026)

    def random_unitary():
        mat = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
        q, r = np.linalg.qr(mat)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    for _ in range(100):
        state = PureState.from_vector(
            gen.normal(size=8) + 1j * gen.normal(size=8), normalize=True)
        full = np.kron(np.kron(random_unitary(), random_unitary()), random_unitary())
        rotated = PureState.from_vector(full @ state.amplitudes, normalize=True)
        before = entanglement_profile(state)
        after = entanglement_profile(rotated)
        for got, want in zip(
                (after.n_abc, after.c_ab, after.c_ac, after.c_bc),
                (before.n_abc, before.c_ab, before.c_ac, before.c_bc)):
            assert abs(got - want) < 1e-9


def test_criterion_8b_parser_round_trip():
    for entry in load_catalog():
        again = parse_expression(format_expression(entry.expression))
        assert dict(again.coeffs) == dict(entry.expression.coeffs)
        assert dict(parse_expression(entry.source).coeffs) == dict(entry.expression.coeffs)
    gen = np.random.default_rng(99)
    terms = [t for t in itertools.product(range(3), repeat=3) if t != (0, 0, 0)]
    for _ in range(1000):
        count = int(gen.integers(1, len(terms) + 1))
        picks = gen.choice(len(terms), size=count, replace=False)
        coeffs = {}
        for pick in picks:
            coeff = int(gen.integers(-9, 10))
            if coeff:
                coeffs[terms[pick]] = coeff
        expr = BellExpression(coeffs)
        again = parse_expression(format_expression(expr))
        assert dict(again.coeffs) == coeffs


def test_criterion_8c_partial_transpose_involution_and_trace():
    gen = np.random.default_rng(512)
    for _ in range(100):
        qubits = int(gen.integers(2, 4))
        dim = 2 ** qubits
        mat = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        rho = mat @ mat.conj().T
        rho /= np.trace(rho).real
        subsystem = int(gen.integers(0, qubits))
        pt = partial_transpose(rho, subsystem)
        assert np.max(np.abs(partial_transpose(pt, subsystem) - rho)) < 1e-13
        assert abs(np.trace(pt) - np.trace(rho)) < 1e-13


def test_criterion_8d_seesaw_sweep_monotonicity():
    params = SeesawParams(restarts=1, master_seed=0)
    for ident in CATALOG_IDS:
        expr = catalog_entry(ident).expression
        for seed in range(3):
            trace = seesaw_run(expr, seed, params).value_trace
            assert trace
            assert all(b >= a - 1e-10 for a, b in zip(trace, trace[1:])), (
                f"id {ident} seed {seed}: non-monotone sweep trace")


def test_criterion_8e_qmax_bit_reproducibility():
    params = SeesawParams(restarts=50, master_seed=123)
    expr = catalog_entry(22).expression
    one = quantum_maximum(expr, params)
    two = quantum_maximum(expr, params)
    assert one.value == two.value
    assert np.array_equal(one.state.amplitudes, two.state.amplitudes)
    assert one.restart_index == two.restart_index
    assert one.sweeps_used == two.sweeps_used
    for obs_a, obs_b in zip(one.measurements, two.measurements):
        assert obs_a.is_identity == obs_b.is_identity
        if not obs_a.is_identity:
            assert tuple(obs_a.vector) == tuple(obs_b.vector)
