import math

import numpy as np
import pytest

from tribell.bell_expr import catalog_entry, parse_expression
from tribell.qcore import Observable, PureState, bell_operator, expectation, observable_rows
from tribell.seesaw import (
    _VALUE_TIE_TOL,
    SeesawParams,
    Solution,
    _draws,
    _run_batch,
    _scale,
    _state_step,
    best_observable,
    best_state,
    evaluate_solution,
    quantum_maximum,
    seesaw_run,
)

QUICK = SeesawParams(restarts=20, master_seed=0)


def random_observables(gen) -> tuple[Observable, ...]:
    out = []
    for _ in range(6):
        vec = gen.normal(size=3)
        vec /= np.linalg.norm(vec)
        out.append(Observable.from_bloch(*vec, normalize=True))
    return tuple(out)


def test_params_validation():
    with pytest.raises(ValueError):
        SeesawParams(restarts=0)
    with pytest.raises(ValueError):
        SeesawParams(max_sweeps=-1)
    with pytest.raises(ValueError):
        SeesawParams(convergence_tol=0.0)


def test_best_state_is_optimal_for_fixed_observables():
    gen = np.random.default_rng(3)
    expr = catalog_entry(7).expression
    observables = random_observables(gen)
    value, state = best_state(expr, observables)
    operator = bell_operator(expr, observables)
    assert abs(expectation(state, operator) - value) < 1e-10
    for _ in range(20):
        other = PureState.from_vector(
            gen.normal(size=8) + 1j * gen.normal(size=8), normalize=True)
        assert expectation(other, operator) <= value + 1e-10


def test_best_state_of_xz_observables_is_the_state_step():
    gen = np.random.default_rng(4)
    expr = catalog_entry(7).expression
    observables = tuple(Observable.from_bloch(x, 0.0, z, normalize=True)
                        for x, _, z in gen.normal(size=(6, 3)))
    value, state = best_state(expr, observables)
    values, states = _state_step(expr.tensor().astype(float), observable_rows(observables)[None])
    assert states.dtype == np.float64
    assert value == values[0]
    assert np.array_equal(state.amplitudes, states[0])


def test_best_observable_does_not_decrease_value():
    gen = np.random.default_rng(5)
    expr = catalog_entry(5).expression
    observables = list(random_observables(gen))
    state = PureState.from_vector(gen.normal(size=8) + 1j * gen.normal(size=8),
                                  normalize=True)
    for slot in range(6):
        before = expectation(state, bell_operator(expr, tuple(observables)))
        value, updated = best_observable(expr, state, tuple(observables), slot)
        observables[slot] = updated
        after = expectation(state, bell_operator(expr, tuple(observables)))
        assert after >= before - 1e-10
        assert abs(after - value) < 1e-10
        if not updated.is_identity:
            assert abs(np.linalg.norm(updated.vector) - 1) < 1e-12


def test_run_traces_are_monotone():
    for ident in (2, 5, 23, 41):
        expr = catalog_entry(ident).expression
        for seed in range(4):
            solution = seesaw_run(expr, seed, QUICK)
            trace = solution.value_trace
            assert trace, "a run must record its sweep values"
            assert all(b >= a - 1e-10 for a, b in zip(trace, trace[1:]))
            assert solution.sweeps_used <= QUICK.max_sweeps


def test_solution_value_matches_its_own_evaluation():
    for ident in (3, 8, 26):
        expr = catalog_entry(ident).expression
        solution = quantum_maximum(expr, QUICK)
        assert abs(evaluate_solution(expr, solution) - solution.value) < 1e-10


def test_quantum_maximum_reproducible_bit_for_bit():
    expr = catalog_entry(2).expression
    params = SeesawParams(restarts=30, master_seed=7)
    one = quantum_maximum(expr, params)
    two = quantum_maximum(expr, params)
    assert one.value == two.value
    assert np.array_equal(one.state.amplitudes, two.state.amplitudes)
    assert one.restart_index == two.restart_index
    for obs_a, obs_b in zip(one.measurements, two.measurements):
        assert obs_a.is_identity == obs_b.is_identity
        if not obs_a.is_identity:
            assert np.array_equal(np.asarray(obs_a.vector), np.asarray(obs_b.vector))


def _fingerprint(solution: Solution):
    return (solution.value, solution.restart_index, solution.sweeps_used,
            solution.capped_restarts, solution.state.amplitudes.tobytes(), solution.measurements)


def test_draw_cache_does_not_leak_between_calls():
    """The draws are shared by every expression; a run must leave them as it
    found them, and they cannot be written to."""
    a, b = catalog_entry(5).expression, catalog_entry(26).expression
    first = quantum_maximum(a, QUICK)
    quantum_maximum(b, QUICK)
    assert _fingerprint(quantum_maximum(a, QUICK)) == _fingerprint(first)
    quantum_maximum(b, SeesawParams(restarts=12, master_seed=4))
    assert _fingerprint(quantum_maximum(a, QUICK)) == _fingerprint(first)
    for array in _draws(QUICK.master_seed, ((0,),)):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_restart_alone_equals_restart_in_batch():
    """Restarts that converge leave the live batch; the others must still
    follow the path their stream takes in a batch of one."""
    params = SeesawParams(restarts=40, master_seed=0)
    keys = tuple((i,) for i in range(params.restarts))
    for ident in (2, 5, 17, 26, 41):
        tensor = catalog_entry(ident).expression.tensor().astype(float)
        batch = _run_batch(tensor, _draws(params.master_seed, keys), params, keep_trace=False)
        for i in (0, 7, 39):
            alone = _run_batch(tensor, _draws(params.master_seed, (keys[i],)), params,
                               keep_trace=False)
            assert alone["sweeps"][0] == batch["sweeps"][i]
            assert alone["converged"][0] == batch["converged"][i]
            assert abs(alone["values"][0] - batch["values"][i]) <= _VALUE_TIE_TOL * _scale(tensor)


def test_different_seeds_explore_different_starts():
    expr = catalog_entry(22).expression
    a = seesaw_run(expr, 0, QUICK)
    b = seesaw_run(expr, 1, QUICK)
    assert not np.array_equal(a.state.amplitudes, b.state.amplitudes)


def test_quantum_maximum_known_values():
    assert quantum_maximum(catalog_entry(3).expression, QUICK).value == pytest.approx(
        2 * math.sqrt(2), abs=1e-7)
    assert quantum_maximum(catalog_entry(2).expression, QUICK).value == pytest.approx(
        4.0, abs=1e-7)
    chsh = parse_expression("AB + Ab + aB - ab")
    assert quantum_maximum(chsh, QUICK).value == pytest.approx(
        2 * math.sqrt(2), abs=1e-7)


def test_quantum_maximum_dominates_local_bound():
    for ident in (1, 4, 10, 46):
        entry = catalog_entry(ident)
        solution = quantum_maximum(entry.expression, QUICK)
        assert solution.value >= entry.local_maximum - 1e-9
        assert 0 <= solution.restart_index < QUICK.restarts


def test_capped_restarts_are_counted():
    """Five of id 17's 200 seed-0 restarts stop at max_sweeps unconverged."""
    solution = quantum_maximum(catalog_entry(17).expression,
                               SeesawParams(restarts=200, master_seed=0))
    assert solution.capped_restarts == 5
    assert quantum_maximum(catalog_entry(2).expression, QUICK).capped_restarts == 0


def test_ties_go_to_the_lowest_restart_index():
    """All 200 seed-0 restarts of id 10 reach the maximum within rounding,
    so the first restart wins. Of id 43's first 40, restarts 21, 25, 33, 35
    and 38 converge within rounding of each other; the restarts that stop
    on the convergence tolerance 2e-13 and more below them do not tie."""
    ten = quantum_maximum(catalog_entry(10).expression, SeesawParams(restarts=200, master_seed=0))
    assert ten.restart_index == 0
    forty_three = quantum_maximum(catalog_entry(43).expression,
                                  SeesawParams(restarts=40, master_seed=0))
    assert forty_three.restart_index == 21


def _complex_replay(expr, seed: int, sweeps: int) -> list[float]:
    """``seesaw_run``'s seeded draws, advanced by the general complex steps:
    ``best_state``, then ``best_observable`` slot by slot."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rng.standard_normal(8)  # the starting state's real and imaginary parts,
    rng.standard_normal(8)  # which the first state step replaces
    observables = [Observable.from_bloch(*vec, normalize=True)
                   for vec in rng.standard_normal((6, 3))]
    trace = []
    for _ in range(sweeps):
        _, state = best_state(expr, observables)
        for slot in range(6):
            value, observables[slot] = best_observable(expr, state, observables, slot)
        trace.append(value)
    return trace


def test_real_gauge_follows_the_complex_trajectory():
    """The batched runs rotate each party's Bloch vectors into the x-z plane
    and work in real arithmetic; sweep by sweep their values are those of
    the un-rotated complex path. Ids with a simple top eigenvalue only: in
    a degenerate top eigenspace the two paths may pick different vectors."""
    for ident in (5, 17, 26, 41):
        expr = catalog_entry(ident).expression
        for seed in (0, 1):
            trace = seesaw_run(expr, seed, QUICK).value_trace
            replay = _complex_replay(expr, seed, len(trace))
            assert np.max(np.abs(np.subtract(replay, trace))) < 1e-10


def test_solutions_are_real_with_xz_measurements():
    for ident in (2, 10, 23, 43):
        expr = catalog_entry(ident).expression
        for solution in (quantum_maximum(expr, QUICK), seesaw_run(expr, 3, QUICK)):
            assert np.all(solution.state.amplitudes.imag == 0.0)
            for obs in solution.measurements:
                assert obs.is_identity or obs.vector[1] == 0.0


def test_evaluate_solution_on_handmade_solution():
    # <A> on |0..> with A = sigma_z is 1.
    expr = parse_expression("A")
    state = PureState.from_vector(np.eye(8)[0])
    measurements = (Observable.from_bloch(0, 0, 1),) + tuple(
        Observable.identity(1) for _ in range(5))
    solution = Solution(state=state, measurements=measurements, value=1.0,
                        sweeps_used=0, restart_index=0)
    assert evaluate_solution(expr, solution) == pytest.approx(1.0, abs=1e-12)
