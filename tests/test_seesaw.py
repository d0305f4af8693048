import itertools
import math
import os
import platform
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tribell.bell_expr import CATALOG_IDS, catalog_entry, parse_expression
from tribell.qcore import (
    Observable,
    PureState,
    _open_party,
    bell_operator,
    expectation,
    observable_rows,
)
from tribell.seesaw import (
    _MONOTONE_SLACK,
    _VALUE_TIE_TOL,
    SeesawParams,
    Solution,
    _draws,
    _pool,
    _scale,
    _state_step,
    best_observable,
    best_state,
    evaluate_solution,
    quantum_maxima,
    quantum_maximum,
    seesaw_run,
)
from tribell import npa, seesaw

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
    with pytest.raises(ValueError):
        SeesawParams(convergence_tol=float("nan"))
    with pytest.raises(ValueError):
        SeesawParams(convergence_tol=float("inf"))
    with pytest.raises(ValueError):
        SeesawParams(master_seed=-1)
    # Counts and the seed are integers, the tolerance a real number; bool is neither.
    for bad in ({"restarts": 2.5}, {"max_sweeps": 2.5}, {"master_seed": 1.5},
                {"restarts": True}, {"max_sweeps": True}, {"master_seed": False},
                {"convergence_tol": True}, {"convergence_tol": "1e-12"}):
        with pytest.raises(ValueError):
            SeesawParams(**bad)


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
    rows = observable_rows(observables)[None]
    values, states = _state_step(_open_party(expr.tensor()[None].astype(float), rows, 0), rows)
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


# One slot each: the incumbent row, the slot's response (trace term, then
# gradient), the row the observable step picks and the value it reaches.
BLOCH, PLUS, MINUS = (0.0, 0.6, 0.0, 0.8), (1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0)
SLOT_RULES = [
    # A Bloch incumbent with no usable gradient is kept, unless an identity
    # does better.
    (BLOCH, (0.0, 0.0, 0.0, 0.0), BLOCH, 0.0),
    (BLOCH, (0.0, 1e-15, 0.0, 0.0), BLOCH, 0.6e-15),
    (BLOCH, (0.5, 0.0, 0.0, 0.0), PLUS, 0.5),
    (BLOCH, (-0.5, 0.0, 0.0, 0.0), MINUS, 0.5),
    # An identity incumbent with none becomes +-identity by the sign of its
    # trace term, + within _TIE_TOL.
    (PLUS, (0.0, 0.0, 0.0, 0.0), PLUS, 0.0),
    (MINUS, (0.0, 1e-15, 0.0, 0.0), PLUS, 0.0),
    (PLUS, (-0.3, 0.0, 0.0, 0.0), MINUS, 0.3),
    (MINUS, (0.3, 0.0, 0.0, 0.0), PLUS, 0.3),
    (MINUS, (-4e-13, 0.0, 0.0, 0.0), PLUS, -4e-13),
    (PLUS, (-6e-13, 0.0, 0.0, 0.0), MINUS, 6e-13),
    # Bloch wins a tie with identity, within _TIE_TOL, and a usable
    # gradient replaces any incumbent.
    (PLUS, (5.0, 3.0, 0.0, 4.0), BLOCH, 5.0),
    (MINUS, (-5.0, 3.0, 0.0, 4.0), BLOCH, 5.0),
    (PLUS, (5.0 + 5e-13, 3.0, 0.0, 4.0), BLOCH, 5.0),
    (BLOCH, (5.0 + 2e-12, 3.0, 0.0, 4.0), PLUS, 5.0 + 2e-12),
    ((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, -2.0), (0.0, 0.0, 0.0, -1.0), 2.0),
]


def test_observable_step_slot_rules():
    """The observable step's choice for each slot of ``SLOT_RULES``, made in
    both settings of one party at once. The identity row's response is 0,
    so each restart's value is its two slots' values."""
    n = len(SLOT_RULES)
    rows, response = np.zeros((n, 3, 4)), np.zeros((n, 3, 4))
    rows[:, 0, 0] = 1.0
    rows[:, 1:] = np.array([incumbent for incumbent, *_ in SLOT_RULES])[:, None]
    response[:, 1:] = np.array([slot for _, slot, *_ in SLOT_RULES])[:, None]
    values = seesaw._update_settings(rows, response)
    assert np.array_equal(rows[:, 0], np.tile(PLUS, (n, 1)))
    for i, (_, _, picked, value) in enumerate(SLOT_RULES):
        assert rows[i, 1].tolist() == rows[i, 2].tolist() == list(picked), i
        assert values[i] == pytest.approx(2 * value, rel=1e-12, abs=1e-20), i


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


def _run_alone(tensor, draws, params):
    """The per-restart results of one row run through the pool by itself."""
    restarts = len(draws[1])
    out = {key: np.empty((restarts, 1, *shape), dtype)
           for key, (shape, dtype) in seesaw._RESULTS.items()}
    failed = np.zeros(1, dtype=np.int8)
    _pool(tensor[None], draws, params, out, failed, None)
    assert failed[0] == 0
    return {key: array[:, 0] for key, array in out.items()}


def test_restart_alone_equals_restart_in_batch():
    """Restarts that converge leave the pool; the others must still follow
    the path their stream takes in a pool of one. The row's hit count and
    median sweeps follow from its restarts run alone."""
    params = SeesawParams(restarts=40, master_seed=0)
    keys = tuple((i,) for i in range(params.restarts))
    for ident in (2, 5, 17, 26, 41):
        expr = catalog_entry(ident).expression
        tensor = expr.tensor().astype(float)
        batch = _run_alone(tensor, _draws(params.master_seed, keys), params)
        values, sweeps = [], []
        for i, key in enumerate(keys):
            alone = _run_alone(tensor, _draws(params.master_seed, (key,)), params)
            assert alone["sweeps"][0] == batch["sweeps"][i]
            assert alone["converged"][0] == batch["converged"][i]
            assert abs(alone["values"][0] - batch["values"][i]) <= _VALUE_TIE_TOL * _scale(tensor)
            values.append(alone["values"][0])
            sweeps.append(alone["sweeps"][0])
        best = max(values)
        solution = quantum_maximum(expr, params)
        assert solution.hits == sum(v >= best - _MONOTONE_SLACK * _scale(tensor) for v in values)
        assert solution.median_sweeps == np.median(sweeps)


# Id 17 has restarts capped at max_sweeps; 11 and 23 a degenerate top eigenspace.
POOL_IDS = (2, 11, 17, 23, 41)


def _pool_fingerprints(solutions):
    return [_fingerprint(solution) + (solution.hits, solution.median_sweeps)
            for solution in solutions]


def test_pool_equals_each_expression_alone(monkeypatch):
    """One pool over several expressions gives each the solution it gets
    alone, bit for bit, also when a pool of 7 slots refills across rows
    and in a pool of 512 slots: the width changes no bit."""
    params = SeesawParams(restarts=30, max_sweeps=120, master_seed=0)
    exprs = [catalog_entry(ident).expression for ident in POOL_IDS]
    alone = [quantum_maximum(expr, params) for expr in exprs]
    assert alone[POOL_IDS.index(17)].capped_restarts > 0
    assert _pool_fingerprints(quantum_maxima(exprs, params)) == _pool_fingerprints(alone)
    for width in (7, 512):
        monkeypatch.setattr(seesaw, "_POOL_WIDTH", width)
        assert _pool_fingerprints(quantum_maxima(exprs, params)) == _pool_fingerprints(alone)


def test_catalog_pool_stays_small(monkeypatch):
    """The pool's per-sweep arrays stay under malloc's mmap threshold: over
    the catalog at 40 restarts the traced allocation peak is about 0.8 MB,
    against 1.6 MB at 512 slots. The pool runs in this process, on one
    CPU, so that its arrays are traced; the shared result arrays are
    mapped, not allocated, and are not. A one-sweep run first fills the
    draw cache and the kernel table."""
    monkeypatch.setattr(seesaw, "_usable_cpus", lambda: 1)
    exprs = [catalog_entry(ident).expression for ident in CATALOG_IDS]
    quantum_maxima(exprs, SeesawParams(restarts=40, max_sweeps=1, master_seed=0))
    tracemalloc.start()
    try:
        quantum_maxima(exprs, SeesawParams(restarts=40, master_seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap trimming")
def test_a_share_keeps_its_heap():
    """A forked share keeps the heap memory its sweeps free. Over the
    catalog at 60 restarts, two shares fault in about 2,400 pages in all,
    against about 20,000 when each sweep's freed memory goes back to the
    kernel. The pool runs in a fresh interpreter: how much a process's
    malloc trims depends on what the process did before."""
    script = """
import resource
from tribell import seesaw
from tribell.bell_expr import CATALOG_IDS, catalog_entry
seesaw._usable_cpus = lambda: 2
exprs = [catalog_entry(ident).expression for ident in CATALOG_IDS]
before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
seesaw.quantum_maxima(exprs, seesaw.SeesawParams(restarts=60, master_seed=0))
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)
"""
    src = str(Path(seesaw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert int(done.stdout) < 6000


def test_a_decrease_ends_its_row_alone(monkeypatch):
    """A step that decreases one restart's value fails that expression's
    entry; the other expressions finish with their own solutions."""
    params = SeesawParams(restarts=12, master_seed=0)
    exprs = [catalog_entry(ident).expression for ident in (5, 17, 26)]
    expected = [_fingerprint(solution) for solution in quantum_maxima(exprs, params)]
    sweep, state_step, target = seesaw._sweep, seesaw._state_step, exprs[1].tensor()
    tensors = []  # each sweep's batch of tensors

    def noted(tensor, rows, before, slack):
        tensors.append(tensor)
        return sweep(tensor, rows, before, slack)

    def sabotaged(opened, rows):
        values, states = state_step(opened, rows)
        if len(tensors) == 3:
            # One restart of id 17 in the third sweep.
            values[np.flatnonzero(np.all(tensors[-1] == target, axis=(1, 2, 3)))[0]] -= 1.0
        return values, states

    monkeypatch.setattr(seesaw, "_sweep", noted)
    monkeypatch.setattr(seesaw, "_state_step", sabotaged)
    # Ids 5 and 17 share the pool from the start.
    monkeypatch.setattr(seesaw, "_POOL_WIDTH", 24)
    five, seventeen, twenty_six = quantum_maxima(exprs, params)
    assert isinstance(seventeen, RuntimeError)
    assert str(seventeen) == "seesaw state step decreased the value"
    assert [_fingerprint(five), _fingerprint(twenty_six)] == [expected[0], expected[2]]


def test_the_state_step_fails_a_row_first(monkeypatch):
    """When both steps lower restarts of one row in the same sweep, the
    row fails on the state step, which runs first."""
    sweep = seesaw._sweep

    def sabotaged(tensor, rows, before, slack):
        value, psi, lowered = sweep(tensor, rows, before, slack)
        lowered["observable"][0] = lowered["state"][1] = True
        return value, psi, lowered

    monkeypatch.setattr(seesaw, "_sweep", sabotaged)
    (result,) = quantum_maxima([catalog_entry(5).expression], QUICK)
    assert str(result) == "seesaw state step decreased the value"


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_share_count_rule(monkeypatch):
    """One share per usable CPU, as long as every share fills the pool at
    least once and holds a restart of every row; one where ``os.fork`` is
    missing."""
    monkeypatch.setattr(seesaw, "_usable_cpus", lambda: 4)
    assert seesaw._share_count(46, 200) == 4  # tables --restarts 200: 9,200 entries
    assert seesaw._share_count(46, 20) == 3  # 920 entries, 3 pools of 255
    assert seesaw._share_count(46, 5) == 1
    assert seesaw._share_count(1, 200) == 1  # qmax at 200 restarts
    assert seesaw._share_count(1, 1) == 1  # seesaw_run
    assert seesaw._share_count(600, 2) == 2  # at most one share per restart
    monkeypatch.delattr(os, "fork")
    assert seesaw._share_count(46, 200) == 1


def test_usable_cpus_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert seesaw._usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert seesaw._usable_cpus() == 1


def test_share_count_changes_no_bit(monkeypatch):
    """The pool run as 1, 2 or 3 forked shares gives every row the same
    solution and restart statistics, bit for bit, and leaves no process
    behind. Id 17's capped restarts fall into several shares."""
    params = SeesawParams(restarts=30, max_sweeps=120, master_seed=0)
    exprs = [catalog_entry(ident).expression for ident in POOL_IDS]
    monkeypatch.setattr(seesaw, "_POOL_WIDTH", 7)
    found = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(seesaw, "_usable_cpus", lambda: cpus)
        assert seesaw._share_count(len(exprs), params.restarts) == cpus
        found.append(_pool_fingerprints(quantum_maxima(exprs, params)))
        _assert_no_children()
    assert found[1] == found[0]
    assert found[2] == found[0]


def test_share_blocks_are_contiguous_and_disjoint(monkeypatch):
    """The result arrays are (restart, row, ...) and ``failed`` is (share,
    row): share ``j`` of ``k`` gets the contiguous block ``[lo:hi]`` of
    each, with ``lo`` and ``hi`` its restart bounds, and no two shares'
    blocks overlap. The shares' jobs run in this process, in order, so
    that the views their pools receive can be recorded."""
    params = SeesawParams(restarts=12, max_sweeps=20, master_seed=0)
    exprs = [catalog_entry(ident).expression for ident in (5, 17, 26)]
    monkeypatch.setattr(seesaw, "_POOL_WIDTH", 7)
    shared, pool, mapped, received = seesaw._shared, seesaw._pool, [], []

    def recording_shared(shape, dtype):
        mapped.append(shared(shape, dtype))
        return mapped[-1]

    def recording_pool(tensors, draws, params, out, failed, traces):
        received.append((out, failed))
        return pool(tensors, draws, params, out, failed, traces)

    monkeypatch.setattr(seesaw, "_shared", recording_shared)
    monkeypatch.setattr(seesaw, "_pool", recording_pool)
    monkeypatch.setattr(seesaw, "_forked", lambda jobs: [job() for job in jobs])
    for cpus in (2, 3):
        monkeypatch.setattr(seesaw, "_usable_cpus", lambda: cpus)
        mapped.clear()
        received.clear()
        quantum_maxima(exprs, params)
        assert len(received) == cpus
        full = {(array.shape, array.dtype): array for array in mapped}
        arrays = {key: full[(params.restarts, len(exprs), *shape), np.dtype(dtype)]
                  for key, (shape, dtype) in seesaw._RESULTS.items()}
        failed = full[(cpus, len(exprs)), np.dtype(np.int8)]
        views = [{**out, "failed": share_failed} for out, share_failed in received]
        for share, view in enumerate(views):
            lo, hi = params.restarts * share // cpus, params.restarts * (share + 1) // cpus
            blocks = {key: array[lo:hi] for key, array in arrays.items()}
            blocks["failed"] = failed[share]
            assert view.keys() == blocks.keys()
            for key, block in blocks.items():
                assert view[key].flags.c_contiguous
                assert view[key].__array_interface__ == block.__array_interface__
        for first, second in itertools.combinations(views, 2):
            assert not any(np.shares_memory(first[key], second[key]) for key in first)


def _sabotage_shares(monkeypatch, params, target, steps):
    """At its third sweep, the share whose first restart is a key of
    ``steps`` reports that step as lowering one restart of the row whose
    tensor is ``target``. Each share runs in its own process, so each
    keeps its own count."""
    moments = _draws(params.master_seed, tuple((i,) for i in range(params.restarts)))[0]
    pool, sweep = seesaw._pool, seesaw._sweep
    mine = {}

    def share_pool(tensors, draws, *args, **kwargs):
        start = int(np.flatnonzero(np.all(moments == draws[0][0], axis=1))[0])
        mine.update(step=steps.get(start), sweeps=0)
        return pool(tensors, draws, *args, **kwargs)

    def sabotaged(tensor, rows, before, slack):
        value, psi, lowered = sweep(tensor, rows, before, slack)
        mine["sweeps"] += 1
        if mine["step"] and mine["sweeps"] == 3:
            lowered[mine["step"]][np.flatnonzero(np.all(tensor == target, axis=(1, 2, 3)))[0]] = True
        return value, psi, lowered

    monkeypatch.setattr(seesaw, "_pool", share_pool)
    monkeypatch.setattr(seesaw, "_sweep", sabotaged)


@pytest.mark.parametrize("cpus, steps, step", [
    (2, {6: "observable"}, "observable"),
    (3, {4: "observable", 8: "state"}, "observable"),
    (3, {0: "state", 8: "observable"}, "state"),
])
def test_a_decrease_in_any_share_ends_its_row_alone(monkeypatch, cpus, steps, step):
    """A decrease in any share fails that row alone, as one in a pool run
    in process does. When several shares fail a row, the lowest share's
    error stands for it."""
    params = SeesawParams(restarts=12, master_seed=0)
    exprs = [catalog_entry(ident).expression for ident in (5, 17, 26)]
    expected = [_fingerprint(solution) for solution in quantum_maxima(exprs, params)]
    # Every share holds all three rows' restarts from its first sweep.
    monkeypatch.setattr(seesaw, "_POOL_WIDTH", 12)
    monkeypatch.setattr(seesaw, "_usable_cpus", lambda: cpus)
    _sabotage_shares(monkeypatch, params, exprs[1].tensor(), steps)
    five, seventeen, twenty_six = quantum_maxima(exprs, params)
    _assert_no_children()
    assert isinstance(seventeen, RuntimeError)
    assert str(seventeen) == f"seesaw {step} step decreased the value"
    assert [_fingerprint(five), _fingerprint(twenty_six)] == [expected[0], expected[2]]


@pytest.mark.parametrize("dead, named, ended", [
    ((1, 2), 0, "exit status 3"),
    ((2,), 1, "exit status 3"),
    ((2,), 1, "signal 9"),
], ids=["both", "second", "killed"])
def test_a_dead_child_fails_the_call(monkeypatch, dead, named, ended):
    """A child that dies makes the whole call raise, naming how it ended,
    and returns no rows. When several die, the error names the lowest of
    their shares, not the one that dies first: share 0 dies after share
    1."""
    params = SeesawParams(restarts=12, master_seed=0)
    exprs = [catalog_entry(ident).expression for ident in (5, 17, 26)]
    monkeypatch.setattr(seesaw, "_POOL_WIDTH", 12)
    monkeypatch.setattr(seesaw, "_usable_cpus", lambda: 3)
    parent, sweep, fork, forks = os.getpid(), seesaw._sweep, os.fork, []

    def counted_fork():
        # A child's share is the number of forks before its own.
        forks.append(None)
        return fork()

    def dying(*args):
        if os.getpid() != parent and len(forks) in dead:
            if len(forks) == 1:
                time.sleep(0.3)
            if ended.startswith("signal"):
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(3)
        return sweep(*args)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(seesaw, "_sweep", dying)
    with pytest.raises(RuntimeError, match=rf"^seesaw share {named} ended with {ended}$"):
        quantum_maxima(exprs, params)
    _assert_no_children()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_an_error_in_the_parent_share_kills_the_children(monkeypatch, error):
    """An error or interrupt while the parent waits for its children kills
    and reaps every child."""
    params = SeesawParams(restarts=30, master_seed=0)
    exprs = [catalog_entry(ident).expression for ident in POOL_IDS]
    monkeypatch.setattr(seesaw, "_POOL_WIDTH", 7)
    monkeypatch.setattr(seesaw, "_usable_cpus", lambda: 2)
    waitpid, waits = os.waitpid, []

    def failing(*args):
        waits.append(None)
        if len(waits) == 1:
            raise error("in the parent")
        return waitpid(*args)

    monkeypatch.setattr(os, "waitpid", failing)
    with pytest.raises(error, match="in the parent"):
        quantum_maxima(exprs, params)
    _assert_no_children()


def test_a_failed_fork_kills_the_children(monkeypatch):
    """A fork that fails raises its OSError, and the child already made is
    killed and reaped."""
    params = SeesawParams(restarts=30, master_seed=0)
    exprs = [catalog_entry(ident).expression for ident in POOL_IDS]
    monkeypatch.setattr(seesaw, "_POOL_WIDTH", 7)
    monkeypatch.setattr(seesaw, "_usable_cpus", lambda: 3)
    fork, forks = os.fork, []

    def failing_fork():
        forks.append(None)
        if len(forks) == 2:
            raise OSError("no second fork")
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    with pytest.raises(OSError, match="no second fork"):
        quantum_maxima(exprs, params)
    _assert_no_children()


def test_a_child_leaves_only_through_exit():
    """A child runs no atexit handler, flushes no stdout buffer it
    inherited and never returns into its caller, whether its share ends
    or fails."""
    script = """
import atexit, os, sys
from tribell import seesaw
from tribell.bell_expr import catalog_entry
seesaw._POOL_WIDTH = 7
seesaw._usable_cpus = lambda: 2
atexit.register(print, "atexit")
sys.stdout.write("buffered ")
exprs = [catalog_entry(ident).expression for ident in (2, 5)]
params = seesaw.SeesawParams(restarts=20, master_seed=0)
seesaw.quantum_maxima(exprs, params)
parent, sweep, fork, forks = os.getpid(), seesaw._sweep, os.fork, []
def counted_fork():
    forks.append(None)
    return fork()
def failing(*args):
    if os.getpid() != parent and len(forks) == 1:
        raise ValueError("a child's share failed")
    return sweep(*args)
os.fork = counted_fork
seesaw._sweep = failing
try:
    seesaw.quantum_maxima(exprs, params)
except RuntimeError as err:
    print(err)
"""
    src = str(Path(seesaw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout == "buffered seesaw share 0 ended with exit status 1\natexit\n"
    assert done.stderr.count("ValueError: a child's share failed") == 1


def test_pool_does_not_depend_on_the_openblas_thread_count(openblas_at_two_threads):
    """The pool sets no BLAS thread count: its calls are too small for
    OpenBLAS to thread, so the catalog's results are the same bit for bit
    at one thread and at two."""
    exprs = [catalog_entry(ident).expression for ident in CATALOG_IDS]

    def results():
        return [(s.value, s.state.amplitudes.tobytes(),
                 observable_rows(s.measurements).tobytes(), s.sweeps_used, s.restart_index,
                 s.hits, s.median_sweeps, s.capped_restarts)
                for s in quantum_maxima(exprs, QUICK)]

    at_two = results()
    assert openblas_at_two_threads() == 2
    npa._openblas_threads()[1](1)
    assert results() == at_two


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


def test_seed_zero_restart_statistics_of_every_row(full_seesaw):
    """Each row's (hits, median sweeps, capped restarts) at 200 restarts and
    seed 0: the figures the tables report prints, pinned per row, since
    changes in two rows could offset each other in their sums. Id 17 alone
    caps restarts: five, four of which stop 1e-8 to 1e-7 short of the best."""
    solutions, _ = full_seesaw
    hits = [200, 200, 200, 200, 200, 200, 200, 200, 200, 200, 200, 200, 200, 200, 200, 200,
            196, 200, 200, 200, 200, 200, 172, 200, 160, 200, 200, 200, 199, 200, 110, 199,
            200, 177, 186, 200, 200, 200, 200, 200, 148, 200, 168, 200, 200, 61]
    medians = [2.0, 2.0, 2.0, 2.0, 16.0, 6.0, 7.0, 8.0, 5.0, 2.0, 4.0, 26.0, 4.0, 21.0, 11.0,
               16.0, 24.0, 16.0, 30.0, 8.0, 13.0, 10.0, 25.0, 8.0, 25.0, 9.0, 23.0, 8.0, 21.0,
               38.0, 17.0, 14.0, 7.0, 11.0, 25.0, 15.0, 6.5, 5.0, 8.0, 14.0, 68.0, 9.0, 35.0,
               37.0, 11.0, 77.0]
    expected = {i: (h, m, {17: 5}.get(i, 0))
                for i, h, m in zip(CATALOG_IDS, hits, medians, strict=True)}
    found = {i: (s.hits, s.median_sweeps, s.capped_restarts) for i, s in solutions.items()}
    assert found == expected


def test_single_restart_statistics():
    """One restart is its own best, and its sweeps are the median."""
    solution = quantum_maximum(catalog_entry(46).expression, SeesawParams(restarts=1))
    assert solution.hits == 1
    assert solution.median_sweeps == solution.sweeps_used


def test_ties_go_to_the_lowest_restart_index(full_seesaw):
    """All 200 seed-0 restarts of id 10 reach the maximum within rounding,
    so the first restart wins. Of id 43's first 40, restarts 21, 25, 33, 35
    and 38 converge within rounding of each other; the restarts that stop
    on the convergence tolerance 2e-13 and more below them do not tie."""
    solutions, _ = full_seesaw
    assert solutions[10].restart_index == 0
    forty_three = quantum_maximum(catalog_entry(43).expression,
                                  SeesawParams(restarts=40, master_seed=0))
    assert forty_three.restart_index == 21


def test_best_solution_reads_the_winner_alone():
    """``_best_solution`` on hand-built (restart, row) arrays: a value within
    ``_VALUE_TIE_TOL`` times the scale of the maximum at a lower index wins,
    and one just outside it does not; the hits, capped restarts and median
    sweeps come from every restart of the row. Every entry of ``states``
    and ``rows`` but the winner's is NaN, so reading any other shows."""
    tensor = np.zeros((3, 3, 3))
    tensor[1, 2, 0] = 1.0
    scale = _scale(tensor)
    tie, slack = _VALUE_TIE_TOL * scale, _MONOTONE_SLACK * scale
    # Six restarts of two rows. Row 0 differs from row 1 everywhere, so
    # that a read of the wrong row or axis shows.
    out = {"states": np.full((6, 2, 8), np.nan), "rows": np.full((6, 2, 6, 4), np.nan),
           "values": np.array([[5.0, 1 - 1.25 * tie], [5.0, 1 - 0.5 * tie], [5.0, 1.0],
                               [5.0, 1 - 2 * slack], [5.0, 1 - 0.5 * slack], [5.0, 1.0]]),
           "sweeps": np.array([[2, 3], [2, 7], [2, 500], [2, 9], [2, 500], [2, 4]]),
           "converged": np.array([[False, True], [True, True], [True, False],
                                  [True, True], [True, False], [True, True]])}
    state = np.zeros(8)
    state[[0, 7]] = math.sqrt(0.5)
    out["states"][1, 1] = state
    out["rows"][1, 1] = [[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0],
                         [-1, 0, 0, 0], [0, 0.6, 0, 0.8], [0, -1, 0, 0]]
    solution = seesaw._best_solution(out, 1, tensor, None)
    assert solution.restart_index == 1
    assert solution.value == 1 - 0.5 * tie
    assert solution.sweeps_used == 7
    assert np.array_equal(solution.state.amplitudes, state)
    assert solution.measurements == (
        Observable(vector=(1.0, 0.0, 0.0)), Observable(vector=(0.0, 0.0, 1.0)),
        Observable.identity(1), Observable.identity(-1),
        Observable(vector=(0.6, 0.0, 0.8)), Observable(vector=(-1.0, 0.0, 0.0)))
    assert solution.value_trace is None
    # Restart 3 is two slacks below the best; the others are within one.
    assert solution.hits == 5
    assert solution.capped_restarts == 2
    assert solution.median_sweeps == 8.0


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
