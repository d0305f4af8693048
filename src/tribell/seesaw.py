"""Variational maximization of Bell expressions over three-qubit strategies.

The optimizer alternates two exact coordinate updates: the state step
replaces the state by the top eigenvector of the current Bell operator,
and the observable step replaces a measurement by the best choice in
``{+identity, -identity} ∪ {n . sigma}`` while everything else is held
fixed. A party's two settings do not interact, so the batched runs update
both at once. Both steps are closed-form, so every sweep is monotone in
the objective up to floating-point noise.

Restarts are independent: restart ``i`` draws its initial state and Bloch
vectors from a stream derived from ``(master_seed, i)``, so results do
not depend on execution order. The draws do not depend on the expression:
each set of streams is drawn once, in the same order, and shared.

Every restart runs in one pool of ``_POOL_WIDTH`` slots that advance in
lock step through vectorized sweeps. :func:`quantum_maxima` (which
``tables`` calls once for the whole catalog) queues the restarts of all
its expressions in (expression, restart) order; each carries its
expression's coefficient tensor and monotonicity slack and the pool
sweep it entered at. A restart leaves when its sweep improvement drops
below the tolerance or at ``max_sweeps``, and the queue refills its
slot. Each expression's solution is built once the whole pool has
finished. Every kernel call treats each restart on its own, so a
restart's path is the same bit for bit whatever else is in the pool:
:func:`quantum_maximum` and :func:`seesaw_run` are pools of one
expression. A full pool spreads numpy's per-call overhead thin; what is
left is mostly the 8x8 ``eigh`` of each live restart. The pool is 255
slots wide, the widest whose per-sweep arrays (64 float64 per restart)
stay under glibc's default 128 KiB mmap threshold, so malloc serves them
from the heap instead of mapping fresh pages that the kernel faults in
again; the width does not change the solutions. Much narrower pools pay
more of numpy's per-call overhead again. A sweep's bookkeeping (writing
results, refilling the pool, failing rows) runs only when a restart
leaves or a step lowers a value. The pool leaves the BLAS thread count
as it finds it: its calls are too small for OpenBLAS to thread, so the
solutions do not depend on the count the environment asks for.

A large pool runs as ``k`` shares, one process each: ``k`` is the number
of usable CPUs, but at most the number of whole pools the entries fill
and at most the restart count, and 1 where ``os.fork`` is missing. Share
``j`` takes a contiguous block of every row's restart indices. Every
restart writes its results in place, at its (restart, row) position in
arrays that the calling process maps as shared memory before it forks,
so nothing is sent between processes. The arrays are restart-major, so
each share writes one contiguous block of each. With one share the
calling process runs the pool itself; with more, children made with
``os.fork`` run every share and the calling process only waits for them,
in share order. A child keeps the heap memory its sweeps free (see
``_keep_heap``). Each row's best restart is then chosen from the arrays,
and a restart's path does not depend on what else is in its pool, so the
solutions and restart statistics do not depend on ``k``. The calling
process reads every restart's value, sweep count and convergence flag,
but only the winner's state and rows. Ties go to the lowest restart
index and a row's best value is mostly reached by many restarts, so the
winners sit near the start of the restart axis, and the calling process
maps only the few pages of the state and row arrays around them. The
shares are processes, not threads: a sweep is many small numpy calls
that hold the interpreter lock, so threads would mostly take turns.

Both steps work in the real Pauli basis (see :mod:`tribell.qcore`): each
measurement is a row ``(r0, rx, ry, rz)``, the state step diagonalizes the
Bell operators built from the rows, and the observable steps read every
slot's trace and gradient off the state's correlation tensor.

The batched runs fix a real gauge. Two unit vectors ``a, b`` can be
rotated together onto ``(1, 0, 0)`` and ``(a.b, 0, |a x b|)``, and a
rotation of one party's Bloch vectors is a local unitary, which changes no
value (Masanes, quant-ph/0512100: qubits with real measurements suffice
for two dichotomic observables per site). After its draws, each restart's
six vectors are rotated this way, party by party. Every row then has
``ry = 0``, so the Bell operators are real symmetric, the top
eigenvectors real, and the optimal Bloch vectors stay in the x-z plane:
past the starting value, a run is real arithmetic with the same values
sweep by sweep. The solutions it returns are real states with x-z
measurements, one representative of their class under local unitaries.

The state step has one rule, in the batches and in :func:`best_state`:
the top eigenvector from ``eigh``, its largest-magnitude amplitude made
real and positive. In a degenerate top eigenspace that vector, and so a
run's path, depends on rounding and may differ from an un-rotated run.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import mmap
import os
import signal
import traceback
from dataclasses import dataclass

import numpy as np

from .bell_expr import BellExpression
from .qcore import (
    Observable,
    PureState,
    _open_party,
    _operators,
    _response,
    bell_operator,
    correlations,
    expectation,
    observable_rows,
    slot_response,
)

__all__ = [
    "SeesawParams",
    "Solution",
    "best_observable",
    "best_state",
    "evaluate_solution",
    "quantum_maxima",
    "quantum_maximum",
    "seesaw_run",
]

_TIE_TOL = 1e-12
# A slot whose gradient is shorter than this has no usable Bloch direction.
_GRADIENT_TOL = 1e-14
_MONOTONE_SLACK = 1e-9
# Restart values that differ by rounding alone tie, relative to the scale of
# the expression: the top eigenvalue of an 8x8 operator of norm up to the
# scale carries an error of about 8 eps times the scale, twice that between
# two restarts. Restarts that stopped on the convergence tolerance short of
# the maximum can sit 30 to 150 eps times the scale below it and do not tie.
_VALUE_TIE_TOL = 16 * np.finfo(float).eps
# Restarts in flight at once, over all rows. Each numpy call of a sweep
# sees this many restarts, which spreads its overhead thin. A sweep's
# largest arrays hold 64 float64 per restart (Pauli weights, Bell
# operators, eigenvectors, outer products, correlation tensors). glibc's
# malloc maps a request of its mmap threshold (128 KiB by default) or
# more, chunk header included, afresh, and the kernel faults its pages
# in again on every sweep. The widest pool whose arrays stay on the heap
# is one slot short of the threshold's worth of such rows: 255.
_MMAP_THRESHOLD = 128 * 1024
_POOL_WIDTH = _MMAP_THRESHOLD // (64 * np.dtype(float).itemsize) - 1
# What a restart leaves behind: name -> (shape per restart, dtype). A pool
# over m rows of r restarts fills an (r, m, *shape) array of each,
# restart-major, so a block of restarts is a contiguous block of memory.
_RESULTS = {"states": ((8,), float), "rows": ((6, 4), float), "values": ((), float),
            "sweeps": ((), int), "converged": ((), bool)}
# glibc's mallopt parameter: the free space at the top of the heap above
# which free() returns memory to the kernel.
_M_TRIM_THRESHOLD = -1
# The steps whose decrease fails a row, in the order they run in a sweep;
# a row's failure code is its step's position here plus one.
_STEPS = ("state", "observable")


@dataclass(frozen=True)
class SeesawParams:
    restarts: int = 200
    max_sweeps: int = 500
    convergence_tol: float = 1e-12
    master_seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_sweeps < 1:
            raise ValueError("restarts and max_sweeps must be positive")
        # Written so that NaN fails too.
        if not 0.0 < self.convergence_tol < math.inf:
            raise ValueError("convergence_tol must be finite and positive")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")


@dataclass(frozen=True)
class Solution:
    state: PureState
    measurements: tuple[Observable, ...]
    value: float
    sweeps_used: int
    restart_index: int
    value_trace: tuple[float, ...] | None = None
    # Batch-wide restart statistics: restarts that stopped at max_sweeps
    # without converging, restarts within the monotonicity slack of the best
    # value, and the median number of sweeps per restart.
    capped_restarts: int = 0
    hits: int = 0
    median_sweeps: float = 0.0


def best_state(expr: BellExpression, observables) -> tuple[float, PureState]:
    """Optimal state for fixed measurements: top eigenpair of the operator."""
    values, states = _state_step(expr.tensor().astype(float), observable_rows(observables)[None])
    return float(values[0]), PureState(states[0])


def best_observable(expr: BellExpression, state: PureState, observables, slot: int):
    """Optimal observable for one slot with everything else fixed.

    ``slot`` indexes the six measurements in order (A, a, B, b, C, c).
    Returns the achieved value and the new observable. When the value
    does not depend on the slot, the incumbent is kept.
    """
    if not 0 <= slot < 6:
        raise ValueError("slot must lie in 0..5")
    observables = tuple(observables)
    party, setting = divmod(slot, 2)
    rows = observable_rows(observables)[None]
    tensor = expr.tensor().astype(float)
    response = slot_response(tensor, rows, correlations(state.amplitudes[None]), party)
    value = float(_update_settings(rows[:, party], response, slice(setting + 1, setting + 2))[0])
    if np.linalg.norm(response[0, setting + 1]) < _GRADIENT_TOL:
        return value, observables[slot]
    return value, _decode_observable(rows[0, party, setting + 1])


def evaluate_solution(expr: BellExpression, solution: Solution) -> float:
    return expectation(solution.state, bell_operator(expr, solution.measurements))


def seesaw_run(expr: BellExpression, seed: int, params: SeesawParams) -> Solution:
    """One seeded run; the returned solution carries its per-sweep value trace."""
    return _raised(_maxima([expr], _draws(seed, ((),)), params, keep_trace=True)[0])


def quantum_maximum(expr: BellExpression, params: SeesawParams = SeesawParams()) -> Solution:
    """Best of ``params.restarts`` independent seeded runs; ties go to the
    lowest restart index.

    Values within rounding of the best tie, so the winner does not depend
    on the last bits of the arithmetic.
    """
    return _raised(quantum_maxima([expr], params)[0])


def quantum_maxima(exprs, params: SeesawParams = SeesawParams()) -> list[Solution | RuntimeError]:
    """``quantum_maximum`` of each expression, all run through one restart
    pool, split into one process per usable CPU when the pool is large.

    Each entry is the expression's solution, or the RuntimeError of a step
    that decreased the value of one of its restarts: that expression's
    runs stop there, and the others finish. When several shares of the
    pool fail an expression, the error of the lowest share (the one with
    the lowest restart indices) stands. A share's process that ends other
    than with exit status 0 makes the call raise RuntimeError, which names
    the lowest such share.
    """
    keys = tuple((i,) for i in range(params.restarts))
    return _maxima(exprs, _draws(params.master_seed, keys), params, keep_trace=False)


def _raised(result):
    """A pool's entry for one expression: its solution, or its error raised."""
    if isinstance(result, RuntimeError):
        raise result
    return result


def _maxima(exprs, draws, params, keep_trace):
    """One pool over ``exprs``, run as ``_share_count`` shares; each row's
    entry is built once every share has finished.

    Share ``j`` runs a contiguous block ``[lo, hi)`` of every row's
    restart indices and writes their results into the block
    ``array[lo:hi]`` of each shared (restart, row, ...) array, and its
    failure codes into ``failed[j]``. One share runs in the calling
    process; more run in forked children, and the calling process only
    waits. Traces are kept in process only.
    """
    tensors = np.array([expr.tensor() for expr in exprs], dtype=float).reshape(-1, 3, 3, 3)
    restarts = len(draws[1])
    count = 1 if keep_trace else _share_count(len(tensors), restarts)
    out = {key: _shared((restarts, len(tensors), *shape), dtype)
           for key, (shape, dtype) in _RESULTS.items()}
    failed = _shared((count, len(tensors)), np.int8)
    traces = [[[] for _ in range(restarts)] for _ in tensors] if keep_trace else None
    bounds = [restarts * share // count for share in range(count + 1)]
    jobs = [functools.partial(_pool, tensors, tuple(array[lo:hi] for array in draws), params,
                              {key: array[lo:hi] for key, array in out.items()},
                              failed[share], traces)
            for share, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    if count == 1:
        jobs[0]()
    else:
        _forked(jobs)
    results = []
    for row, codes in enumerate(failed.T):
        codes = codes[codes != 0]
        if len(codes):
            results.append(RuntimeError(f"seesaw {_STEPS[codes[0] - 1]} step decreased the value"))
        else:
            results.append(_best_solution(out, row, tensors[row], traces))
    return results


def _shared(shape, dtype):
    """A zeroed array in anonymous shared memory: what a forked child
    writes to it, its parent reads."""
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buffer, dtype=dtype, count=count).reshape(shape)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _share_count(rows: int, restarts: int) -> int:
    """Processes to run a pool of ``rows`` times ``restarts`` entries in:
    one per usable CPU, as long as every share fills the pool at least
    once and holds at least one restart of every row."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cpus(), rows * restarts // _POOL_WIDTH, restarts))


def _forked(jobs):
    """Run each job in a forked child, and wait for the children in order.

    A child leaves only through ``os._exit``, with status 0 once its job
    has returned and 1, its traceback written to fd 2, if the job raised:
    it runs no atexit handler, flushes no stdio buffer inherited from its
    parent and never returns into its caller. The first child, in job
    order, to end otherwise raises RuntimeError naming its share; every
    earlier one has succeeded, so the name does not depend on timing.
    Leaving kills and reaps every child not yet reaped.
    """
    children = {}  # share -> pid, until waitpid has returned for it
    try:
        for share, job in enumerate(jobs):
            pid = os.fork()
            if not pid:
                status = 1
                try:
                    _keep_heap()
                    job()
                    status = 0
                except Exception:
                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(status)
            children[share] = pid
        for share in range(len(jobs)):
            code = os.waitstatus_to_exitcode(os.waitpid(children[share], 0)[1])
            del children[share]
            if code:
                ended = f"exit status {code}" if code > 0 else f"signal {-code}"
                raise RuntimeError(f"seesaw share {share} ended with {ended}")
    finally:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _keep_heap():
    """Have malloc keep this process's freed heap memory instead of
    returning it to the kernel.

    A full sweep frees about 0.5 MB of temporaries at its end. Above
    glibc's default trim threshold of 128 KiB, free() hands the top of the
    heap back to the kernel, and the next sweep faults the same pages in
    again. A share's child runs nothing but its share and then exits, so
    its heap stays at its high-water mark for that long only. A C library
    without ``mallopt`` is left as it is.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)


def _best_solution(out, row, tensor, traces) -> Solution:
    """Row ``row``'s best restart, by the tie rule of ``quantum_maximum``,
    with the statistics of all its restarts.

    ``out`` holds (restart, row, ...) arrays (see ``_RESULTS``). Of
    ``states`` and ``rows`` only the winner's entries are read.
    """
    values, sweeps = out["values"][:, row], out["sweeps"][:, row]
    scale = _scale(tensor)
    best = int(np.argmax(values >= values.max() - _VALUE_TIE_TOL * scale))
    return Solution(
        state=PureState(out["states"][best, row]),
        measurements=tuple(_decode_observable(setting) for setting in out["rows"][best, row]),
        value=float(values[best]),
        sweeps_used=int(sweeps[best]),
        restart_index=best,
        value_trace=None if traces is None else tuple(traces[row][best]),
        capped_restarts=int(np.count_nonzero(~out["converged"][:, row])),
        hits=int(np.count_nonzero(values >= values.max() - _MONOTONE_SLACK * scale)),
        median_sweeps=float(np.median(sweeps)),
    )


def _decode_observable(row) -> Observable:
    if row[0] != 0.0:
        return Observable.identity(1 if row[0] > 0 else -1)
    vec = row[1:] / np.linalg.norm(row[1:])
    return Observable(vector=(float(vec[0]), float(vec[1]), float(vec[2])))


def _scale(tensor) -> float:
    """Size of the values an expression can reach, for relative tolerances."""
    return 1.0 + float(np.abs(tensor).sum())


def _update_settings(party_rows, response, settings=slice(1, 3)):
    """Best rows for some settings of one party of every restart.

    ``party_rows`` and ``response`` are (n, 3, 4): the rows of the party
    and their linear response. The rows of the ``settings`` slice are
    replaced in place, and the new values are returned. The value is
    linear in the party's rows and the response does not depend on them,
    so each setting's choice is the same whether the settings are updated
    together or one after the other. Per setting, Bloch wins ties, then
    +identity; a Bloch incumbent with no usable gradient stays.
    """
    rows = party_rows[:, settings]
    slots = response[:, settings]
    total = np.einsum("nim,nim->n", party_rows, response)
    own = np.einsum("nsm,nsm->ns", rows, slots)
    plus, gradient = slots[:, :, 0], slots[:, :, 1:]
    square = slots * slots
    gnorm = np.sqrt(square[:, :, 1] + square[:, :, 2] + square[:, :, 3])
    usable = gnorm >= _GRADIENT_TOL
    # With no usable gradient, a Bloch incumbent offers its own value and
    # an identity incumbent no Bloch choice at all.
    bloch_value = np.where(usable, gnorm, np.where(rows[:, :, 0] == 0.0, own, -np.inf))
    take_bloch = bloch_value >= np.abs(plus) - _TIE_TOL
    sign = np.where(plus >= -plus - _TIE_TOL, 1.0, -1.0)

    rows[:, :, 0] = np.where(take_bloch, 0.0, sign)
    vectors = rows[:, :, 1:]
    np.copyto(vectors, gradient / np.where(usable, gnorm, 1.0)[:, :, None],
              where=(take_bloch & usable)[:, :, None])
    vectors[~take_bloch] = 0.0
    return total + (np.where(take_bloch, bloch_value, sign * plus) - own).sum(axis=1)


def _real_gauge(rows):
    """Rotate each party's two Bloch vectors in place onto (1, 0, 0) and
    (a.b, 0, |a x b|).

    ``rows`` is (n, 3, 3, 4) and every setting row is a Bloch row. The map
    is a proper rotation per party, so a local unitary carries the old
    Bell operator to the new one and the spectrum is unchanged.
    """
    first, second = rows[:, :, 1, 1:], rows[:, :, 2, 1:]
    dot = np.einsum("npi,npi->np", first, second)
    sine = np.linalg.norm(np.cross(first, second), axis=2)
    rows[:, :, 1:, 1:] = 0.0
    rows[:, :, 1, 1] = 1.0
    rows[:, :, 2, 1] = dot
    rows[:, :, 2, 3] = sine


@functools.lru_cache(maxsize=4)
def _draws(entropy, spawn_keys):
    """Starting moments and real-gauge rows for the streams
    ``SeedSequence(entropy, spawn_key=key)``: read-only and shared by every
    expression, which the draws do not depend on.

    A restart's starting value is its (27,) moments ``<A_i B_j C_k>`` of the
    drawn state and observables, dotted with an expression's coefficients.
    """
    n = len(spawn_keys)
    start = np.empty((n, 8), dtype=complex)
    # Per restart and party: Pauli rows [identity, first, second setting].
    rows = np.zeros((n, 3, 3, 4))
    rows[:, :, 0, 0] = 1.0
    for i, key in enumerate(spawn_keys):
        rng = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=key))
        # Draw order is part of the reproducibility contract: 8 real then
        # 8 imaginary state components, then the six Bloch vectors.
        amp = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        start[i] = amp / np.linalg.norm(amp)
        raw = rng.standard_normal((6, 3))
        rows[i, :, 1:, 1:] = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).reshape(3, 2, 3)
    moments = np.einsum("nia,njb,nkc,nabc->nijk", rows[:, 0], rows[:, 1], rows[:, 2],
                        correlations(start)).reshape(n, 27)
    _real_gauge(rows)
    for array in (moments, rows):
        array.flags.writeable = False
    return moments, rows


def _state_step(tensor, rows, opened=None):
    """Top eigenvalues and eigenvectors of a batch's Bell operators, each
    vector's largest-magnitude amplitude made real and positive.

    ``opened`` is party A's ``_open_party`` contraction of the rows, when
    the caller has it already.
    """
    if opened is None:
        opened = _open_party(tensor, rows, 0)
    eigvals, eigvecs = np.linalg.eigh(_operators(opened, rows))
    states = eigvecs[:, :, -1]
    lead = states[np.arange(len(states)), np.argmax(np.abs(states), axis=1)]
    return eigvals[:, -1], states * (np.abs(lead) / lead)[:, None]


def _sweep(tensor, rows, before, slack):
    """One sweep of a batch of restarts; updates ``rows`` in place.

    Returns the new values, the states, and for the state step and the
    observable steps the restarts whose value that step lowered by more
    than their ``slack``.
    """
    # State step: the rows are x-z, so the operators and states are real.
    # It leaves the rows alone, so party A's contraction serves its
    # observable step too.
    opened = _open_party(tensor, rows, 0)
    value, psi = _state_step(tensor, rows, opened)
    lowered = {"state": value < before - slack, "observable": np.zeros(len(value), dtype=bool)}
    corr = correlations(psi)
    # Observable steps, both settings of a party at once.
    for party in range(3):
        if party:
            opened = _open_party(tensor, rows, party)
        previous, value = value, _update_settings(rows[:, party], _response(opened, corr, party))
        lowered["observable"] |= value < previous - slack
    return value, psi, lowered


def _pool(tensors, draws, params, out, failed, traces):
    """Every row's restarts, run through one pool of ``_POOL_WIDTH`` slots.

    ``tensors`` is an (m, 3, 3, 3) stack of coefficient tensors, and every
    row runs each restart of ``draws``. Restarts enter in (row, restart)
    order and leave on the convergence tolerance or at
    ``params.max_sweeps``; the slots they free are refilled at the start
    of the next sweep. A restart that leaves writes its results to
    ``out[key][restart, row]``: ``out`` holds (restart, row, ...) arrays
    (see ``_RESULTS``), indexed by the restarts of ``draws``. Its value
    after each sweep goes to ``traces[row][restart]`` unless ``traces``
    is None.
    A step that decreases a restart's value sets ``failed[row]``, if it is
    still 0, to the step's code (see ``_STEPS``); that ends the row's
    restarts and no other's.
    """
    moments, gauged = draws
    restarts = len(gauged)
    slack = np.array([_MONOTONE_SLACK * _scale(tensor) for tensor in tensors])
    queue = ((row, i) for row in range(len(tensors)) for i in range(restarts) if not failed[row])
    # The live restarts, contiguous and in entry order. Each carries its
    # row, restart index, tensor, monotonicity slack, rows, value and
    # first sweep: the number of pool sweeps run before it entered.
    live = {"row": np.empty(0, dtype=int), "restart": np.empty(0, dtype=int),
            "tensor": np.empty((0, 3, 3, 3)), "slack": np.empty(0), "rows": np.empty((0, 3, 3, 4)),
            "value": np.empty(0), "first_sweep": np.empty(0, dtype=int)}
    sweep = 0

    while True:
        entering = list(itertools.islice(queue, _POOL_WIDTH - len(live["row"])))
        if entering:
            row, restart = np.array(entering).T
            tensor = tensors[row]
            # The drawn state sets only the starting value; the state step
            # replaces it.
            value = np.einsum("nt,nt->n", moments[restart], tensor.reshape(-1, 27))
            entered = {"row": row, "restart": restart, "tensor": tensor, "slack": slack[row],
                       "rows": gauged[restart], "value": value,
                       "first_sweep": np.full(len(row), sweep)}
            live = {key: np.concatenate((live[key], entered[key])) for key in live}
        if not len(live["row"]):
            return
        # Sweep until a restart converges, reaches max_sweeps or has its
        # value lowered; until then only the values change. The first live
        # restart entered first, so it reaches max_sweeps first.
        while True:
            before = live["value"]
            value, psi, lowered = _sweep(live["tensor"], live["rows"], before, live["slack"])
            live["value"] = value
            sweep += 1
            if traces is not None:
                for row, i, v in zip(live["row"].tolist(), live["restart"].tolist(),
                                     value.tolist()):
                    traces[row][i].append(v)
            done = value - before < params.convergence_tol
            lowering = lowered["state"].any() or lowered["observable"].any()
            if lowering or sweep - live["first_sweep"][0] >= params.max_sweeps or done.any():
                break

        sweeps = sweep - live["first_sweep"]
        leaving = gone = done | (sweeps >= params.max_sweeps)
        if lowering:
            for code, step in enumerate(_STEPS, start=1):
                rows = live["row"][lowered[step]]
                failed[rows[failed[rows] == 0]] = code
            dead = failed[live["row"]] != 0
            leaving, gone = leaving & ~dead, leaving | dead
        at = live["restart"][leaving], live["row"][leaving]
        out["states"][at] = psi[leaving]
        out["rows"][at] = live["rows"][leaving][:, :, 1:].reshape(-1, 6, 4)
        out["values"][at] = value[leaving]
        out["sweeps"][at] = sweeps[leaving]
        out["converged"][at] = done[leaving]
        live = {key: array[~gone] for key, array in live.items()}
