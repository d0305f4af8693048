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
expression's coefficient tensor and monotonicity slack and its own sweep
counter. A restart leaves when its sweep improvement drops below the
tolerance or at ``max_sweeps``, and the queue refills its slot. An
expression's solution is built, and its buffers freed, as soon as its
last restart leaves. Every kernel call treats each restart on its own, so
a restart's path is the same bit for bit whatever else is in the pool:
:func:`quantum_maximum` and :func:`seesaw_run` are pools of one
expression. A full pool spreads numpy's per-call overhead thin; what is
left is mostly the 8x8 ``eigh`` of each live restart, more than half of
the catalog's seesaw time. The pool is 255 slots wide, the widest whose
per-sweep arrays (64 float64 per restart) stay under glibc's default
128 KiB mmap threshold, so malloc reuses heap memory for them from sweep
to sweep instead of mapping fresh pages that the kernel faults in again;
the width does not change the solutions. Much narrower pools pay more of
numpy's per-call overhead again. The pool holds OpenBLAS at one thread,
as the moment-matrix solver does, so no call of a sweep depends on the
thread count that the environment asks for.

A large pool runs as ``k`` shares, one process each: ``k`` is the number
of usable CPUs, but at most the number of whole pools the entries fill
and at most the restart count, and 1 where ``os.fork`` is missing. Share
``j`` takes a contiguous block of every row's restart indices. The
calling process runs share 0, and children made with ``os.fork`` run the
others and send each row's results back over a pipe as they finish it.
A row's results are joined in restart order before its best restart is
chosen, and a restart's path does not depend on what else is in its
pool, so the solutions and restart statistics do not depend on ``k``.
The shares are processes, not threads: a sweep is many small numpy
calls that hold the interpreter lock, so threads would mostly take
turns.

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
real and positive. In a degenerate top eigenspace (ids 11-14 and 23) that
vector, and so a run's path, depends on rounding and may differ from an
un-rotated run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import pickle
import selectors
import signal
import traceback
from dataclasses import dataclass

import numpy as np

from .bell_expr import BellExpression
from .qcore import (
    Observable,
    PureState,
    _one_blas_thread,
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
    runs stop there, and the others finish. When that happens in several
    shares of the pool, the error of the share with the lowest restarts
    stands. A share's process that dies makes the call raise RuntimeError.
    """
    keys = tuple((i,) for i in range(params.restarts))
    return _maxima(exprs, _draws(params.master_seed, keys), params, keep_trace=False)


def _raised(result):
    """A pool's entry for one expression: its solution, or its error raised."""
    if isinstance(result, RuntimeError):
        raise result
    return result


@_one_blas_thread
def _maxima(exprs, draws, params, keep_trace):
    """One pool over ``exprs``, run as ``_share_count`` shares; each row's
    entry is built once every share has finished the row.

    Share ``j`` runs a contiguous block of every row's restart indices.
    The calling process runs share 0, and forked children run the others
    and stream their rows back as they finish them.
    """
    tensors = np.array([expr.tensor() for expr in exprs], dtype=float).reshape(-1, 3, 3, 3)
    restarts = len(draws[1])
    count = _share_count(len(tensors), restarts)
    bounds = [restarts * share // count for share in range(count + 1)]
    shares = [tuple(array[lo:hi] for array in draws) for lo, hi in zip(bounds, bounds[1:])]
    parts = [{} for _ in tensors]
    results = [None] * len(tensors)

    def take(received):
        for share, row, run in received:
            parts[row][share] = run
            if len(parts[row]) == count:
                merged = _merge([parts[row][j] for j in range(count)])
                parts[row] = None
                results[row] = merged if isinstance(merged, RuntimeError) else _best_solution(merged)

    with _forked(tensors, shares[1:], params, keep_trace) as received:
        # Rows are read as they arrive, sweep by sweep, so that no child
        # waits on a full pipe while this share runs.
        for row, run in _pool(tensors, shares[0], params, keep_trace,
                              after_sweep=lambda: take(received(block=False))):
            take([(0, row, run)])
        take(received(block=True))
    return results


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


def _merge(parts):
    """A row's run from its shares' runs, joined in restart order. When
    shares failed the row, the lowest share's error stands for it."""
    errors = [part for part in parts if isinstance(part, RuntimeError)]
    if errors:
        return errors[0]
    if len(parts) == 1:
        return parts[0]
    run = dict(parts[0])
    for key in ("states", "rows", "values", "sweeps", "converged"):
        run[key] = np.concatenate([part[key] for part in parts])
    if run["traces"] is not None:
        run["traces"] = [trace for part in parts for trace in part["traces"]]
    return run


@contextlib.contextmanager
def _forked(tensors, shares, params, keep_trace):
    """Run shares 1, 2, ... of a pool in forked children.

    Yields ``received(block)``, which yields ``(share, row, run)`` for
    each row the children have sent: those already in the pipes, or with
    ``block`` every one to come. A child is reaped once its pipe closes,
    and a child that exits other than with status 0 raises RuntimeError.
    Leaving the block kills and reaps every child still running.
    """
    children = {}  # read end of a child's pipe -> [share, pid, unread bytes]
    selector = selectors.DefaultSelector()
    try:
        for share, draws in enumerate(shares, start=1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if not pid:
                for fd in (read, *children):
                    os.close(fd)
                _run_share(write, tensors, draws, params, keep_trace)
            os.close(write)
            children[read] = [share, pid, bytearray()]
        for fd in children:
            selector.register(fd, selectors.EVENT_READ)
        yield functools.partial(_received, selector, children)
    finally:
        selector.close()
        for fd, (_, pid, _) in children.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_share(write, tensors, draws, params, keep_trace):
    """A forked child's whole life: run one share's pool and write each
    finished row to the pipe ``write`` as a length-prefixed pickle.

    The child leaves only through ``os._exit``, with status 0 once every
    row is written: it runs no atexit handler, flushes no stdio buffer
    inherited from its parent and never returns into its caller.
    """
    status = 1
    try:
        with open(write, "wb") as pipe:
            for row, run in _pool(tensors, draws, params, keep_trace):
                frame = pickle.dumps((row, run), protocol=pickle.HIGHEST_PROTOCOL)
                pipe.write(len(frame).to_bytes(8, "little"))
                pipe.write(frame)
        status = 0
    except Exception:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _received(selector, children, block):
    """The rows in the children's pipes; see :func:`_forked`."""
    while children:
        for key, _ in selector.select(None if block else 0):
            share, pid, unread = children[key.fd]
            chunk = os.read(key.fd, 1 << 16)
            unread += chunk
            while len(unread) >= 8:
                end = 8 + int.from_bytes(unread[:8], "little")
                if len(unread) < end:
                    break
                yield (share, *pickle.loads(unread[8:end]))
                del unread[:end]
            if not chunk:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                selector.unregister(key.fd)
                os.close(key.fd)
                del children[key.fd]
                if code:
                    how = f"exit status {code}" if code > 0 else f"signal {-code}"
                    raise RuntimeError(f"seesaw share {share} ended with {how}")
        if not block:
            return


def _best_solution(run) -> Solution:
    """A row's best restart, by the tie rule of ``quantum_maximum``, with
    the statistics of all its restarts."""
    values = run["values"]
    best = int(np.argmax(values >= values.max() - _VALUE_TIE_TOL * run["scale"]))
    return Solution(
        state=PureState(run["states"][best]),
        measurements=tuple(_decode_observable(row) for row in run["rows"][best]),
        value=float(values[best]),
        sweeps_used=int(run["sweeps"][best]),
        restart_index=best,
        value_trace=None if run["traces"] is None else tuple(run["traces"][best]),
        capped_restarts=int(np.count_nonzero(~run["converged"])),
        hits=int(np.count_nonzero(values >= values.max() - run["slack"])),
        median_sweeps=float(np.median(run["sweeps"])),
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
    gnorm = np.sqrt((gradient * gradient).sum(axis=2))
    usable = gnorm >= _GRADIENT_TOL
    keeps = ~usable & (rows[:, :, 0] == 0.0)
    bloch_value = np.where(usable, gnorm, np.where(keeps, own, -np.inf))
    take_bloch = bloch_value >= np.abs(plus) - _TIE_TOL
    take_plus = ~take_bloch & (plus >= -plus - _TIE_TOL)

    new = np.zeros_like(rows)
    new[:, :, 0] = np.where(take_bloch, 0.0, np.where(take_plus, 1.0, -1.0))
    np.divide(gradient, gnorm[:, :, None], out=new[:, :, 1:], where=(take_bloch & usable)[:, :, None])
    rows[...] = np.where((take_bloch & ~usable)[:, :, None], rows, new)
    slot_values = np.where(take_bloch, bloch_value, np.where(take_plus, plus, -plus))
    return total + (slot_values - own).sum(axis=1)


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


def _new_run(tensor, restarts: int, keep_trace: bool) -> dict:
    """Per-restart result buffers of one row, filled as its restarts leave."""
    scale = _scale(tensor)
    return {"states": np.empty((restarts, 8)), "rows": np.empty((restarts, 6, 4)),
            "values": np.empty(restarts), "sweeps": np.empty(restarts, dtype=int),
            "converged": np.empty(restarts, dtype=bool),
            "traces": [[] for _ in range(restarts)] if keep_trace else None,
            "scale": scale, "slack": _MONOTONE_SLACK * scale, "left": restarts}


def _pool(tensors, draws, params, keep_trace, after_sweep=lambda: None):
    """Every row's restarts, run through one pool of ``_POOL_WIDTH`` slots.

    ``tensors`` is an (m, 3, 3, 3) stack of coefficient tensors, and every
    row runs each restart of ``draws``. Restarts enter in (row, restart)
    order and leave on the convergence tolerance or at
    ``params.max_sweeps``; the slots they free are refilled at the start
    of the next sweep. Yields ``(row, run)`` once a row's last restart has
    left: ``run`` holds its per-restart results, or is the RuntimeError of
    a step that decreased one of its restarts' values, which ends that
    row's restarts and no other's. ``after_sweep`` is called after every
    sweep.
    """
    moments, gauged = draws
    restarts = len(gauged)
    runs, failed = {}, {}
    queue = ((row, i) for row in range(len(tensors)) for i in range(restarts)
             if row not in failed)
    # The live restarts, contiguous and in entry order. Each carries its
    # row, restart index, tensor, monotonicity slack, rows, value and
    # sweep count.
    live = {"row": np.empty(0, dtype=int), "restart": np.empty(0, dtype=int),
            "tensor": np.empty((0, 3, 3, 3)), "slack": np.empty(0), "rows": np.empty((0, 3, 3, 4)),
            "value": np.empty(0), "sweeps": np.empty(0, dtype=int)}

    while True:
        entering = list(itertools.islice(queue, _POOL_WIDTH - len(live["row"])))
        if entering:
            row, restart = np.array(entering).T
            for new in row[restart == 0].tolist():
                runs[new] = _new_run(tensors[new], restarts, keep_trace)
            tensor = tensors[row]
            # The drawn state sets only the starting value; the state step
            # replaces it.
            value = np.einsum("nt,nt->n", moments[restart], tensor.reshape(-1, 27))
            entered = {"row": row, "restart": restart, "tensor": tensor,
                       "slack": np.array([runs[r]["slack"] for r in row.tolist()]),
                       "rows": gauged[restart], "value": value,
                       "sweeps": np.zeros(len(row), dtype=int)}
            live = {key: np.concatenate((live[key], entered[key])) for key in live}
        if not len(live["row"]):
            return
        before = live["value"]
        value, psi, lowered = _sweep(live["tensor"], live["rows"], before, live["slack"])
        for step, down in lowered.items():
            if down.any():
                for row in np.unique(live["row"][down]).tolist():
                    failed.setdefault(row, RuntimeError(f"seesaw {step} step decreased the value"))
        live["value"] = value
        live["sweeps"] += 1
        after_sweep()

        if keep_trace:
            for row, i, v in zip(live["row"].tolist(), live["restart"].tolist(), value.tolist()):
                runs[row]["traces"][i].append(v)
        dead = np.isin(live["row"], list(failed))
        for row in np.unique(live["row"][dead]).tolist():
            del runs[row]
            yield row, failed[row]
        done = value - before < params.convergence_tol
        leaving = (done | (live["sweeps"] >= params.max_sweeps)) & ~dead
        for row in np.unique(live["row"][leaving]).tolist():
            mine = leaving & (live["row"] == row)
            run, restart = runs[row], live["restart"][mine]
            run["states"][restart] = psi[mine]
            run["rows"][restart] = live["rows"][mine][:, :, 1:].reshape(-1, 6, 4)
            run["values"][restart] = value[mine]
            run["sweeps"][restart] = live["sweeps"][mine]
            run["converged"][restart] = done[mine]
            run["left"] -= len(restart)
            if not run["left"]:
                yield row, runs.pop(row)
        if (leaving | dead).any():
            live = {key: array[~(leaving | dead)] for key, array in live.items()}
