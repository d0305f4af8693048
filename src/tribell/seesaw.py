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
each set of streams is drawn once, in the same order, and shared. The live
restarts advance in lock step through vectorized sweeps, contiguous and in
restart order; a restart whose sweep improvement drops below the tolerance
leaves the batch, which keeps it equivalent to running each restart alone.
Past numpy's per-call overhead, a sweep's cost is mostly the 8x8 ``eigh``
of each live restart, which no change that keeps the results can cut.

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

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bell_expr import BellExpression
from .qcore import (
    Observable,
    PureState,
    _open_party,
    _operators,
    _response,
    bell_operator,
    bell_operators,
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
    batch = _run_batch(expr.tensor().astype(float), _draws(seed, ((),)), params, keep_trace=True)
    return replace(_solution_from_run(batch, 0), value_trace=tuple(batch["traces"][0]))


def quantum_maximum(expr: BellExpression, params: SeesawParams = SeesawParams()) -> Solution:
    """Best of ``params.restarts`` independent seeded runs; ties go to the
    lowest restart index.

    Values within rounding of the best tie, so the winner does not depend
    on the last bits of the arithmetic.
    """
    keys = tuple((i,) for i in range(params.restarts))
    tensor = expr.tensor().astype(float)
    batch = _run_batch(tensor, _draws(params.master_seed, keys), params, keep_trace=False)
    values = batch["values"]
    best = int(np.argmax(values >= values.max() - _VALUE_TIE_TOL * _scale(tensor)))
    return _solution_from_run(batch, best)


def _solution_from_run(batch, i: int) -> Solution:
    """Restart ``i`` of a batch, with the statistics of the whole batch."""
    values = batch["values"]
    return Solution(
        state=PureState(batch["states"][i]),
        measurements=tuple(_decode_observable(row) for row in batch["rows"][i]),
        value=float(values[i]),
        sweeps_used=int(batch["sweeps"][i]),
        restart_index=i,
        capped_restarts=int(np.count_nonzero(~batch["converged"])),
        hits=int(np.count_nonzero(values >= values.max() - batch["slack"])),
        median_sweeps=float(np.median(batch["sweeps"])),
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
    """Starting states, drawn rows and their real-gauge rotation for the
    streams ``SeedSequence(entropy, spawn_key=key)``: read-only and shared
    by every expression, which the draws do not depend on."""
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
    gauged = rows.copy()
    _real_gauge(gauged)
    for array in (start, rows, gauged):
        array.flags.writeable = False
    return start, rows, gauged


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


def _run_batch(tensor, draws, params, keep_trace):
    start, drawn, gauged = draws
    n = len(start)
    # The drawn state sets only the starting value; the state step replaces it.
    values = np.einsum("na,nab,nb->n", start.conj(), bell_operators(tensor, drawn), start).real
    rows = gauged.copy()
    states, converged = np.empty((n, 8)), np.ones(n, dtype=bool)
    sweeps_used = np.full(n, params.max_sweeps, dtype=int)
    traces = [[] for _ in range(n)] if keep_trace else None

    # The live restarts stay contiguous and in restart order: each kernel call
    # sees exactly the unconverged restarts. One is written back once it stops.
    live, live_rows, live_values = np.arange(n), rows, values
    slack = _MONOTONE_SLACK * _scale(tensor)
    for sweep in range(1, params.max_sweeps + 1):
        before = live_values
        # State step: the rows are x-z, so the operators and states are real.
        # It leaves the rows alone, so party A's contraction serves its
        # observable step too.
        opened = _open_party(tensor, live_rows, 0)
        live_values, psi = _state_step(tensor, live_rows, opened)
        if (live_values < before - slack).any():
            raise RuntimeError("seesaw state step decreased the value")
        corr = correlations(psi)

        # Observable steps, both settings of a party at once.
        for party in range(3):
            if party:
                opened = _open_party(tensor, live_rows, party)
            response = _response(opened, corr, party)
            previous, live_values = live_values, _update_settings(live_rows[:, party], response)
            if (live_values < previous - slack).any():
                raise RuntimeError("seesaw observable step decreased the value")

        if keep_trace:
            for run, value in zip(live, live_values.tolist()):
                traces[run].append(value)
        done = live_values - before < params.convergence_tol
        if done.any():
            finished = live[done]
            rows[finished], values[finished], states[finished] = live_rows[done], live_values[done], psi[done]
            sweeps_used[finished] = sweep
            live, live_rows, live_values, psi = (a[~done] for a in (live, live_rows, live_values, psi))
            if not live.size:
                break
    rows[live], values[live], states[live], converged[live] = live_rows, live_values, psi, False
    return {"states": states, "rows": rows[:, :, 1:].reshape(n, 6, 4), "values": values,
            "sweeps": sweeps_used, "converged": converged, "traces": traces, "slack": slack}
