"""Moment-matrix upper bounds on quantum maxima (NPA hierarchy).

A word is a product of +-1 observables, one symbol per factor, where
symbol (party, setting) is that party's observable for that setting.
Observables of distinct parties commute and each squares to the identity
(A^2 = 1), which gives every word the canonical form computed by
``canonicalize_word``. A level is a (length, run) pair: its words are
the canonical words of at most ``length`` symbols with at most ``run``
symbols per party. Level Qk of the hierarchy (Navascues, Pironio & Acin,
NJP 10, 073013, 2008) is (k, k); 1+AB and AQ have run 1. The moment
matrix Gamma is indexed by a level's word list and cell (u, v) holds the moment of canonical(reverse(u) v);
cells sharing a canonical word form an equality class, and every
diagonal cell is in the identity class, so Gamma has a unit diagonal.
Moments of a word and its reverse agree for the optimal value, so both
map to one class representative and Gamma is real symmetric.

The bound is computed by an over-relaxed operator-splitting (ADMM)
iteration that alternates projection onto the affine class structure
with projection onto the positive-semidefinite cone. Its only iterate
is one symmetric matrix V whose positive part Z is the PSD iterate and
whose negative part is the scaled dual, so an iteration costs one
eigendecomposition. The solve holds OpenBLAS at one thread, since a
threaded ``eigh`` of a moment matrix spends CPU on a second thread for no
wall time; the hold lives here because no other module makes calls large
enough for OpenBLAS to thread, and it finds OpenBLAS's thread functions
through numpy's own LAPACK module on the first solve, never at import.
Safeguarded type-II Anderson acceleration extrapolates V from the last
60 fixed-point residuals T(V) - V, which removes most of ADMM's slow
linear tail. An extrapolation that does not shrink the residual is
thrown away, and a history whose differences are all 0 gives the plain
step. The residuals' Gram matrix is updated in place, one row and column
per new residual, so a memory slot costs one matrix-vector product per
iteration. An objective whose weights exceed 4 in magnitude
is solved with its weights divided down to that size, since large
weights unbalance the residuals and stall the extrapolation. The words
and class structure of a level do not depend on the expression: they
are built on first use, once per level, and every problem at that level
shares the same read-only arrays. A problem is its level's structure
plus one objective weight per class and a constant. The reported bound
is the objective plus a safety margin of 10 max(tolerance, residuals)
times the 1-norm of the objective weights. The margin is a heuristic,
not a weak-duality certificate.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import numbers
import os
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import product
from types import MappingProxyType

import numpy as np

from .bell_expr import BellExpression

__all__ = [
    "LEVELS",
    "MomentProblem",
    "SdpParams",
    "SdpSolution",
    "build_moment_problem",
    "canonicalize_word",
    "generate_words",
    "npa_solve",
    "npa_upper_bound",
    "sdp_maximize",
]

Word = tuple[tuple[int, int], ...]

# Each level's (length, run) shape; see the module docstring.
_LEVEL_SHAPES = {"Q1": (1, 1), "1+AB": (2, 1), "AQ": (3, 1), "Q2": (2, 2)}
LEVELS = tuple(_LEVEL_SHAPES)


def _check_word(word) -> Word:
    word = tuple(tuple(symbol) for symbol in word)
    for party, setting in word:
        if party not in (1, 2, 3) or setting not in (1, 2):
            raise ValueError(f"bad observable symbol {(party, setting)!r}")
    return word


def canonicalize_word(word) -> Word:
    """Stable-sort symbols by party, then cancel adjacent equal pairs."""
    stack: list[tuple[int, int]] = []
    for symbol in sorted(_check_word(word), key=lambda symbol: symbol[0]):
        if stack and stack[-1] == symbol:
            stack.pop()
        else:
            stack.append(symbol)
    return tuple(stack)


def _class_representative(word: Word) -> Word:
    """Moments of a word and its reverse are identified; the class is
    named by the lexicographically smaller of the two."""
    return min(word, canonicalize_word(word[::-1]))


def generate_words(level: str) -> list[Word]:
    """Canonical word list of a level, identity first.

    Each word is a product, over the parties in order, of one alternating
    string (p, s)(p, 3 - s)... of at most ``run`` symbols per party, with
    at most ``length`` symbols in all; words sort by length, then most
    parties first, then parties, then settings. Q1 has 7 words, 1+AB 19,
    AQ 27 and Q2 25. Each list is closed under subwords; with A^2 = 1
    Gamma's diagonal is the identity.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; choose from {LEVELS}")
    length, run = _LEVEL_SHAPES[level]
    strings = [
        [()] + [tuple((p, (s, 3 - s)[i % 2]) for i in range(k))
                for s in (1, 2) for k in range(1, run + 1)]
        for p in (1, 2, 3)
    ]
    words = [a + b + c for a, b, c in product(*strings) if len(a + b + c) <= length]

    def key(word: Word):
        parties = tuple(p for p, _ in word)
        return len(word), -len(set(parties)), parties, tuple(s for _, s in word)

    return sorted(words, key=key)


@dataclass(frozen=True)
class _LevelStructure:
    """The moment-matrix structure of one level, shared by every
    objective at that level.

    ``class_index`` numbers the sorted class representatives,
    ``cell_class`` gives each cell's class number (cells are row-major
    indices into Gamma) and ``counts`` each class's number of cells. The
    arrays are read-only.
    """

    words: tuple[Word, ...]
    class_index: Mapping[Word, int]
    cell_class: np.ndarray
    counts: np.ndarray


@functools.lru_cache(maxsize=None)
def _level_structure(level: str) -> _LevelStructure:
    words = tuple(generate_words(level))
    reps = [_class_representative(canonicalize_word(u[::-1] + v))
            for u in words for v in words]
    class_index = {rep: k for k, rep in enumerate(sorted(set(reps)))}
    cell_class = np.array([class_index[rep] for rep in reps], dtype=np.intp)
    counts = np.bincount(cell_class).astype(float)
    for array in (cell_class, counts):
        array.flags.writeable = False
    return _LevelStructure(
        words=words,
        class_index=MappingProxyType(class_index),
        cell_class=cell_class,
        counts=counts,
    )


@dataclass(frozen=True, eq=False)
class MomentProblem:
    """A level's shared structure, the objective's weight on each class
    (indexed by ``structure.class_index``; read-only) and a constant."""

    structure: _LevelStructure = field(repr=False)
    weights: np.ndarray
    constant: float

    @property
    def size(self) -> int:
        return len(self.structure.words)


# ADMM over-relaxation factor, in (0, 2), and the starting penalty rho,
# which the iteration then adapts every ``adapt_interval`` iterations.
_OVER_RELAXATION = 1.5
_INITIAL_PENALTY = 1.0
# Anderson acceleration mixes this many past fixed-point residuals; its
# normal equations get a Tikhonov term of this weight times their trace.
_ANDERSON_MEMORY = 60
_ANDERSON_REGULARIZATION = 1e-12
# The largest objective weight, in magnitude, that is solved as given.
# Larger weights are divided down to it, so the iteration count does not
# grow with them. Catalog weights are at most 4: catalog solves are unscaled.
_MAX_WEIGHT = 4.0


@dataclass(frozen=True)
class SdpParams:
    max_iterations: int = 200000
    tolerance: float = 1e-8
    adapt_interval: int = 100

    def __post_init__(self):
        # bool is an Integral, but True is no count.
        counts = (self.max_iterations, self.adapt_interval)
        if any(isinstance(n, bool) or not isinstance(n, numbers.Integral) for n in counts):
            raise ValueError("max_iterations and adapt_interval must be integers")
        if isinstance(self.tolerance, bool) or not isinstance(self.tolerance, numbers.Real):
            raise ValueError("tolerance must be a real number")
        # Written so that NaN fails too.
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")
        if self.max_iterations < 1 or self.adapt_interval < 1:
            raise ValueError("max_iterations and adapt_interval must be positive")


@dataclass(frozen=True)
class SdpSolution:
    objective_value: float
    moment_values: dict[Word, float]
    primal_residual: float
    dual_residual: float
    iterations: int
    status: str
    bound: float
    tolerance: float
    penalty_updates: int = 0
    rejected_steps: int = 0
    gamma: np.ndarray = field(repr=False, compare=False, default=None)


def build_moment_problem(expr: BellExpression, level: str) -> MomentProblem:
    """Moment-matrix structure and objective of an expression at a level.

    The structure depends on the level alone: it is built on first use
    and shared by every problem of that level.

    Raises ValueError when some objective word is not the class of any
    matrix cell, i.e. the level cannot express the objective.
    """
    structure = _level_structure(level)
    weights = np.zeros(len(structure.counts))
    constant = 0.0
    unreachable = []
    for term, coeff in expr.coeffs.items():
        # A correlator term is the moment of its one-per-party word, which
        # is its own class representative.
        word = tuple((party, t) for party, t in enumerate(term, start=1) if t)
        if not word:
            constant = float(coeff)
        elif word in structure.class_index:
            weights[structure.class_index[word]] = coeff
        else:
            unreachable.append(word)
    if unreachable:
        raise ValueError(
            f"objective words unreachable at level {level}: {sorted(unreachable)}"
        )
    weights.flags.writeable = False
    return MomentProblem(structure, weights, constant)


# (get, set) thread-count symbols of OpenBLAS builds: the scipy-openblas
# wheel numpy 2 ships, the ILP64 build of numpy 1 wheels, a system build.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=1)
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy's
    ``eigh`` calls, or None where none is found (another BLAS, or a
    platform without ``os.RTLD_NOLOAD``). They are looked up through
    numpy's own LAPACK module, whose symbol search covers the libraries
    it links, on first use, never at import."""
    try:
        library = ctypes.CDLL(np.linalg._umath_linalg.__file__, mode=os.RTLD_NOLOAD)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        get, set_ = getattr(library, get_name, None), getattr(library, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


class _OneBlasThread(contextlib.ContextDecorator):
    """Context manager, and decorator, that holds OpenBLAS at one thread
    and then restores the earlier count.

    The moment matrices are at most 27 wide. A threaded ``eigh`` of that
    size gains no wall time: it spends CPU time on a second thread and
    can stall for milliseconds per call. The count is process-wide, so
    nested and concurrent holds share one: the first to enter saves the
    count and the last to leave restores it. Without OpenBLAS it does
    nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holds = 0
        self._previous = 0

    def __enter__(self):
        threads = _openblas_threads()
        if threads is not None:
            get, set_ = threads
            with self._lock:
                if not self._holds:
                    self._previous = get()
                    set_(1)
                self._holds += 1

    def __exit__(self, *exc_info):
        threads = _openblas_threads()
        if threads is not None:
            with self._lock:
                self._holds -= 1
                if not self._holds:
                    threads[1](self._previous)


_one_blas_thread = _OneBlasThread()


@_one_blas_thread
def sdp_maximize(problem: MomentProblem, params: SdpParams = SdpParams()) -> SdpSolution:
    """Maximize the objective over PSD moment matrices by accelerated ADMM.

    X carries the affine structure (equal cells within a class, identity
    class pinned to 1) and Z the PSD cone. The only iterate is the
    symmetric matrix V: its positive part is Z and its negative part the
    scaled dual, so each iteration does one eigendecomposition. The
    over-relaxed ADMM step is

        T(V) - V = alpha (X - Z),  X = affine projection of 2Z - V + C / rho,

    and when rho is multiplied by a factor, V's negative part is divided
    by it. Type-II Anderson acceleration extrapolates V from the last
    ``_ANDERSON_MEMORY`` (60) differences of T(V) - V and of T(V). Their
    Gram matrix is kept in place: a new difference updates its own row
    and column with one matrix-vector product, and the Tikhonov term reads
    the trace off the stored squared norms. A safeguard rejects an
    extrapolated point whose ||T(V) - V|| exceeds that of the last
    accepted point: the iteration resumes from that point's plain image
    with an empty memory. The memory is also emptied whenever rho adapts.
    The step is plain ADMM when the memory is empty, and when every stored
    difference is 0, since the normal equations are then singular. The class
    structure is the level's shared, read-only one (``problem.structure``).
    OpenBLAS, when numpy uses it, is held at one thread for the solve;
    the thread count never changes a result.

    When some weight exceeds ``_MAX_WEIGHT`` (4) in magnitude, the solve
    runs with every weight divided by max|w| / 4; the optimal moments do
    not change. The objective, the moment values and the bound are in the
    caller's units, while the residuals, ``rho`` and the iteration counts
    belong to the scaled solve.

    The primal residual ||X_k - Z_{k+1}|| and dual residual
    rho ||Z_{k+1} - Z_k|| are taken against the last accepted point; both
    must drop below params.tolerance for convergence. ``iterations``
    counts eigendecompositions, rejected steps included. The bound adds
    10 max(tolerance, residuals) times the objective coefficient 1-norm
    to the objective of Z's class means.
    """
    n = problem.size
    structure = problem.structure
    cell_class, counts = structure.cell_class, structure.counts
    n_classes = len(counts)
    identity = structure.class_index[()]

    weights = problem.weights
    units = max(1.0, float(np.abs(weights).max()) / _MAX_WEIGHT)
    c = (weights / units / counts)[cell_class].reshape(n, n)

    def class_means(m: np.ndarray) -> np.ndarray:
        means = np.bincount(cell_class, weights=m.ravel(), minlength=n_classes)
        means /= counts
        return means

    def project_affine(m: np.ndarray) -> np.ndarray:
        means = class_means(m)
        means[identity] = 1.0
        return means[cell_class].reshape(n, n)

    rho = _INITIAL_PENALTY
    c_rho = c / rho
    alpha = _OVER_RELAXATION

    def step(v: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The affine iterate X and the step T(V) - V from V, whose positive part is Z."""
        x = project_affine(2.0 * z - v + c_rho)
        return x, alpha * (x - z)

    memory = _ANDERSON_MEMORY
    delta_f = np.empty((memory, n * n))
    delta_g = np.empty((memory, n * n))
    gram = np.empty((memory, memory))
    pushed = 0  # difference pairs stored since the memory was last emptied

    # The last accepted point: its X, Z, T(V), and T(V) - V with its
    # norm. The start V = Z = the identity is its own positive part.
    z_ok = project_affine(np.zeros((n, n)))
    x_ok, f_ok = step(z_ok, z_ok)
    t_ok = z_ok + f_ok
    f_norm_ok = _norm(f_ok)
    v = t_ok
    primal = dual = np.inf
    iteration = penalty_updates = rejected_steps = 0
    for iteration in range(1, params.max_iterations + 1):
        vals, vecs = np.linalg.eigh(v)
        # eigh sorts ascending, so the positive eigenpairs are a suffix.
        k = int(np.searchsorted(vals, 0.0, side="right"))
        z = (vecs[:, k:] * vals[k:]) @ vecs[:, k:].T
        primal = _norm(x_ok - z)
        dual = rho * _norm(z - z_ok)
        if primal < params.tolerance and dual < params.tolerance:
            break
        if iteration % params.adapt_interval == 0 and (
            primal > 10.0 * dual or dual > 10.0 * primal
        ):
            scale = 2.0 if primal > dual else 0.5
            rho *= scale
            c_rho = c / rho
            v = z + (v - z) / scale
            penalty_updates += 1
            # T changed with rho: neither the memory nor the last accepted
            # point's residual describes it any more.
            pushed = 0
            f_ok = None
        x, f = step(v, z)
        t = v + f
        f_norm = _norm(f)
        if f_ok is not None:
            # A stored pair means the current point was extrapolated.
            if pushed and f_norm > f_norm_ok:
                rejected_steps += 1
                pushed = 0
                v = t_ok
                continue
            row = pushed % memory
            delta_f[row] = (f - f_ok).ravel()
            delta_g[row] = (t - t_ok).ravel()
            pushed += 1
        x_ok, z_ok, t_ok, f_ok, f_norm_ok = x, z, t, f, f_norm
        v = t
        stored = min(pushed, memory)
        if stored:
            # A stored pair means one was just written, to ``row``.
            df = delta_f[:stored]
            gram[row, :stored] = gram[:stored, row] = df @ df[row]
            trace = gram.diagonal()[:stored].sum()
            if trace:
                normal = gram[:stored, :stored].copy()
                normal.flat[:: stored + 1] += _ANDERSON_REGULARIZATION * trace
                gamma = np.linalg.solve(normal, df @ f.ravel())
                v = t - (gamma @ delta_g[:stored]).reshape(n, n)

    means = class_means(z)
    moment_values = {rep: float(means[k]) for rep, k in structure.class_index.items()}
    moment_values[()] = 1.0
    objective_value = float(weights @ means) + problem.constant
    converged = primal < params.tolerance and dual < params.tolerance
    return SdpSolution(
        objective_value=objective_value,
        moment_values=moment_values,
        primal_residual=primal,
        dual_residual=dual,
        iterations=iteration,
        status="converged" if converged else "max_iterations",
        bound=objective_value + _margin(problem, max(params.tolerance, primal, dual)),
        tolerance=params.tolerance,
        penalty_updates=penalty_updates,
        rejected_steps=rejected_steps,
        gamma=z,
    )


def _norm(m: np.ndarray) -> float:
    """Frobenius norm, as ``np.linalg.norm`` computes it, without its overhead."""
    return math.sqrt(np.vdot(m, m))


def _margin(problem: MomentProblem, residual: float) -> float:
    return 10.0 * residual * float(np.abs(problem.weights).sum())


def rigor_margin(problem: MomentProblem, solution: SdpSolution) -> float:
    """Safety margin on the sdp objective: 10 max(tolerance, residuals)
    times the objective coefficient 1-norm. ``solution.bound`` already
    includes it. The tolerance is the floor, so the margin of a converged
    solve does not depend on where the iteration happened to stop."""
    return _margin(problem, max(solution.tolerance, solution.primal_residual,
                                solution.dual_residual))


def npa_solve(expr: BellExpression, level: str, params: SdpParams = SdpParams()) -> SdpSolution:
    """Build and solve the moment problem of an expression at a level.

    Raises ValueError when the level cannot express the objective and
    RuntimeError when the solve fails: when it hits the iteration cap, or
    when its linear algebra raises ``LinAlgError``, re-raised with the
    same message.
    """
    problem = build_moment_problem(expr, level)
    try:
        solution = sdp_maximize(problem, params)
    except np.linalg.LinAlgError as err:
        raise RuntimeError(str(err)) from err
    if solution.status != "converged":
        raise RuntimeError(
            f"moment-matrix solve at level {level} hit the iteration cap "
            f"(residuals {solution.primal_residual:.2e}/{solution.dual_residual:.2e})"
        )
    return solution


def npa_upper_bound(expr: BellExpression, level: str, params: SdpParams = SdpParams()) -> float:
    """Upper bound from the moment relaxation: the sdp objective plus the
    heuristic ``rigor_margin`` (not a weak-duality certificate).

    Raises like ``npa_solve``.
    """
    return npa_solve(expr, level, params).bound
