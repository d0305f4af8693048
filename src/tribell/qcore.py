"""Qubit observables, three-qubit pure states, and operator utilities.

Measurements are ±1-outcome qubit observables: either a signed identity
or a Bloch observable ``n . sigma`` with a unit vector ``n``. States live
in the computational basis ``|000> .. |111>`` with party 1 as the most
significant qubit.

The batched kernel works in the real Pauli basis: a measurement is the
row ``(r0, rx, ry, rz)`` of ``r0 * identity + r . sigma``. Its input is
a batch of rows and a stack of coefficient tensors: one tensor per batch
entry, or a single expression's tensor as a stack of one, broadcast over
the batch. Contracting a coefficient tensor with the three parties' rows
gives 64 Pauli weights ``w[mu, nu, lam]``, and the Bell operator is
``w`` times a (64, 64) Kronecker table of the products
``sigma_mu ⊗ sigma_nu ⊗ sigma_lam``; a state's correlation tensor is its
flattened ``conj(psi) psi^T`` times the table's transpose. Each is one
product per batch, taken as its real and imaginary parts: x-z rows and
real states need only the real part, in real arithmetic. Every batch
entry's product is computed on its own, so its bits do not depend on the
batch around it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MINUS_IDENTITY",
    "Observable",
    "PLUS_IDENTITY",
    "PureState",
    "bell_operator",
    "correlations",
    "expectation",
    "observable_rows",
    "partial_transpose",
    "reduced_density",
    "sigma_x",
    "sigma_y",
    "sigma_z",
]

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_PARTY_INDEX = {"A": 0, "B": 1, "C": 2}

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class Observable:
    """One ±1-outcome projective qubit measurement.

    ``vector`` is a unit Bloch vector for ``n . sigma`` observables and
    ``None`` for the trivial measurements, whose constant outcome is
    ``sign``.
    """

    vector: tuple[float, float, float] | None = None
    sign: int = 1

    def __post_init__(self):
        if self.vector is None:
            if self.sign not in (1, -1):
                raise ValueError("identity observable needs sign +1 or -1")
            return
        vec = tuple(float(x) for x in self.vector)
        if len(vec) != 3:
            raise ValueError("Bloch vector must have three components")
        norm = float(np.sqrt(vec[0] ** 2 + vec[1] ** 2 + vec[2] ** 2))
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"Bloch vector norm {norm} is not 1 within {_NORM_TOL}")
        object.__setattr__(self, "vector", vec)

    @classmethod
    def from_bloch(cls, x: float, y: float, z: float, normalize: bool = False) -> "Observable":
        if normalize:
            norm = float(np.sqrt(x * x + y * y + z * z))
            if norm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            x, y, z = x / norm, y / norm, z / norm
        return cls(vector=(x, y, z))

    @classmethod
    def identity(cls, sign: int) -> "Observable":
        return cls(vector=None, sign=sign)

    @property
    def is_identity(self) -> bool:
        return self.vector is None


PLUS_IDENTITY = Observable.identity(1)
MINUS_IDENTITY = Observable.identity(-1)


def observable_matrix(obs: Observable) -> np.ndarray:
    """2x2 Hermitian matrix of an observable."""
    if obs.is_identity:
        return obs.sign * np.eye(2, dtype=complex)
    x, y, z = obs.vector
    return x * sigma_x + y * sigma_y + z * sigma_z


class PureState:
    """Unit-norm three-qubit state vector."""

    __slots__ = ("_amplitudes",)

    def __init__(self, amplitudes):
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amp.shape != (8,):
            raise ValueError("state needs 8 amplitudes")
        norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"state norm {norm} is not 1 within {_NORM_TOL}")
        amp = amp.copy()
        amp.flags.writeable = False
        self._amplitudes = amp

    @classmethod
    def from_vector(cls, vector, normalize: bool = False) -> "PureState":
        vec = np.asarray(vector, dtype=complex).reshape(-1)
        if normalize:
            norm = np.linalg.norm(vec)
            if norm == 0.0 or not np.isfinite(norm):
                raise ValueError(f"cannot normalize a vector of norm {norm}")
            vec = vec / norm
        return cls(vec)

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    def density(self) -> np.ndarray:
        return np.outer(self._amplitudes, self._amplitudes.conj())

    def __repr__(self):
        return f"PureState({np.array2string(self._amplitudes, precision=6)})"


# The real Pauli basis (identity, x, y, z). A measurement is the real row
# (r0, rx, ry, rz) of r0 * identity + r . sigma: a Bloch observable is
# (0, n) and ±identity is (±1, 0, 0, 0).
# The other two parties of each party, in party order.
_OTHER_PARTIES = ((1, 2), (0, 2), (0, 1))
# Axis orders that bring a party first, the other two after it in party
# order, in a stack of coefficient or correlation tensors.
_BATCH_PARTY_FIRST = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))


@functools.lru_cache(maxsize=1)
def _pauli_products():
    """Real and imaginary parts of the (64, 64) Kronecker table whose row
    ``16 mu + 4 nu + lam`` is ``sigma_mu ⊗ sigma_nu ⊗ sigma_lam`` flattened,
    read-only. Built on first use, never at import."""
    paulis = np.stack([np.eye(2), sigma_x, sigma_y, sigma_z])
    table = np.einsum("iab,jcd,kef->ijkacebdf", paulis, paulis, paulis).reshape(64, 64)
    parts = table.real.copy(), table.imag.copy()
    for part in parts:
        part.flags.writeable = False
    return parts


def _rowwise(batch: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``batch @ table`` for an (n, 64) batch, one row at a time.

    The stacked form gives each row the bits it has alone. A plain
    ``batch @ table`` switches BLAS routines with ``n`` (to gemv for a
    lone row), which changes the last bits of a row with the batch
    around it.
    """
    return (batch[:, None, :] @ table)[:, 0]


def observable_rows(observables) -> np.ndarray:
    """(3, 3, 4) rows per party: [identity, first setting, second setting]."""
    observables = tuple(observables)
    if len(observables) != 6:
        raise ValueError("need six observables in order (A, a, B, b, C, c)")
    rows = np.zeros((3, 3, 4))
    rows[:, 0, 0] = 1.0
    for slot, obs in enumerate(observables):
        row = rows[slot // 2, slot % 2 + 1]
        if obs.is_identity:
            row[0] = obs.sign
        else:
            row[1:] = obs.vector
    return rows


def _open_party(tensor: np.ndarray, rows: np.ndarray, party: int) -> np.ndarray:
    """Contract the coefficient tensor with the other two parties' rows.

    ``rows`` is an (n, 3, 3, 4) batch of per-party rows, and ``tensor``
    an (n, 3, 3, 3) stack of coefficient tensors, one per batch entry, or
    a (1, 3, 3, 3) stack of one, broadcast over the batch. The result is
    (n, 3, 4, 4): the free party's slot index, then the Pauli indices of
    the other two parties in party order.
    """
    first, second = _OTHER_PARTIES[party]
    free_first = tensor.transpose(_BATCH_PARTY_FIRST[party]).reshape(-1, 9, 3)
    half = (free_first @ rows[:, second]).reshape(-1, 3, 3, 4)
    return rows[:, first].swapaxes(1, 2)[:, None] @ half


def _operators(opened: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(n, 8, 8) Bell operators of an (n, 3, 3, 4) batch of rows, from
    party A's ``_open_party`` contraction of them: the Pauli weights ``w``
    times the Kronecker table.

    When no row has a y component, sigma_y has weight 0 and the operators
    are real symmetric: they are built from the table's real part alone,
    in real arithmetic, and are float64. Otherwise they are complex
    Hermitian, with the imaginary part as well.
    """
    weights = (rows[:, 0].swapaxes(1, 2) @ opened.reshape(-1, 3, 16)).reshape(-1, 64)
    real, imag = _pauli_products()
    if not np.any(rows[..., 2]):
        return _rowwise(weights, real).reshape(-1, 8, 8)
    operators = np.empty((len(weights), 64), dtype=complex)
    operators.real, operators.imag = _rowwise(weights, real), _rowwise(weights, imag)
    return operators.reshape(-1, 8, 8)


def correlations(states: np.ndarray) -> np.ndarray:
    """(n, 4, 4, 4) correlation tensors <psi|s_mu ⊗ s_nu ⊗ s_lam|psi> of (n, 8) states.

    The flattened ``conj(psi) psi^T`` times the transposed Kronecker table,
    real part. Real-dtype states leave out the imaginary half of the
    product, which is zero for them, and give the same values.
    """
    outer = (states.conj()[:, :, None] * states[:, None, :]).reshape(-1, 64)
    real, imag = _pauli_products()
    corr = _rowwise(outer.real, real.T)
    if np.iscomplexobj(states):
        corr -= _rowwise(outer.imag, imag.T)
    return corr.reshape(-1, 4, 4, 4)


def _response(opened: np.ndarray, corr: np.ndarray, party: int) -> np.ndarray:
    """(n, 3, 4) linear response of the value to each of one party's rows,
    from the party's ``_open_party`` contraction of a batch of rows and
    the states' (n, 4, 4, 4) correlation tensors.

    The value is the sum of row . response over the party's three rows;
    component 0 of a slot's response is its contribution at +identity,
    components 1..3 its gradient. The response does not depend on the
    party's own rows.
    """
    moved = corr.transpose(_BATCH_PARTY_FIRST[party]).reshape(-1, 4, 16)
    return opened.reshape(-1, 3, 16) @ moved.swapaxes(1, 2)


def bell_operator(expr, observables) -> np.ndarray:
    """8x8 Bell operator of an expression under six chosen observables;
    float64, with the complex operator's values, when none has a y part."""
    rows = observable_rows(observables)[None]
    return _operators(_open_party(expr.tensor()[None].astype(float), rows, 0), rows)[0]


def expectation(state: PureState, matrix: np.ndarray) -> float:
    """Real quadratic form <psi|M|psi>; tiny imaginary parts are discarded."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (8, 8):
        raise ValueError("expected an 8x8 operator")
    amp = state.amplitudes
    value = complex(np.vdot(amp, matrix @ amp))
    if abs(value.imag) >= 1e-10 * (1.0 + abs(value.real)):
        raise ValueError(f"quadratic form has imaginary part {value.imag}")
    return value.real


def reduced_density(state: PureState, keep) -> np.ndarray:
    """4x4 reduced density matrix on an unordered pair of parties.

    ``keep`` names two distinct parties from {"A", "B", "C"}; the result
    is ordered with the earlier party as the most significant qubit.
    """
    labels = sorted({_PARTY_INDEX[str(k).upper()] for k in keep})
    if len(labels) != 2:
        raise ValueError("keep must name two distinct parties")
    psi = state.amplitudes.reshape(2, 2, 2)
    traced = 3 - sum(labels)
    return np.tensordot(psi, psi.conj(), axes=(traced, traced)).reshape(4, 4)


def partial_transpose(rho: np.ndarray, subsystem: int) -> np.ndarray:
    """Transpose one qubit factor of a multi-qubit operator.

    ``subsystem`` is the 0-based position of the qubit among the tensor
    factors of ``rho`` (most significant first).
    """
    rho = np.asarray(rho)
    dim = rho.shape[0]
    if rho.ndim != 2 or rho.shape != (dim, dim):
        raise ValueError("expected a square matrix")
    n_qubits = int(round(np.log2(dim)))
    if 2**n_qubits != dim:
        raise ValueError("dimension must be a power of 2")
    if not 0 <= subsystem < n_qubits:
        raise ValueError(f"subsystem must lie in 0..{n_qubits - 1}")
    shaped = rho.reshape((2,) * (2 * n_qubits))
    swapped = np.swapaxes(shaped, subsystem, subsystem + n_qubits)
    return swapped.reshape(dim, dim)

