"""Entanglement and incompatibility monotones with their class assignments.

Entanglement of a three-qubit pure state is summarized by four numbers:
the tripartite negativity N_ABC (geometric mean of the three one-versus-
rest negativities) and the three pairwise concurrences. Measurement
incompatibility of each party's pair of observables is quantified by a
normalized noise-robustness monotone that is 0 for compatible pairs and
1 for maximally incompatible ones. Each quadruple and each triple is
then matched against a fixed list of twelve patterns; patterns are
stated up to relabeling of the parties, so matching happens on sorted
values with special values (0, 1, 2/3, 2 sqrt(2)/3) tested first. A
solution's class pair is the class of its state's quadruple and the class
of its measurements' triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (
    _PARTY_INDEX,
    Observable,
    PureState,
    partial_transpose,
    reduced_density,
    sigma_y,
)

__all__ = [
    "EntanglementProfile",
    "IncompatibilityProfile",
    "bipartite_negativity",
    "classify_entanglement",
    "classify_incompatibility",
    "concurrence",
    "entanglement_profile",
    "incompatibility",
    "tripartite_negativity",
]

DEFAULT_CLASS_TOL = 1e-4

_W_NEGATIVITY = 2.0 * np.sqrt(2.0) / 3.0
_SPIN_FLIP = np.kron(sigma_y, sigma_y).real


@dataclass(frozen=True)
class EntanglementProfile:
    n_abc: float
    c_ab: float
    c_ac: float
    c_bc: float
    class_id: int


@dataclass(frozen=True)
class IncompatibilityProfile:
    i_a: float
    i_b: float
    i_c: float
    class_id: int


def _clip_unit(value: float, slack: float = 1e-9) -> float:
    if not -slack <= value <= 1.0 + slack:
        raise AssertionError(f"monotone escaped [0,1]: {value!r}")
    return float(min(max(value, 0.0), 1.0))


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence C = max(0, l1 - l2 - l3 - l4), the l_i being
    the decreasing square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("concurrence needs a 4x4 density matrix")
    if not np.allclose(rho, rho.conj().T, atol=1e-8):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise ValueError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -1e-8:
        raise ValueError("density matrix is not positive semidefinite")
    flipped = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    lams_sq = np.linalg.eigvals(rho @ flipped).real
    # Reduced states of pure tripartite states are rank 2, so two of these
    # are exact zeros returned as solver noise; the square root would blow
    # that up to 1e-8, breaking local-unitary invariance at the 1e-9 level.
    cutoff = max(1e-14 * lams_sq.max(initial=0.0), 1e-15)
    lams = np.sqrt(np.where(lams_sq < cutoff, 0.0, lams_sq))
    lams[::-1].sort()
    return _clip_unit(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def bipartite_negativity(state: PureState, party: str) -> float:
    """-2 times the sum of negative eigenvalues of the partial transpose
    of |psi><psi| over the singled-out party."""
    index = _PARTY_INDEX.get(str(party).upper())
    if index is None:
        raise ValueError("party must be one of A, B, C")
    eigs = np.linalg.eigvalsh(partial_transpose(state.density(), index))
    return _clip_unit(-2.0 * eigs[eigs < 0.0].sum())


def tripartite_negativity(state: PureState) -> float:
    product = 1.0
    for party in "ABC":
        product *= bipartite_negativity(state, party)
    return _clip_unit(product ** (1.0 / 3.0))


def incompatibility(o1: Observable, o2: Observable) -> float:
    """Normalized incompatibility of two qubit observables.

    For Bloch observables with angle phi between the axes this is
    (2 + sqrt(2)) [1 - (1 + sin phi)^(-1/2)]; a +-identity observable is
    compatible with everything and yields 0.
    """
    if o1.is_identity or o2.is_identity:
        return 0.0
    cos_phi = float(np.clip(np.dot(o1.vector, o2.vector), -1.0, 1.0))
    sin_phi = np.sqrt(1.0 - cos_phi * cos_phi)
    return _clip_unit((2.0 + np.sqrt(2.0)) * (1.0 - 1.0 / np.sqrt(1.0 + sin_phi)))


def classify_entanglement(
    n_abc: float, c_ab: float, c_ac: float, c_bc: float,
    tol: float = DEFAULT_CLASS_TOL,
) -> int:
    """Class id 0..11 for a (N_ABC, C_AB, C_AC, C_BC) quadruple.

    Patterns are permutation-invariant, so only the sorted concurrences
    matter. Special values take precedence over generic slots: exact W
    and GHZ signatures are tested before the wildcard classes, and a
    concurrence within tol of 1 counts as maximal.

    Raises ValueError when no pattern matches within tol, which signals
    either an invalid monotone combination or a too-tight tolerance.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    c = sorted((c_ab, c_ac, c_bc), reverse=True)
    nonzero = [x for x in c if x > tol]
    if n_abc <= tol:
        if not nonzero:
            return 0
        if len(nonzero) == 1:
            return 2 if nonzero[0] >= 1.0 - tol else 1
        raise ValueError(
            "no entanglement class matches: zero tripartite negativity "
            "with more than one nonzero concurrence"
        )
    if not nonzero:
        return 11 if n_abc >= 1.0 - tol else 10
    if abs(n_abc - _W_NEGATIVITY) <= tol and all(abs(x - 2.0 / 3.0) <= tol for x in c):
        return 6
    if len(nonzero) == 1:
        return 9
    if len(nonzero) == 2:
        return 8 if nonzero[0] - nonzero[1] <= tol else 7
    if c[0] - c[2] <= tol:
        return 5
    if c[0] - c[1] <= tol or c[1] - c[2] <= tol:
        return 4
    return 3


def entanglement_profile(state: PureState, tol: float = DEFAULT_CLASS_TOL) -> EntanglementProfile:
    n_abc = tripartite_negativity(state)
    c_ab = concurrence(reduced_density(state, "AB"))
    c_ac = concurrence(reduced_density(state, "AC"))
    c_bc = concurrence(reduced_density(state, "BC"))
    class_id = classify_entanglement(n_abc, c_ab, c_ac, c_bc, tol)
    return EntanglementProfile(n_abc, c_ab, c_ac, c_bc, class_id)


def _incompatibility_class(values, tol: float) -> int:
    v = sorted(values, reverse=True)
    maximal = [x >= 1.0 - tol for x in v]
    nonzero = [x > tol for x in v]
    zeros = 3 - sum(nonzero)
    if zeros == 3:
        return 0
    if zeros == 2:
        # Single incompatible party: no listed pattern is this sparse, so
        # fall back to the two-party patterns with one slot at its limit.
        return 3 if maximal[0] else 1
    if zeros == 1:
        if maximal[0] and maximal[1]:
            return 4
        if maximal[0]:
            return 3
        return 2 if v[0] - v[1] <= tol else 1
    if maximal[2]:
        return 11
    if maximal[1]:
        return 10
    if maximal[0]:
        return 9 if v[1] - v[2] <= tol else 8
    if v[0] - v[2] <= tol:
        return 7
    if v[0] - v[1] <= tol or v[1] - v[2] <= tol:
        return 6
    return 5


def classify_incompatibility(meas, tol: float = DEFAULT_CLASS_TOL) -> IncompatibilityProfile:
    """Per-party incompatibilities of six observables (A, a, B, b, C, c)
    and their class id."""
    meas = tuple(meas)
    if len(meas) != 6:
        raise ValueError("expected six observables")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    i_a = incompatibility(meas[0], meas[1])
    i_b = incompatibility(meas[2], meas[3])
    i_c = incompatibility(meas[4], meas[5])
    return IncompatibilityProfile(i_a, i_b, i_c, _incompatibility_class((i_a, i_b, i_c), tol))
