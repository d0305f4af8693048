import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribell.fixtures import fixture_record, fixture_solution
from tribell.monotones import (
    DEFAULT_CLASS_TOL,
    bipartite_negativity,
    classify_entanglement,
    classify_incompatibility,
    concurrence,
    entanglement_profile,
    incompatibility,
    nonlocality_class,
    tripartite_negativity,
)
from tribell.qcore import Observable, PureState, reduced_density

GHZ = PureState.from_vector(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2))
W = PureState.from_vector(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3))
PRODUCT = PureState.from_vector(np.eye(8)[0])
# Bell pair on AB, party C in |0>
BELL_AB = PureState.from_vector(np.array([1, 0, 0, 0, 0, 0, 1, 0]) / math.sqrt(2))

SIGMA_Z = Observable.from_bloch(0, 0, 1)
SIGMA_X = Observable.from_bloch(1, 0, 0)


def random_state(gen) -> PureState:
    return PureState.from_vector(gen.normal(size=8) + 1j * gen.normal(size=8),
                                 normalize=True)


def random_unitary(gen) -> np.ndarray:
    mat = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
    q, r = np.linalg.qr(mat)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_local(state: PureState, u1, u2, u3) -> PureState:
    full = np.kron(np.kron(u1, u2), u3)
    return PureState.from_vector(full @ state.amplitudes, normalize=True)


def test_concurrence_known_values():
    assert concurrence(reduced_density(BELL_AB, "AB")) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(reduced_density(PRODUCT, "AB")) == pytest.approx(0.0, abs=1e-12)
    assert concurrence(reduced_density(GHZ, "AB")) == pytest.approx(0.0, abs=1e-12)
    for pair in ("AB", "AC", "BC"):
        assert concurrence(reduced_density(W, pair)) == pytest.approx(2 / 3, abs=1e-12)


def test_negativity_known_values():
    assert tripartite_negativity(GHZ) == pytest.approx(1.0, abs=1e-12)
    assert tripartite_negativity(W) == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-12)
    assert tripartite_negativity(PRODUCT) == pytest.approx(0.0, abs=1e-12)
    # one separable cut kills the geometric mean
    assert tripartite_negativity(BELL_AB) == pytest.approx(0.0, abs=1e-9)
    assert bipartite_negativity(BELL_AB, "A") == pytest.approx(1.0, abs=1e-12)
    assert bipartite_negativity(BELL_AB, "C") == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        bipartite_negativity(GHZ, "D")


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_monotones_stay_in_range(seed):
    gen = np.random.default_rng(seed)
    state = random_state(gen)
    profile = entanglement_profile(state)
    for value in (profile.n_abc, profile.c_ab, profile.c_ac, profile.c_bc):
        assert -1e-12 <= value <= 1 + 1e-12
    assert 0 <= profile.class_id <= 11


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_local_unitary_invariance(seed):
    gen = np.random.default_rng(seed)
    state = random_state(gen)
    rotated = apply_local(state, *(random_unitary(gen) for _ in range(3)))
    before = entanglement_profile(state)
    after = entanglement_profile(rotated)
    assert after.n_abc == pytest.approx(before.n_abc, abs=1e-9)
    assert after.c_ab == pytest.approx(before.c_ab, abs=1e-9)
    assert after.c_ac == pytest.approx(before.c_ac, abs=1e-9)
    assert after.c_bc == pytest.approx(before.c_bc, abs=1e-9)


def test_incompatibility_known_values():
    assert incompatibility(SIGMA_Z, SIGMA_X) == pytest.approx(1.0, abs=1e-12)
    assert incompatibility(SIGMA_Z, SIGMA_Z) == pytest.approx(0.0, abs=1e-12)
    assert incompatibility(SIGMA_Z, Observable.from_bloch(0, 0, -1)) == pytest.approx(
        0.0, abs=1e-12)
    assert incompatibility(SIGMA_Z, Observable.identity(1)) == pytest.approx(
        0.0, abs=1e-12)
    assert incompatibility(Observable.identity(-1), Observable.identity(1)) == 0.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_incompatibility_symmetric_bounded_and_rotation_invariant(seed):
    gen = np.random.default_rng(seed)
    v1, v2 = gen.normal(size=3), gen.normal(size=3)
    v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
    o1, o2 = Observable.from_bloch(*v1), Observable.from_bloch(*v2)
    value = incompatibility(o1, o2)
    assert 0 <= value <= 1 + 1e-12
    assert incompatibility(o2, o1) == pytest.approx(value, abs=1e-12)
    rot, _ = np.linalg.qr(gen.normal(size=(3, 3)))
    r1, r2 = Observable.from_bloch(*(rot @ v1), normalize=True), Observable.from_bloch(
        *(rot @ v2), normalize=True)
    assert incompatibility(r1, r2) == pytest.approx(value, abs=1e-9)


def test_incompatibility_grows_with_angle():
    values = [incompatibility(SIGMA_Z, Observable.from_bloch(
        math.sin(theta), 0.0, math.cos(theta))) for theta in np.linspace(0, math.pi / 2, 10)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[-1] == pytest.approx(1.0, abs=1e-12)


def test_entanglement_classes_of_archetypes():
    assert entanglement_profile(PRODUCT).class_id == 0
    assert entanglement_profile(BELL_AB).class_id == 2
    assert entanglement_profile(GHZ).class_id == 11
    assert entanglement_profile(W).class_id == 6


def test_classify_entanglement_matches_profile():
    gen = np.random.default_rng(19)
    for _ in range(20):
        profile = entanglement_profile(random_state(gen))
        assert profile.class_id == classify_entanglement(
            profile.n_abc, profile.c_ab, profile.c_ac, profile.c_bc,
            tol=DEFAULT_CLASS_TOL)


def test_incompatibility_classes_of_archetypes():
    mub = (SIGMA_Z, SIGMA_X)
    idle = (Observable.identity(1), Observable.identity(1))
    assert classify_incompatibility(idle * 3).class_id == 0
    assert classify_incompatibility(mub + mub + idle).class_id == 4
    assert classify_incompatibility(mub * 3).class_id == 11
    profile = classify_incompatibility(mub * 3)
    assert (profile.i_a, profile.i_b, profile.i_c) == (1.0, 1.0, 1.0)


def test_classify_incompatibility_requires_six():
    with pytest.raises(ValueError):
        classify_incompatibility((SIGMA_Z, SIGMA_X))


def test_nonlocality_class_agrees_with_profiles():
    for ident in (2, 3, 26, 43):
        solution = fixture_solution(ident)
        pair = nonlocality_class(ident, solution)
        assert pair.entanglement_class == entanglement_profile(solution.state).class_id
        assert pair.incompatibility_class == classify_incompatibility(
            solution.measurements).class_id


def test_nonlocality_class_known_pairs():
    pair = nonlocality_class(26, fixture_solution(26))
    assert (pair.entanglement_class, pair.incompatibility_class) == (5, 11)
    pair = nonlocality_class(43, fixture_solution(43))
    assert (pair.entanglement_class, pair.incompatibility_class) == (2, 4)


def test_nonlocality_class_tolerances_and_error_label():
    solution = fixture_solution(26)
    pair = nonlocality_class(26, solution, tol=1e-3, incompatibility_tol=1e-6)
    assert pair.entanglement == entanglement_profile(solution.state, 1e-3)
    assert pair.incompatibility == classify_incompatibility(solution.measurements, 1e-6)
    with pytest.raises(ValueError, match="^inequality 26: tol must be positive"):
        nonlocality_class(26, solution, tol=0.0)


def test_fixture_class_pairs():
    """The class pair of each published optimum is its published pair."""
    for ident in (2, 3, 26, 43):
        pair = nonlocality_class(ident, fixture_solution(ident))
        assert (pair.entanglement_class, pair.incompatibility_class) == (
            fixture_record(ident).class_pair)
