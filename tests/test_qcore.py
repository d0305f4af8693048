import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tribell.bell_expr import parse_expression
from tribell.qcore import (
    MINUS_IDENTITY,
    PLUS_IDENTITY,
    Observable,
    PureState,
    bell_operator,
    bell_operators,
    correlations,
    expectation,
    observable_matrix,
    observable_rows,
    partial_transpose,
    reduced_density,
    sigma_x,
    sigma_y,
    sigma_z,
    slot_response,
)

rng = np.random.default_rng(20260817)


def random_state(gen=rng) -> PureState:
    vec = gen.normal(size=8) + 1j * gen.normal(size=8)
    return PureState.from_vector(vec, normalize=True)


def random_bloch(gen=rng):
    vec = gen.normal(size=3)
    return vec / np.linalg.norm(vec)


unit_blochs = st.builds(
    lambda seed: tuple(random_bloch(np.random.default_rng(seed))),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def test_pure_state_requires_eight_amplitudes():
    with pytest.raises(ValueError):
        PureState(np.ones(4) / 2)


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValueError):
        PureState(np.full(8, 0.5))
    PureState(np.full(8, 1 / np.sqrt(8)))  # fine


def test_from_vector_normalizes():
    state = PureState.from_vector(np.arange(1, 9, dtype=float), normalize=True)
    assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12
    with pytest.raises(ValueError):
        PureState.from_vector(np.arange(1, 9, dtype=float))


def test_density_is_a_projector():
    state = random_state()
    rho = state.density()
    assert np.allclose(rho, rho.conj().T)
    assert np.allclose(rho @ rho, rho)
    assert abs(np.trace(rho) - 1) < 1e-12


def test_identity_observables():
    assert PLUS_IDENTITY.is_identity and PLUS_IDENTITY.sign == 1
    assert MINUS_IDENTITY.sign == -1
    assert np.allclose(observable_matrix(MINUS_IDENTITY), -np.eye(2))
    with pytest.raises(ValueError):
        Observable.identity(2)


def test_from_bloch_validates_norm():
    with pytest.raises(ValueError):
        Observable.from_bloch(0.5, 0.0, 0.5)
    obs = Observable.from_bloch(3.0, 0.0, 4.0, normalize=True)
    assert np.allclose(obs.vector, (0.6, 0.0, 0.8))


@given(unit_blochs)
def test_observable_matrix_is_hermitian_and_unimodular(bloch):
    matrix = observable_matrix(Observable.from_bloch(*bloch, normalize=True))
    assert np.max(np.abs(matrix - matrix.conj().T)) < 1e-12
    # n . sigma squares to the identity for unit n
    assert np.allclose(matrix @ matrix, np.eye(2), atol=1e-12)


def test_pauli_matrices():
    z = observable_matrix(Observable.from_bloch(0, 0, 1))
    x = observable_matrix(Observable.from_bloch(1, 0, 0))
    y = observable_matrix(Observable.from_bloch(0, 1, 0))
    assert np.allclose(z, np.diag([1, -1]))
    assert np.allclose(x, np.array([[0, 1], [1, 0]]))
    assert np.allclose(y, np.array([[0, -1j], [1j, 0]]))


def _product_state(v1, v2, v3) -> PureState:
    vec = np.kron(np.kron(v1, v2), v3)
    return PureState.from_vector(vec, normalize=True)


def _single_expectations(vectors, observables):
    out = []
    for vec, obs in zip(vectors, observables):
        matrix = observable_matrix(obs)
        vec = vec / np.linalg.norm(vec)
        out.append(float(np.real(vec.conj() @ matrix @ vec)))
    return out


def test_bell_operator_factorizes_on_product_states():
    """On product states the expression value is the product formula,
    which pins both the term-to-slot wiring and the tensor order."""
    gen = np.random.default_rng(7)
    expr = parse_expression("2 A + BC - ABC + 3 abc - Ab")
    for _ in range(25):
        vectors = [gen.normal(size=2) + 1j * gen.normal(size=2) for _ in range(3)]
        observables = tuple(Observable.from_bloch(*random_bloch(gen)) for _ in range(6))
        state = _product_state(*vectors)
        got = expectation(state, bell_operator(expr, observables))
        single = {}
        for party in range(3):
            vec = vectors[party]
            single[(party, 1)] = _single_expectations([vec], [observables[2 * party]])[0]
            single[(party, 2)] = _single_expectations([vec], [observables[2 * party + 1]])[0]
            single[(party, 0)] = 1.0
        want = sum(
            coeff * single[(0, t[0])] * single[(1, t[1])] * single[(2, t[2])]
            for t, coeff in expr.coeffs.items()
        )
        assert abs(got - want) < 1e-10


def test_bell_operator_with_identity_slots():
    expr = parse_expression("A + a")
    operator = bell_operator(expr, (PLUS_IDENTITY, MINUS_IDENTITY) + (PLUS_IDENTITY,) * 4)
    assert np.allclose(operator, np.zeros((8, 8)))


def test_expectation_is_real_for_hermitian_operators():
    state = random_state()
    matrix = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    matrix = matrix + matrix.conj().T
    value = expectation(state, matrix)
    assert isinstance(value, float)
    direct = state.amplitudes.conj() @ matrix @ state.amplitudes
    assert abs(value - direct.real) < 1e-10


def test_reduced_density_traces_and_known_states():
    ghz = PureState.from_vector(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))
    for keep in ("AB", "AC", "BC"):
        rho = reduced_density(ghz, keep)
        assert rho.shape == (4, 4)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.allclose(rho, np.diag([0.5, 0, 0, 0.5]))
    vecs = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3)]
    product = _product_state(*vecs)
    rho_ab = reduced_density(product, "AB")
    assert abs(np.trace(rho_ab @ rho_ab) - 1) < 1e-10  # pure reduced state


def test_reduced_density_pair_handling():
    state = random_state()
    assert np.allclose(reduced_density(state, "CA"), reduced_density(state, "AC"))
    with pytest.raises(ValueError):
        reduced_density(state, "AA")
    with pytest.raises(KeyError):
        reduced_density(state, "AD")


def random_density(gen, dim=4):
    mat = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from((0, 1)))
def test_partial_transpose_involution_and_trace(seed, subsystem):
    rho = random_density(np.random.default_rng(seed))
    pt = partial_transpose(rho, subsystem)
    assert np.max(np.abs(partial_transpose(pt, subsystem) - rho)) < 1e-14
    assert abs(np.trace(pt) - np.trace(rho)) < 1e-14
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-14


def test_partial_transpose_detects_bell_pair():
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell)
    eigs = np.linalg.eigvalsh(partial_transpose(rho, 0))
    assert eigs[0] == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_positive_on_products():
    gen = np.random.default_rng(11)
    v1, v2 = gen.normal(size=2) + 1j * gen.normal(size=2), gen.normal(size=2)
    vec = np.kron(v1, v2)
    vec = vec / np.linalg.norm(vec)
    rho = np.outer(vec, vec.conj())
    for subsystem in (0, 1):
        assert np.linalg.eigvalsh(partial_transpose(rho, subsystem))[0] > -1e-12


def _random_slot(gen) -> Observable:
    """A Bloch observable, or ±identity one time in three."""
    pick = int(gen.integers(3))
    if pick == 0:
        return Observable.from_bloch(*random_bloch(gen))
    return PLUS_IDENTITY if pick == 1 else MINUS_IDENTITY


def _kron_reference(expr, observables) -> np.ndarray:
    """Sum of T_ijk kron(A_i, B_j, C_k), with index 0 the identity."""
    stacks = [[np.eye(2), observable_matrix(observables[2 * p]),
               observable_matrix(observables[2 * p + 1])] for p in range(3)]
    tensor = expr.tensor()
    operator = np.zeros((8, 8), dtype=complex)
    for i, j, k in np.ndindex(3, 3, 3):
        if tensor[i, j, k]:
            operator += tensor[i, j, k] * np.kron(
                np.kron(stacks[0][i], stacks[1][j]), stacks[2][k])
    return operator


def test_bell_operator_matches_kron_reference():
    gen = np.random.default_rng(31)
    expr = parse_expression("2 A - a + BC - 3 ABC + abc - Ab + 4 aBc + bC")
    for _ in range(40):
        observables = tuple(_random_slot(gen) for _ in range(6))
        operator = bell_operator(expr, observables)
        reference = _kron_reference(expr, observables)
        assert np.max(np.abs(operator - reference)) < 1e-12
        # Random entangled states see the same quadratic form.
        state = random_state(gen)
        assert abs(expectation(state, operator) - expectation(state, reference)) < 1e-12


def test_batched_kernel_matches_single_calls():
    gen = np.random.default_rng(32)
    expr = parse_expression("ABC + abC + aBc - Abc + 2 aB - c")
    tensor = expr.tensor().astype(float)
    batch = [tuple(_random_slot(gen) for _ in range(6)) for _ in range(7)]
    states = np.array([random_state(gen).amplitudes for _ in batch])
    rows = np.array([observable_rows(observables) for observables in batch])
    operators = bell_operators(tensor, rows)
    corr = correlations(states)
    for n, observables in enumerate(batch):
        single_operator = bell_operator(expr, observables)
        assert np.max(np.abs(operators[n] - single_operator)) < 1e-12
        state = PureState(states[n])
        value = expectation(state, operators[n])
        for party in range(3):
            single = slot_response(tensor, rows[n:n + 1],
                                   correlations(states[n:n + 1]), party)
            batched = slot_response(tensor, rows, corr, party)[n]
            assert np.allclose(batched, single[0], rtol=0.0, atol=1e-12)
            # The value is linear in each party's rows through its response.
            assert abs(np.sum(rows[n, party] * batched) - value) < 1e-12


def _xz_slot(gen) -> Observable:
    """Like _random_slot, with the Bloch vector in the x-z plane."""
    obs = _random_slot(gen)
    if obs.is_identity:
        return obs
    x, _, z = obs.vector
    return Observable.from_bloch(x, 0.0, z, normalize=True)


def test_bell_operators_of_xz_rows_are_real():
    gen = np.random.default_rng(33)
    expr = parse_expression("2 A - a + BC - 3 ABC + abc - Ab + 4 aBc + bC - c")
    tensor = expr.tensor().astype(float)
    batch = [tuple(_xz_slot(gen) for _ in range(6)) for _ in range(25)]
    rows = np.array([observable_rows(observables) for observables in batch])
    operators = bell_operators(tensor, rows)
    assert operators.dtype == np.float64
    assert np.array_equal(operators, np.swapaxes(operators, 1, 2))
    for observables, operator in zip(batch, operators):
        assert np.max(np.abs(operator - _kron_reference(expr, observables))) < 1e-12
    # One row with a y component makes the whole batch complex; the other
    # operators are unchanged.
    rows[3, 1, 2] = (0.0, *random_bloch(gen))
    mixed = bell_operators(tensor, rows)
    assert mixed.dtype == complex
    others = np.arange(25) != 3
    assert np.array_equal(mixed[others].real, operators[others])
    assert np.all(mixed[others].imag == 0.0)


def test_correlations_match_kron_reference():
    gen = np.random.default_rng(36)
    paulis = [np.eye(2), sigma_x, sigma_y, sigma_z]
    for _ in range(5):
        state = random_state(gen)
        corr = correlations(state.amplitudes[None])[0]
        for mu, nu, lam in np.ndindex(4, 4, 4):
            operator = np.kron(np.kron(paulis[mu], paulis[nu]), paulis[lam])
            assert abs(corr[mu, nu, lam] - expectation(state, operator)) < 1e-12


def test_correlations_of_real_states_are_real_and_exact():
    gen = np.random.default_rng(34)
    states = gen.normal(size=(12, 8))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    real_corr = correlations(states)
    complex_corr = correlations(states.astype(complex))
    assert real_corr.dtype == np.float64
    assert np.array_equal(real_corr, complex_corr)
    # The entries with two y indices are not zero.
    assert np.max(np.abs(complex_corr[:, 2, 2, 0])) > 1e-3


def test_lone_row_equals_its_row_in_a_batch():
    """Every batch entry's Kronecker product is computed on its own, so an
    operator or correlation tensor has the same bits alone as in a batch."""
    gen = np.random.default_rng(35)
    expr = parse_expression("2 A - a + BC - 3 ABC + abc - Ab + 4 aBc + bC - c")
    tensor = expr.tensor().astype(float)
    for slot in (_xz_slot, _random_slot):
        rows = np.array([observable_rows([slot(gen) for _ in range(6)]) for _ in range(25)])
        operators = bell_operators(tensor, rows)
        for n in range(25):
            assert np.array_equal(bell_operators(tensor, rows[n:n + 1])[0], operators[n])
    for states in (gen.normal(size=(25, 8)),
                   gen.normal(size=(25, 8)) + 1j * gen.normal(size=(25, 8))):
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        corr = correlations(states)
        for n in range(25):
            assert np.array_equal(correlations(states[n:n + 1])[0], corr[n])
