import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tribell
import tribell.npa as npa
from tribell.bell_expr import BellExpression, catalog_entry, local_bound, parse_expression
from tribell.npa import (
    LEVELS,
    SdpParams,
    build_moment_problem,
    canonicalize_word,
    generate_words,
    npa_upper_bound,
    rigor_margin,
    sdp_maximize,
)
from tribell.seesaw import SeesawParams, quantum_maximum

from conftest import CERTIFY_SDP

CHSH = parse_expression("AB + Ab + aB - ab")
MERMIN = catalog_entry(2).expression

QUICK_SDP = SdpParams(tolerance=1e-8, max_iterations=200000)

symbols = st.tuples(st.sampled_from((1, 2, 3)), st.sampled_from((1, 2)))
words = st.lists(symbols, max_size=6).map(tuple)


# SHA-256 of repr(generate_words(level)): each level's word list, content
# and order, as the hand-written lists gave it. Gamma's layout, and so every
# iterate of a solve, follows this order.
WORD_LIST_SHA256 = {
    "Q1": "7498fc7179ebb6233eecc6a8256221d5ffefd4b3f5870d41d10ff728cad6f9eb",
    "1+AB": "2b81cf08296efb5468ec00e3e39a611de2b3d6b5b02d07d0baf7e64f02dff676",
    "AQ": "1b8711ac22a8368d74434196f3a874b4fb728ef07e4c0106d5241af160b67d36",
    "Q2": "b05cbbfe9969e1bf86ac435357bb9c6d6634f09235ecc0e00f62662b3ca8483e",
}


def test_level_sizes_and_identity_first():
    sizes = {"Q1": 7, "1+AB": 19, "AQ": 27, "Q2": 25}
    assert tuple(sizes) == LEVELS
    for level in LEVELS:
        generated = generate_words(level)
        assert len(generated) == sizes[level]
        digest = hashlib.sha256(repr(generated).encode()).hexdigest()
        assert digest == WORD_LIST_SHA256[level], level
        assert generated[0] == ()
        assert len(set(generated)) == len(generated)
        for word in generated:
            assert canonicalize_word(word) == word


def test_generate_words_rejects_unknown_level():
    with pytest.raises(ValueError):
        generate_words("no such level")


def test_canonicalize_examples():
    assert canonicalize_word(((2, 1), (1, 1))) == ((1, 1), (2, 1))
    assert canonicalize_word(((1, 1), (1, 1))) == ()
    assert canonicalize_word(((1, 2), (1, 1))) == ((1, 2), (1, 1))
    assert canonicalize_word(((3, 1), (1, 2), (3, 1))) == ((1, 2),)
    assert canonicalize_word(((1, 1), (1, 2), (1, 2), (1, 1))) == ()
    assert canonicalize_word(()) == ()
    with pytest.raises(ValueError):
        canonicalize_word(((4, 1),))
    with pytest.raises(ValueError):
        canonicalize_word(((1, 0),))


@given(words)
def test_canonicalize_is_idempotent_and_party_sorted(word):
    canonical = canonicalize_word(word)
    assert canonicalize_word(canonical) == canonical
    parties = [party for party, _ in canonical]
    assert parties == sorted(parties)
    for first, second in zip(canonical, canonical[1:]):
        assert first != second


@given(words)
def test_canonicalize_word_times_its_reverse_is_identity(word):
    """Every observable squares to the identity, so w reverse(w) = 1."""
    assert canonicalize_word(word + tuple(reversed(word))) == ()


@given(words)
def test_canonicalize_keeps_symbol_parity(word):
    """Cancellation removes equal symbols in pairs."""
    canonical = canonicalize_word(word)
    for symbol in set(word):
        assert canonical.count(symbol) % 2 == word.count(symbol) % 2


def test_objective_reads_correlator_coefficients():
    problem = build_moment_problem(parse_expression("2 + AB - abC"), "AQ")
    index = problem.structure.class_index
    expected = np.zeros(len(index))
    expected[index[((1, 1), (2, 1))]] = 1
    expected[index[((1, 2), (2, 2), (3, 1))]] = -1
    assert np.array_equal(problem.weights, expected)
    assert problem.constant == 2


def test_diagonal_cells_are_identity_at_every_level():
    for level in LEVELS:
        problem = build_moment_problem(CHSH, level)
        n = problem.size
        diagonal = problem.structure.cell_class.reshape(n, n).diagonal()
        assert np.all(diagonal == problem.structure.class_index[()]), level


def test_moment_problem_cells_follow_word_algebra():
    problem = build_moment_problem(CHSH, "Q1")
    structure = problem.structure
    n = problem.size
    reps = sorted(structure.class_index, key=structure.class_index.get)
    assert reps == sorted(reps)
    assert np.array_equal(structure.counts, np.bincount(structure.cell_class))
    for rep in reps:
        assert canonicalize_word(rep) == rep
    for cell, k in enumerate(structure.cell_class):
        i, j = divmod(cell, n)
        u, v = structure.words[i], structure.words[j]
        word = canonicalize_word(tuple(reversed(u)) + v)
        reverse = canonicalize_word(tuple(reversed(word)))
        assert reps[k] == min(word, reverse)


def test_moment_problem_is_symmetric():
    problem = build_moment_problem(MERMIN, "AQ")
    n = problem.size
    cell_class = problem.structure.cell_class.reshape(n, n)
    assert np.array_equal(cell_class, cell_class.T)


def test_moment_problem_objective_reachability():
    with pytest.raises(ValueError, match=r"unreachable at level Q1: \[\(\(1, 1\), \(2, 1\), \(3, 1\)\)"):
        build_moment_problem(MERMIN, "Q1")
    build_moment_problem(MERMIN, "1+AB")  # fine
    build_moment_problem(CHSH, "Q1")  # bipartite fits the lowest level


def test_sdp_params_validation():
    with pytest.raises(ValueError):
        SdpParams(tolerance=0.0)
    with pytest.raises(ValueError):
        SdpParams(tolerance=float("nan"))
    with pytest.raises(ValueError):
        SdpParams(tolerance=float("inf"))
    with pytest.raises(ValueError):
        SdpParams(max_iterations=0)
    with pytest.raises(ValueError):
        SdpParams(adapt_interval=0)
    # Counts are integers, the tolerance a real number; bool is neither.
    for bad in ({"max_iterations": 10.5}, {"adapt_interval": 2.5}, {"max_iterations": True},
                {"adapt_interval": True}, {"tolerance": True}, {"tolerance": "1e-8"}):
        with pytest.raises(ValueError):
            SdpParams(**bad)


def test_chsh_tsirelson_bound():
    for level in ("Q1", "1+AB", "AQ"):
        bound = npa_upper_bound(CHSH, level, QUICK_SDP)
        assert bound == pytest.approx(2 * math.sqrt(2), abs=5e-6)
        assert bound >= 2 * math.sqrt(2) - 1e-8


def test_mermin_bound_at_1ab():
    bound = npa_upper_bound(MERMIN, "1+AB", QUICK_SDP)
    assert bound == pytest.approx(4.0, abs=1e-5)
    assert bound >= 4.0 - 1e-8


def test_deeper_levels_never_loosen():
    problem_ab = build_moment_problem(MERMIN, "1+AB")
    problem_aq = build_moment_problem(MERMIN, "AQ")
    ab = sdp_maximize(problem_ab, QUICK_SDP)
    aq = sdp_maximize(problem_aq, QUICK_SDP)
    assert aq.objective_value <= ab.objective_value + 1e-6


def test_upper_bound_dominates_seesaw():
    for ident in (4, 7):
        expr = catalog_entry(ident).expression
        seesaw = quantum_maximum(expr, SeesawParams(restarts=20))
        bound = npa_upper_bound(expr, "AQ", QUICK_SDP)
        assert bound >= seesaw.value - 1e-6


def test_solution_record_fields():
    problem = build_moment_problem(CHSH, "Q1")
    solution = sdp_maximize(problem, QUICK_SDP)
    assert solution.status == "converged"
    assert solution.primal_residual < QUICK_SDP.tolerance
    assert solution.dual_residual < QUICK_SDP.tolerance
    assert solution.iterations <= QUICK_SDP.max_iterations
    assert solution.moment_values[()] == 1.0
    # Tsirelson correlators <A_x B_y> = +-1/sqrt(2) in the CHSH sign pattern,
    # and zero marginals.
    for x, y in ((1, 1), (1, 2), (2, 1), (2, 2)):
        sign = -1 if (x, y) == (2, 2) else 1
        moment = solution.moment_values[((1, x), (2, y))]
        assert moment == pytest.approx(sign / math.sqrt(2), abs=1e-5)
    for word in generate_words("Q1")[1:]:
        assert solution.moment_values[word] == pytest.approx(0.0, abs=1e-5)
    assert solution.gamma.shape == (7, 7)
    assert np.allclose(solution.gamma, solution.gamma.T)
    margin = rigor_margin(problem, solution)
    assert 0 <= margin < 1e-5
    assert solution.bound == solution.objective_value + margin


def test_non_convergence_raises():
    starving = SdpParams(max_iterations=5, tolerance=1e-12)
    with pytest.raises(RuntimeError, match="iteration cap"):
        npa_upper_bound(CHSH, "1+AB", starving)
    problem = build_moment_problem(CHSH, "1+AB")
    solution = sdp_maximize(problem, starving)
    assert solution.status == "max_iterations"
    assert solution.iterations == 5


@pytest.mark.parametrize("ident, level", [(41, "AQ"), (28, "1+AB")])
def test_slowest_certification_solves_converge_quickly(ident, level):
    """Anderson acceleration cuts ADMM's linear tail: these two solves
    take thousands of plain ADMM iterations and at most 500 accelerated."""
    problem = build_moment_problem(catalog_entry(ident).expression, level)
    solution = sdp_maximize(problem, CERTIFY_SDP)
    assert solution.status == "converged"
    assert solution.iterations <= 500


def test_level_structure_is_shared_and_read_only():
    chsh, mermin = build_moment_problem(CHSH, "AQ"), build_moment_problem(MERMIN, "AQ")
    assert chsh.structure is mermin.structure
    assert build_moment_problem(CHSH, "1+AB").structure is not chsh.structure
    structure = chsh.structure
    for array in (structure.cell_class, structure.counts, chsh.weights):
        with pytest.raises(ValueError):
            array[0] = 0
    with pytest.raises(TypeError):
        structure.class_index[()] = 0


def _after_cli_import(expression: str, run: str = "") -> str:
    """What ``expression`` (over ``npa``) prints in a fresh interpreter
    that has imported the command line, as every start does, and then
    run the statement ``run``."""
    src = str(Path(tribell.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = f"import tribell.cli, tribell.npa as npa\n{run}\nprint({expression})"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return result.stdout.strip()


def test_import_builds_no_level():
    """The structures are built on first use, so importing the package
    (which the command line does at every start) costs nothing for them."""
    assert _after_cli_import("npa._level_structure.cache_info().currsize") == "0"


def test_import_looks_up_no_blas():
    """The OpenBLAS thread functions are looked up on the first solve,
    so the command line's start-up time does not include the search."""
    assert _after_cli_import("npa._openblas_threads.cache_info().currsize") == "0"


def test_seesaw_looks_up_no_blas():
    """Only the moment-matrix solve holds OpenBLAS: a seesaw pool neither
    looks up nor sets the thread count."""
    run = ("from tribell.seesaw import SeesawParams, quantum_maxima\n"
           "exprs = [tribell.cli.catalog_entry(i).expression for i in (2, 26)]\n"
           "quantum_maxima(exprs, SeesawParams(restarts=20))")
    assert _after_cli_import("npa._openblas_threads.cache_info().currsize", run) == "0"


def test_solve_holds_openblas_at_one_thread(monkeypatch, openblas_at_two_threads):
    """The iteration's eigendecompositions run on one OpenBLAS thread, and
    the earlier count comes back after a solve, after an exception and
    after nested holds."""
    get = openblas_at_two_threads
    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(matrix):
        seen.append(get())
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    solution = sdp_maximize(build_moment_problem(MERMIN, "1+AB"), QUICK_SDP)
    assert solution.status == "converged"
    assert len(seen) == solution.iterations
    assert set(seen) == {1}
    assert get() == 2
    with pytest.raises(RuntimeError, match="inside"):
        with npa._one_blas_thread:
            assert get() == 1
            raise RuntimeError("inside")
    assert get() == 2
    with npa._one_blas_thread:
        with npa._one_blas_thread:
            assert get() == 1
        assert get() == 1
    assert get() == 2


def test_concurrent_solves_restore_the_thread_count(openblas_at_two_threads):
    """Holds from several threads overlap; the count the first one saved
    comes back once the last one ends."""
    get = openblas_at_two_threads
    problem = build_moment_problem(CHSH, "Q1")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(sdp_maximize, problem, QUICK_SDP) for _ in range(64)]
            solutions = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(solution.status == "converged" for solution in solutions)
    assert get() == 2


# A stand-in library that exports OpenBLAS's thread-count functions and
# does nothing else.
_STAND_IN_BLAS = """
static int threads = 3;
int openblas_get_num_threads(void) { return threads; }
void openblas_set_num_threads(int n) { threads = n; }
"""


def _numpy_openblas():
    """The (get, set) thread-count functions of the OpenBLAS in a numpy
    wheel's ``numpy.libs`` directory, found by file name rather than
    through the lookup under test; skips where there is none."""
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        library = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        for get_name, set_name in npa._OPENBLAS_THREAD_SYMBOLS:
            if hasattr(library, get_name):
                get, set_ = getattr(library, get_name), getattr(library, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    pytest.skip("numpy's OpenBLAS is not in a wheel's numpy.libs directory")


def test_the_hold_sets_numpys_openblas_beside_another_blas(tmp_path, monkeypatch):
    """With another library that exports OpenBLAS's thread functions
    loaded, the solve still runs numpy's ``eigh`` on one thread of
    numpy's OpenBLAS, and leaves the other library's count alone."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        pytest.skip("no C compiler")
    get, set_ = _numpy_openblas()
    source = tmp_path / "stand_in.c"
    source.write_text(_STAND_IN_BLAS)
    library = tmp_path / "libstandinblas.so"
    subprocess.run([compiler, "-shared", "-fPIC", "-o", str(library), str(source)], check=True)
    stand_in_get = ctypes.CDLL(str(library)).openblas_get_num_threads
    stand_in_get.argtypes, stand_in_get.restype = [], ctypes.c_int
    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(matrix):
        seen.append(get())
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    original = get()
    set_(2)
    npa._openblas_threads.cache_clear()
    try:
        solution = sdp_maximize(build_moment_problem(CHSH, "1+AB"), QUICK_SDP)
        after = get()
    finally:
        set_(original)
        npa._openblas_threads.cache_clear()
    assert solution.status == "converged"
    assert len(seen) == solution.iterations
    assert set(seen) == {1}
    assert after == 2
    assert stand_in_get() == 3


def test_rigor_margin_is_floored_at_the_tolerance():
    problem = build_moment_problem(MERMIN, "1+AB")
    coefficient_norm = sum(abs(c) for term, c in MERMIN.coeffs.items() if any(term))
    solution = sdp_maximize(problem, QUICK_SDP)
    assert solution.status == "converged"
    assert max(solution.primal_residual, solution.dual_residual) < QUICK_SDP.tolerance
    margin = rigor_margin(problem, solution)
    assert margin == 10.0 * QUICK_SDP.tolerance * coefficient_norm
    assert solution.bound == solution.objective_value + margin

    capped = sdp_maximize(problem, SdpParams(max_iterations=5))
    assert capped.status == "max_iterations"
    residual = max(capped.primal_residual, capped.dual_residual)
    assert residual > capped.tolerance
    assert rigor_margin(problem, capped) == 10.0 * residual * coefficient_norm


def test_aq_and_1ab_agree_on_row_44():
    """Row 44's two levels have one optimum; their bounds, each with the
    same tolerance-set margin, may differ only by the solves' accuracy."""
    expr = catalog_entry(44).expression
    aq = npa_upper_bound(expr, "AQ", CERTIFY_SDP)
    one_ab = npa_upper_bound(expr, "1+AB", CERTIFY_SDP)
    assert abs(aq - one_ab) < 1e-8


def test_adaptation_counters():
    """Unbalanced residuals make rho adapt; the safeguard rejects some
    extrapolations on the way. For id 4 at AQ the check at iteration 20
    finds the dual residual about 26 times the primal, well past the
    factor of 10 that adapts rho."""
    problem = build_moment_problem(catalog_entry(4).expression, "AQ")
    solution = sdp_maximize(problem, SdpParams(adapt_interval=20))
    assert solution.status == "converged"
    assert solution.objective_value == pytest.approx(
        sdp_maximize(problem, QUICK_SDP).objective_value, abs=1e-6)
    assert solution.penalty_updates >= 1
    assert solution.rejected_steps >= 1
    assert solution.rejected_steps < solution.iterations


@pytest.mark.parametrize("k", [10, 1000, 10000])
def test_large_weights_are_solved_scaled(k):
    """Weights above 4 in magnitude are divided down to 4 for the solve,
    so the iteration count does not grow with them (unscaled, k = 10,000
    took 13,234 iterations); the objective and bound are in the caller's
    units. The maximum of k ABC + k aBc is 2k."""
    problem = build_moment_problem(parse_expression(f"{k} ABC + {k} aBc"), "1+AB")
    solution = sdp_maximize(problem)
    assert solution.status == "converged"
    assert solution.iterations <= 50
    margin = rigor_margin(problem, solution)
    assert solution.bound == solution.objective_value + margin
    assert abs(solution.objective_value - 2 * k) <= margin
    assert solution.bound >= 2 * k
    assert solution.moment_values[((1, 1), (2, 1), (3, 1))] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("text, weight", [("A", 1), ("2 A", 2), ("-A", 1), ("-2 C", 2)])
def test_one_term_marginals_converge(text, weight):
    """A one-term marginal w X has maximum |w|. Its solves can store
    differences that are all exactly 0, which must give the plain step,
    not a singular Anderson solve."""
    for level in LEVELS:
        solution = sdp_maximize(build_moment_problem(parse_expression(text), level), QUICK_SDP)
        assert solution.status == "converged", level
        assert abs(solution.objective_value - weight) <= QUICK_SDP.tolerance, level


# Objectives of one to three non-constant terms, each weighted +-1 or +-2.
TERMS = [term for term in product((0, 1, 2), repeat=3) if any(term)]
objectives = st.dictionaries(st.sampled_from(TERMS), st.sampled_from((1, -1, 2, -2)),
                             min_size=1, max_size=3).map(BellExpression)


@settings(max_examples=40)
@given(objectives, st.sampled_from(("1+AB", "AQ")))
@example(BellExpression({(1, 0, 0): 1}), "AQ")  # A
@example(BellExpression({(0, 0, 1): -2}), "1+AB")  # -2 C
def test_random_objectives_converge_above_the_local_bound(expr, level):
    solution = sdp_maximize(build_moment_problem(expr, level), QUICK_SDP)
    assert solution.status == "converged"
    assert solution.bound >= local_bound(expr)[0]


def test_anderson_never_solves_a_zero_normal_matrix(monkeypatch):
    """The normal matrix has trace 0 only when every stored difference is
    0; the step is then plain and ``np.linalg.solve`` is not called."""
    traces = []
    solve = np.linalg.solve

    def recording_solve(matrix, rhs):
        traces.append(np.trace(matrix))
        return solve(matrix, rhs)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    for text in ("A", "-2 C", "AB + Ab + aB - ab"):
        for level in ("1+AB", "AQ"):
            solution = sdp_maximize(build_moment_problem(parse_expression(text), level), QUICK_SDP)
            assert solution.status == "converged"
    assert traces
    assert min(traces) > 0
