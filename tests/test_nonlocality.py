import re
import warnings

import numpy as np
import pytest

from waveparticle import nonlocality, states
from waveparticle.nonlocality import (
    PAULIS,
    SIGMA_Y,
    chsh_bruteforce,
    chsh_nl,
    concurrence,
    correlation_matrix,
)
from waveparticle.states import (
    ValidationError,
    basis_state,
    hermitian_part,
    partial_trace,
    projector,
)

RNG = np.random.default_rng(404)


def bell_phi_plus():
    return (np.kron(basis_state(2, 0), basis_state(2, 0))
            + np.kron(basis_state(2, 1), basis_state(2, 1))) / np.sqrt(2)


def random_two_qubit(rng=RNG, rank=4):
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_su2(rng=RNG):
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def werner(x):
    return (1 - x) * np.eye(4, dtype=complex) / 4 + x * projector(bell_phi_plus())


def concurrence_by_eigenvalues(rho):
    """Textbook route: eigenvalues of rho rho~, decreasing square roots."""
    flip = np.kron(SIGMA_Y, SIGMA_Y)
    r = rho @ flip @ rho.conj() @ flip
    mu = np.sort(np.abs(np.linalg.eigvals(r).real))[::-1]
    roots = np.sqrt(np.clip(mu, 0.0, None))
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def test_correlation_matrix_bell():
    t = correlation_matrix(projector(bell_phi_plus()))
    np.testing.assert_allclose(t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)


def test_correlation_matrix_product():
    rho = np.kron(projector(basis_state(2, 0)), projector(basis_state(2, 0)))
    t = correlation_matrix(rho)
    np.testing.assert_allclose(t, np.diag([0.0, 0.0, 1.0]), atol=1e-12)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_correlation_matrix_matches_kron_oracle(rank):
    rng = np.random.default_rng(700 + rank)
    for _ in range(10):
        rho = random_two_qubit(rng, rank)
        oracle = np.array([[np.trace(rho @ np.kron(left, right)).real
                            for right in PAULIS] for left in PAULIS])
        np.testing.assert_allclose(correlation_matrix(rho), oracle, rtol=0, atol=1e-15)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_bruteforce_never_exceeds_closed_form(rank):
    rng = np.random.default_rng(800 + rank)
    for _ in range(10):
        rho = random_two_qubit(rng, rank)
        b_max, _ = chsh_nl(rho)
        for restarts in (1, 32):
            assert chsh_bruteforce(rho, restarts=restarts) <= b_max + 1e-9


def test_bruteforce_returns_best_restart():
    # after one sweep the restarts still disagree; the best of 32 is near the
    # optimum, the worst is typically far below it
    rng = np.random.default_rng(900)
    for _ in range(20):
        rho = random_two_qubit(rng)
        b_max, _ = chsh_nl(rho)
        assert chsh_bruteforce(rho, restarts=32, iterations=1) > b_max - 0.05


def test_chsh_nl_bell_state():
    b_max, n_l = chsh_nl(projector(bell_phi_plus()))
    assert b_max == pytest.approx(2 * np.sqrt(2), abs=1e-12)
    assert n_l == pytest.approx(1.0, abs=1e-12)


def test_chsh_nl_product_state():
    rho = np.kron(projector(basis_state(2, 0)), projector(basis_state(2, 1)))
    b_max, n_l = chsh_nl(rho)
    assert b_max <= 2.0 + 1e-12
    assert n_l == 0.0


def test_chsh_nl_werner_threshold():
    # violation starts at x = 1/sqrt(2)
    assert chsh_nl(werner(0.70))[1] == 0.0
    assert chsh_nl(werner(0.72))[1] > 0.0


def test_bell_operator_equals_kron_formula_bit_for_bit():
    rng = np.random.default_rng(130)
    for _ in range(20):
        a, a_prime, b, b_prime = (v / np.linalg.norm(v) for v in rng.standard_normal((4, 3)))

        def bloch(v):
            return v[0] * PAULIS[0] + v[1] * PAULIS[1] + v[2] * PAULIS[2]

        oracle = (np.kron(bloch(a), bloch(b + b_prime))
                  + np.kron(bloch(a_prime), bloch(b - b_prime)))
        assert nonlocality._bell_operator(a, a_prime, b, b_prime).tobytes() == oracle.tobytes()
    z, x = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    canonical = nonlocality._bell_operator(z, x, (z + x) / np.sqrt(2), (z - x) / np.sqrt(2))
    assert np.trace(projector(bell_phi_plus()) @ canonical).real == pytest.approx(
        2 * np.sqrt(2), abs=1e-12)


def test_bruteforce_matches_closed_form():
    for _ in range(10):
        rho = random_two_qubit()
        b_max, _ = chsh_nl(rho)
        estimate = chsh_bruteforce(rho, restarts=16, iterations=500)
        assert estimate == pytest.approx(b_max, abs=1e-6)
        assert estimate <= b_max + 1e-9


def test_bruteforce_is_deterministic():
    rho = random_two_qubit()
    assert chsh_bruteforce(rho, seed=5) == chsh_bruteforce(rho, seed=5)


def test_bruteforce_checks_hermiticity_once(monkeypatch):
    rho = random_two_qubit()
    expected = chsh_bruteforce(rho)
    calls = []

    def counting(m, **kwargs):
        calls.append(kwargs)
        return hermitian_part(m, **kwargs)

    for module in (states, nonlocality):
        monkeypatch.setattr(module, "hermitian_part", counting)
    assert chsh_bruteforce(rho) == expected
    assert len(calls) == 1


def test_unit_rows_keep_the_bits_of_the_norm_and_fall_back_on_zero_rows():
    rows = RNG.standard_normal((4, 5, 3))
    expected = rows / np.linalg.norm(rows, axis=-1, keepdims=True)
    fallback = np.broadcast_to([0.0, 0.0, 1.0], rows.shape)
    unit, norms = nonlocality._unit_rows(rows, fallback)
    assert np.array_equal(unit, expected)
    assert np.array_equal(norms, np.linalg.norm(rows, axis=-1, keepdims=True))
    rows[1, 2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit, norms = nonlocality._unit_rows(rows, fallback)
    assert np.array_equal(unit[1, 2], [0.0, 0.0, 1.0])
    assert norms[1, 2, 0] == 0.0
    kept = np.ones(rows.shape[:-1], dtype=bool)
    kept[1, 2] = False
    assert np.array_equal(unit[kept], expected[kept])


@pytest.mark.parametrize("measure", [
    correlation_matrix,
    chsh_nl,
    chsh_bruteforce,
    concurrence,
], ids=["correlation_matrix", "chsh_nl", "chsh_bruteforce", "concurrence"])
def test_rejects_non_hermitian_two_qubit_input(measure):
    bad = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    bad[0, 3] = 0.5
    with pytest.raises(ValidationError, match="Hermitian"):
        measure(bad)


def test_bruteforce_input_validation():
    with pytest.raises(ValueError):
        chsh_bruteforce(np.eye(4) / 4, restarts=0)


def non_density_two_qubit_states():
    """Hermitian matrices that are not states, with CHSH values past 2 sqrt(2)."""
    twice_bell = 2.0 * projector(bell_phi_plus())
    # unit trace, T = diag(1.5, 0, 1.5)
    unit_trace = (np.eye(4) + 1.5 * np.kron(PAULIS[0], PAULIS[0])
                  + 1.5 * np.kron(PAULIS[2], PAULIS[2])) / 4
    return twice_bell, unit_trace


def density_message(at, total, smallest):
    return re.escape(f"state{at} is not a density matrix: eigenvalues sum to ") + total + (
        re.escape(f", smallest {smallest} (tolerance 1.0e-09)") + "$")


@pytest.mark.parametrize("measure", [chsh_nl, chsh_bruteforce], ids=["chsh_nl", "chsh_bruteforce"])
def test_chsh_rejects_non_density_input(measure):
    twice_bell, unit_trace = non_density_two_qubit_states()
    # eigenvalues 0, 0, 0 and 2, the last one from the eigensolver's rounding
    twice_bell_sum = r"(2\.0|1\.9999\d*)"
    with pytest.raises(ValidationError, match=density_message("", twice_bell_sum, "0.000e+00")):
        measure(twice_bell)
    with pytest.raises(ValidationError, match=density_message("", r"1\.0", "-5.000e-01")):
        measure(unit_trace)
    stack = np.array([projector(bell_phi_plus())] * 3)
    stack[1] = unit_trace
    with pytest.raises(ValidationError, match=density_message(" [1]", r"1\.0", "-5.000e-01")):
        measure(stack)
    stack[1] = twice_bell
    with pytest.raises(ValidationError, match=density_message(" [1]", twice_bell_sum,
                                                              "0.000e+00")):
        measure(stack)


@pytest.mark.parametrize("measure", [chsh_nl, chsh_bruteforce], ids=["chsh_nl", "chsh_bruteforce"])
def test_chsh_rejects_a_negative_eigenvalue_at_unit_trace(measure):
    # T = 0, so neither the trace nor T^T T shows that this is not a state
    rho = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
    assert not np.any(correlation_matrix(rho))
    with pytest.raises(ValidationError, match=density_message("", r"1\.0", "-1.000e-01")):
        measure(rho)


def test_chsh_values_stay_within_tsirelson_bound():
    # pure states reach the eigenvalue 0 and a trace of 1 only up to
    # rounding, which the density check tolerates
    rng = np.random.default_rng(950)
    states = np.array([random_two_qubit(rng, 1) for _ in range(20)]
                      + [projector(bell_phi_plus())])
    b_max, _ = chsh_nl(states)
    bound = 2 * np.sqrt(2) + 1e-9
    assert np.all(b_max <= bound)
    assert np.all(chsh_bruteforce(states, restarts=4, iterations=50) <= bound)


def test_concurrence_bell_state():
    assert concurrence(projector(bell_phi_plus())) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_rejects_non_density_input():
    with pytest.raises(ValidationError, match=(
            r"^state is not a density matrix: eigenvalues sum to (2\.0|1\.9999)")):
        concurrence(2.0 * projector(bell_phi_plus()))
    stack = np.array([werner(0.5)] * 3)
    stack[2] = werner(-0.5)     # unit trace, eigenvalue 3/8 - 1/2
    with pytest.raises(ValidationError, match=(
            r"^state \[2\] is not a density matrix: .*, smallest -1\.250e-01")):
        concurrence(stack)
    assert concurrence(stack[:2]).shape == (2,)


def test_concurrence_product_state():
    rho = np.kron(projector(basis_state(2, 0)), projector(basis_state(2, 1)))
    assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_werner_closed_form():
    for x in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
        expected = max(0.0, (3 * x - 1) / 2)
        assert concurrence(werner(x)) == pytest.approx(expected, abs=1e-10)


def test_concurrence_against_eigenvalue_route():
    # the generic-eigenvalue route is noisy near zero, hence the loose bar
    for _ in range(25):
        rho = random_two_qubit()
        assert concurrence(rho) == pytest.approx(
            concurrence_by_eigenvalues(rho), abs=1e-6)


def test_local_unitary_invariance():
    for _ in range(10):
        rho = random_two_qubit()
        u = np.kron(random_su2(), random_su2())
        rotated = u @ rho @ u.conj().T
        assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)
        b1, n1 = chsh_nl(rho)
        b2, n2 = chsh_nl(rotated)
        assert b2 == pytest.approx(b1, abs=1e-9)
        assert n2 == pytest.approx(n1, abs=1e-9)


def test_bell_operator_is_hermitian():
    rng = np.random.default_rng(131)
    settings = rng.standard_normal((4, 5, 3))
    settings /= np.linalg.norm(settings, axis=-1, keepdims=True)
    op = nonlocality._bell_operator(*settings)
    assert op.shape == (5, 4, 4)
    np.testing.assert_allclose(op, op.conj().swapaxes(-1, -2), atol=1e-12)


def test_bell_operator_stack_matches_single_settings():
    rng = np.random.default_rng(132)
    settings = rng.standard_normal((4, 6, 3))
    settings /= np.linalg.norm(settings, axis=-1, keepdims=True)
    stacked = nonlocality._bell_operator(*settings)
    for i in range(6):
        single = nonlocality._bell_operator(*settings[:, i])
        assert stacked[i].tobytes() == single.tobytes()


@pytest.mark.parametrize("measure", [
    correlation_matrix,
    chsh_nl,
    chsh_bruteforce,
    concurrence,
], ids=["correlation_matrix", "chsh_nl", "chsh_bruteforce", "concurrence"])
def test_rejects_a_state_that_is_not_two_qubits(measure):
    with pytest.raises(ValidationError, match=re.escape(
            "two-qubit state must be 4x4, got shape (6, 6)")):
        measure(np.eye(6) / 6)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_chsh_bruteforce_rejects_non_finite_state(value):
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 2] = value
    with pytest.raises(ValidationError, match=re.escape(
            "two-qubit state has non-finite entries at [(1, 2)]")):
        chsh_bruteforce(rho)


def test_concurrence_of_pure_states_matches_linear_entropy():
    # C^2 = 2 (1 - Tr rho_A^2) for every pure two-qubit state, on either side
    rng = np.random.default_rng(405)
    for _ in range(10):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        rho = projector(psi)
        for keep in (0, 1):
            reduced = partial_trace(rho, (2, 2), keep=keep)
            linear_entropy = 1.0 - float(np.sum(np.abs(reduced) ** 2))
            assert concurrence(rho) ** 2 == pytest.approx(2 * linear_entropy, abs=1e-9)


def test_measures_symmetric_under_swap():
    swap = np.eye(4)[[0, 2, 1, 3]]
    rng = np.random.default_rng(406)
    for _ in range(10):
        rho = random_two_qubit(rng)
        swapped = swap @ rho @ swap
        np.testing.assert_allclose(correlation_matrix(swapped), correlation_matrix(rho).T,
                                   atol=1e-12)
        assert concurrence(swapped) == pytest.approx(concurrence(rho), abs=1e-9)
        assert chsh_nl(swapped)[0] == pytest.approx(chsh_nl(rho)[0], abs=1e-9)


@pytest.mark.parametrize("angle", [0.0, np.pi / 8, np.pi / 5], ids=["product", "pi/8", "pi/5"])
def test_partially_entangled_pure_state_closed_forms(angle):
    # cos a |00> + sin a |11>: C = sin 2a and b_max = 2 sqrt(1 + sin^2 2a)
    psi = np.cos(angle) * basis_state(4, 0) + np.sin(angle) * basis_state(4, 3)
    rho = projector(psi)
    s = np.sin(2 * angle)
    assert concurrence(rho) == pytest.approx(s, abs=1e-9)
    b_max, n_l = chsh_nl(rho)
    assert b_max == pytest.approx(2 * np.sqrt(1 + s * s), abs=1e-9)
    assert n_l == pytest.approx(s * s, abs=1e-9)
    assert chsh_bruteforce(rho) == pytest.approx(b_max, abs=1e-9)
