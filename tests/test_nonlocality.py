import numpy as np
import pytest

from waveparticle.nonlocality import (
    PAULIS,
    SIGMA_Y,
    ChshSettings,
    chsh_bruteforce,
    chsh_nl,
    chsh_operator,
    chsh_value,
    concurrence,
    correlation_matrix,
    linear_entanglement,
)
from waveparticle.states import (
    BipartiteSplit,
    ValidationError,
    basis_state,
    partial_trace,
    projector,
    tensor,
)

RNG = np.random.default_rng(404)


def bell_phi_plus():
    return (tensor(basis_state(2, 0), basis_state(2, 0))
            + tensor(basis_state(2, 1), basis_state(2, 1))) / np.sqrt(2)


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
    rho = tensor(projector(basis_state(2, 0)), projector(basis_state(2, 0)))
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
    rho = tensor(projector(basis_state(2, 0)), projector(basis_state(2, 1)))
    b_max, n_l = chsh_nl(rho)
    assert b_max <= 2.0 + 1e-12
    assert n_l == 0.0


def test_chsh_nl_werner_threshold():
    # violation starts at x = 1/sqrt(2)
    assert chsh_nl(werner(0.70))[1] == 0.0
    assert chsh_nl(werner(0.72))[1] > 0.0


def test_chsh_value_canonical_settings():
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    settings = ChshSettings(z, x, (z + x) / np.sqrt(2), (z - x) / np.sqrt(2))
    value = chsh_value(projector(bell_phi_plus()), settings)
    assert value == pytest.approx(2 * np.sqrt(2), abs=1e-12)


def test_chsh_operator_is_hermitian():
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    op = chsh_operator(ChshSettings(z, x, (z + x) / np.sqrt(2), (z - x) / np.sqrt(2)))
    np.testing.assert_allclose(op, op.conj().T, atol=1e-12)


def test_chsh_settings_validation():
    z = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValidationError, match="norm"):
        ChshSettings(2 * z, z, z, z)
    with pytest.raises(ValidationError, match="3-vector"):
        ChshSettings(np.zeros(2), z, z, z)


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


def _canonical_settings():
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    return ChshSettings(z, x, (z + x) / np.sqrt(2), (z - x) / np.sqrt(2))


@pytest.mark.parametrize("measure", [
    correlation_matrix,
    chsh_nl,
    lambda rho: chsh_value(rho, _canonical_settings()),
    chsh_bruteforce,
    concurrence,
], ids=["correlation_matrix", "chsh_nl", "chsh_value", "chsh_bruteforce", "concurrence"])
def test_rejects_non_hermitian_two_qubit_input(measure):
    bad = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    bad[0, 3] = 0.5
    with pytest.raises(ValidationError, match="Hermitian"):
        measure(bad)


def test_bruteforce_input_validation():
    with pytest.raises(ValueError):
        chsh_bruteforce(np.eye(4) / 4, restarts=0)


def test_concurrence_bell_state():
    assert concurrence(projector(bell_phi_plus())) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_product_state():
    rho = tensor(projector(basis_state(2, 0)), projector(basis_state(2, 1)))
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
        u = tensor(random_su2(), random_su2())
        rotated = u @ rho @ u.conj().T
        assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)
        b1, n1 = chsh_nl(rho)
        b2, n2 = chsh_nl(rotated)
        assert b2 == pytest.approx(b1, abs=1e-9)
        assert n2 == pytest.approx(n1, abs=1e-9)


def test_linear_entanglement_bell():
    assert linear_entanglement(bell_phi_plus(), BipartiteSplit(2, 2)) == pytest.approx(
        0.5, abs=1e-12)


def test_linear_entanglement_product():
    psi = tensor(basis_state(2, 0), np.array([0.6, 0.8], dtype=complex))
    assert linear_entanglement(psi, BipartiteSplit(2, 2)) == pytest.approx(0.0, abs=1e-12)


def test_linear_entanglement_symmetric_under_swap():
    psi = RNG.standard_normal(6) + 1j * RNG.standard_normal(6)
    psi /= np.linalg.norm(psi)
    value = linear_entanglement(psi, BipartiteSplit(2, 3))
    reduced_b = partial_trace(projector(psi), BipartiteSplit(2, 3), keep=1)
    other = 1.0 - float(np.sum(np.abs(reduced_b) ** 2))
    assert value == pytest.approx(other, abs=1e-12)


def test_linear_entanglement_split_mismatch():
    with pytest.raises(ValidationError):
        linear_entanglement(bell_phi_plus(), BipartiteSplit(2, 3))
