import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveparticle.states import (
    BipartiteSplit,
    ValidationError,
    basis_state,
    eig_hermitian,
    hermitian_part,
    hs_norm_sq,
    partial_trace,
    projector,
    tensor,
    validate_density,
    validate_pure,
)

RNG = np.random.default_rng(101)


def random_vec(dim):
    v = RNG.standard_normal(dim) + 1j * RNG.standard_normal(dim)
    return v / np.linalg.norm(v)


def test_basis_state():
    e1 = basis_state(3, 1)
    assert e1.dtype == complex
    np.testing.assert_array_equal(e1, [0, 1, 0])
    with pytest.raises(ValueError):
        basis_state(3, 3)


def test_projector_is_rank_one():
    psi = random_vec(4)
    p = projector(psi)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    np.testing.assert_allclose(np.trace(p), 1.0, atol=1e-12)
    np.testing.assert_allclose(p @ psi, psi, atol=1e-12)


def test_tensor_matches_kron():
    a = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
    b = RNG.standard_normal((3, 3))
    np.testing.assert_array_equal(tensor(a, b), np.kron(a, b))


def test_split_validation():
    split = BipartiteSplit(2, 3)
    assert split.dim == 6
    with pytest.raises(ValidationError):
        BipartiteSplit(0, 3)


def test_partial_trace_of_product():
    rho_a = projector(random_vec(2))
    rho_b = projector(random_vec(3))
    joint = tensor(rho_a, rho_b)
    split = BipartiteSplit(2, 3)
    np.testing.assert_allclose(partial_trace(joint, split, keep=0), rho_a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, split, keep=1), rho_b, atol=1e-12)


def test_partial_trace_bell_state():
    bell = (tensor(basis_state(2, 0), basis_state(2, 0))
            + tensor(basis_state(2, 1), basis_state(2, 1))) / np.sqrt(2)
    reduced = partial_trace(projector(bell), BipartiteSplit(2, 2), keep=0)
    np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace():
    g = RNG.standard_normal((6, 6)) + 1j * RNG.standard_normal((6, 6))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    for keep in (0, 1):
        reduced = partial_trace(rho, BipartiteSplit(2, 3), keep=keep)
        np.testing.assert_allclose(np.trace(reduced), 1.0, atol=1e-12)


def test_partial_trace_rejects_bad_axis():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        partial_trace(rho, BipartiteSplit(2, 2), keep=2)


def test_eig_hermitian_known_spectrum():
    m = np.diag([3.0, 1.0, 2.0]).astype(complex)
    w, v = eig_hermitian(m)
    np.testing.assert_allclose(w, [3.0, 2.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


def test_eig_hermitian_reconstruction():
    h = RNG.standard_normal((5, 5)) + 1j * RNG.standard_normal((5, 5))
    h = (h + h.conj().T) / 2
    w, v = eig_hermitian(h)
    np.testing.assert_allclose((v * w) @ v.conj().T, h, atol=1e-8)
    assert np.all(np.diff(w) <= 1e-12)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_hermitian_deterministic_on_degenerate_input():
    w1, v1 = eig_hermitian(np.eye(4, dtype=complex))
    w2, v2 = eig_hermitian(np.eye(4, dtype=complex))
    np.testing.assert_array_equal(v1, v2)
    # phase fix: the first significant component of each vector is real positive
    for col in v1.T:
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert lead.real > 0 and abs(lead.imag) < 1e-12


def test_hs_norm_sq():
    rho = np.eye(2) / 2
    assert hs_norm_sq(rho) == pytest.approx(0.5, abs=1e-15)


def test_validate_pure():
    psi = validate_pure(np.array([1.0, 1.0j]) / np.sqrt(2))
    assert psi.dtype == complex
    with pytest.raises(ValidationError):
        validate_pure(psi * 1.001)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.5, np.inf)])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
def test_non_finite_matrix_rejected(value, entry):
    bad = np.eye(2, dtype=complex) / 2
    bad[entry] = value
    for check in (hermitian_part, validate_density):
        with pytest.raises(ValidationError,
                           match=re.escape(f"non-finite entries at [{entry}]")):
            check(bad)


def test_hermitian_part_name_is_keyword_only():
    with pytest.raises(TypeError):
        hermitian_part(np.eye(2), 1e-3)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_validate_pure_rejects_non_finite(value):
    with pytest.raises(ValidationError, match="norm"):
        validate_pure(np.array([value, 0.0]))


def test_validate_density_accepts_valid():
    rho = validate_density(np.eye(3) / 3)
    np.testing.assert_allclose(rho, np.eye(3) / 3, atol=1e-12)


def test_validate_density_rejects_non_hermitian():
    bad = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
    with pytest.raises(ValidationError, match="[Hh]ermitian"):
        validate_density(bad)


def test_validate_density_rejects_negative_eigenvalue():
    bad = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(ValidationError, match="eigenvalue"):
        validate_density(bad)


def test_validate_density_rejects_wrong_trace():
    with pytest.raises(ValidationError, match=re.escape(
            "state is not a density matrix: eigenvalues sum to 2.0, "
            "smallest 1.000e+00 (tolerance 1.0e-09)")):
        validate_density(np.eye(2, dtype=complex))


def test_validate_density_clips_tiny_negatives():
    rho = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    out = validate_density(rho)
    w = np.linalg.eigvalsh(out)
    assert np.all(w >= 0)
    np.testing.assert_allclose(np.trace(out), 1.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(2, 4))
def test_product_state_marginals(seed, da, db):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(da) + 1j * rng.standard_normal(da)
    b = rng.standard_normal(db) + 1j * rng.standard_normal(db)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    joint = projector(tensor(a, b))
    split = BipartiteSplit(da, db)
    np.testing.assert_allclose(partial_trace(joint, split, 0), projector(a), atol=1e-10)
    np.testing.assert_allclose(partial_trace(joint, split, 1), projector(b), atol=1e-10)
