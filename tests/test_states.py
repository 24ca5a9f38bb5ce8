import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveparticle.states import (
    ValidationError,
    _repaired,
    basis_state,
    hermitian_part,
    partial_trace,
    projector,
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


def test_split_validation():
    rho = np.eye(4) / 4
    # numpy's integers are integers; 2.5 is refused, not truncated to 2
    np.testing.assert_array_equal(partial_trace(rho, (np.int64(2), 2), 0), np.eye(2) / 2)
    for split, message in (((0, 4), "factor dimensions must be positive, got 0x4"),
                           ((4, -1), "factor dimensions must be positive, got 4x-1"),
                           ((2.5, 2), "factor dimensions must be two integers, got (2.5, 2)"),
                           ((2, 2, 1), "factor dimensions must be two integers, got (2, 2, 1)"),
                           ((2, 3), "split 2x3 does not factor dimension 4")):
        with pytest.raises(ValidationError, match=re.escape(message)):
            partial_trace(rho, split, 0)


def test_partial_trace_of_product():
    rho_a = projector(random_vec(2))
    rho_b = projector(random_vec(3))
    joint = np.kron(rho_a, rho_b)
    split = (2, 3)
    np.testing.assert_allclose(partial_trace(joint, split, keep=0), rho_a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, split, keep=1), rho_b, atol=1e-12)


def test_partial_trace_bell_state():
    bell = (np.kron(basis_state(2, 0), basis_state(2, 0))
            + np.kron(basis_state(2, 1), basis_state(2, 1))) / np.sqrt(2)
    reduced = partial_trace(projector(bell), (2, 2), keep=0)
    np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace():
    g = RNG.standard_normal((6, 6)) + 1j * RNG.standard_normal((6, 6))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    for keep in (0, 1):
        reduced = partial_trace(rho, (2, 3), keep=keep)
        np.testing.assert_allclose(np.trace(reduced), 1.0, atol=1e-12)


def test_partial_trace_rejects_bad_axis():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        partial_trace(rho, (2, 2), keep=2)


def test_validate_pure():
    psi = validate_pure(np.array([1.0, 1.0j]) / np.sqrt(2))
    assert psi.dtype == complex
    with pytest.raises(ValidationError):
        validate_pure(psi * 1.001)
    with pytest.raises(ValidationError, match=re.escape(
            "state norm^2 = 2.0 deviates from 1 beyond 1.0e-09")):
        validate_pure([1.0, 1.0])


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


def test_validate_pure_refuses_a_huge_entry_without_overflow():
    # |1e200|^2 overflows to inf: refused by the norm check, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=re.escape(
                "state norm^2 = inf deviates from 1 beyond 1.0e-09")):
            validate_pure([1e200, 0])


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


@pytest.mark.parametrize("spectrum,shown", [
    ([2.0, -1.0], "sum to 1.0, smallest -1.000e+00"),
    ([0.5, 0.6], "sum to 1.1, smallest 5.000e-01"),
])
def test_validate_density_names_what_no_state_can_be(spectrum, shown):
    with pytest.raises(ValidationError, match=re.escape(
            f"state is not a density matrix: eigenvalues {shown} (tolerance 1.0e-09)")):
        validate_density(np.diag(spectrum))


def test_validate_density_keeps_a_known_spectrum():
    rho = np.diag([0.5, 0.2, 0.3]).astype(complex)
    out = validate_density(rho)
    np.testing.assert_allclose(np.linalg.eigvalsh(out), [0.2, 0.3, 0.5], atol=1e-12)
    np.testing.assert_allclose(out, rho, atol=1e-12)


def test_validate_density_reconstructs_a_random_state():
    g = RNG.standard_normal((5, 5)) + 1j * RNG.standard_normal((5, 5))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    out = validate_density(rho)
    np.testing.assert_allclose(out, rho, atol=1e-12)
    assert np.array_equal(out, out.conj().T)


def test_validate_density_is_deterministic_on_degenerate_input():
    # eigh may return any basis of the degenerate eigenspace; V diag(w) V^H may not care
    first = validate_density(np.eye(4, dtype=complex) / 4)
    second = validate_density(np.eye(4, dtype=complex) / 4)
    assert np.array_equal(first, second)
    np.testing.assert_allclose(first, np.eye(4) / 4, atol=1e-15)


@pytest.mark.parametrize("shape", [(), (3,)], ids=["one", "stack"])
def test_repair_returns_the_spectrum_it_rebuilt_from(shape):
    # a trace 5e-10 above 1 and an eigenvalue 5e-10 below 0, both within
    # tolerance: the spectrum is clipped, then divided by the rebuilt trace
    u, _ = np.linalg.qr(RNG.standard_normal(shape + (6, 6))
                        + 1j * RNG.standard_normal(shape + (6, 6)))
    lam_in = np.array([-5e-10, 0.05, 0.1, 0.15, 0.3, 0.4 + 1e-9])
    rho = (u * lam_in) @ u.conj().swapaxes(-1, -2)
    fixed, lam, v = _repaired(rho)
    assert fixed.tobytes() == validate_density(rho).tobytes()
    assert lam.shape == shape + (6,) and np.all(np.diff(lam, axis=-1) >= 0)
    assert np.all(lam[..., 0] == 0.0)
    assert np.abs(lam.sum(axis=-1) - 1.0).max() <= 1e-15
    assert np.abs(np.linalg.eigvalsh(fixed) - lam).max() <= 1e-15
    assert np.abs(fixed @ v - v * lam[..., None, :]).max() <= 1e-15


def test_hermitian_part_rejects_non_hermitian():
    with pytest.raises(ValidationError, match=re.escape(
            "matrix is not Hermitian: max |M - M^H| = 1.000e+00 exceeds 1.0e-09")):
        hermitian_part(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_part_is_the_mean_with_the_adjoint():
    h = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    h = (h + h.conj().T) / 2
    noisy = h + 1e-12 * RNG.standard_normal((3, 3))
    out = hermitian_part(noisy)
    assert np.array_equal(out, (noisy + noisy.conj().T) / 2)
    assert np.array_equal(out, out.conj().T)


def test_partial_trace_of_kron_operators():
    # not states: each factor's trace scales the other factor's marginal
    a = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
    b = RNG.standard_normal((3, 3))
    joint = np.kron(a, b)
    split = (2, 3)
    np.testing.assert_allclose(partial_trace(joint, split, keep=0), a * np.trace(b), atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, split, keep=1), b * np.trace(a), atol=1e-12)


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
    joint = projector(np.kron(a, b))
    split = (da, db)
    np.testing.assert_allclose(partial_trace(joint, split, 0), projector(a), atol=1e-10)
    np.testing.assert_allclose(partial_trace(joint, split, 1), projector(b), atol=1e-10)
