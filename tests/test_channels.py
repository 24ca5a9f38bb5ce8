import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveparticle.channels import (
    ReferenceObservable,
    dephase,
    _populations,
    populations,
    reduced_from_informer,
)
from waveparticle.measures import duality
from waveparticle.states import (
    ValidationError,
    basis_state,
    partial_trace,
    projector,
)

RNG = np.random.default_rng(202)


def random_density(dim, rng=RNG):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def x_basis():
    return ReferenceObservable(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))


class TestReferenceObservable:
    def test_computational(self):
        obs = ReferenceObservable.computational(3)
        np.testing.assert_array_equal(obs.columns, np.eye(3))
        np.testing.assert_array_equal(obs.columns[:, 2], basis_state(3, 2))

    @pytest.mark.parametrize("dim", [1, 4, 128])
    def test_computational_columns_are_exactly_the_identity(self, dim):
        columns = ReferenceObservable.computational(dim).columns
        assert columns.dtype == complex
        assert np.array_equal(columns, np.eye(dim))

    def test_from_columns(self):
        obs = ReferenceObservable(np.column_stack([basis_state(2, 1), basis_state(2, 0)]))
        np.testing.assert_array_equal(obs.columns[:, 0], basis_state(2, 1))
        np.testing.assert_array_equal(obs.projector(0), projector(basis_state(2, 1)))

    def test_projectors_resolve_identity(self):
        obs = x_basis()
        total = sum(obs.projector(k) for k in range(2))
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValidationError, match=re.escape(
                "basis is not orthonormal: max |U^H U - 1| = 1.000e+00 exceeds 1.0e-09")):
            ReferenceObservable(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestDephase:
    def test_kills_coherences_keeps_populations(self):
        rho = random_density(4)
        obs = ReferenceObservable.computational(4)
        out = dephase(rho, obs)
        np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-12)
        np.testing.assert_allclose(out, np.diag(np.diag(out)), atol=1e-12)

    def test_stack_matches_per_matrix_loop(self):
        # as many members as the dimension, so a broadcast over the wrong
        # axis would not raise
        stack = np.array([random_density(3) for _ in range(3)])
        u = np.linalg.qr(RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3)))[0]
        obs = ReferenceObservable(u)
        out = dephase(stack, obs)
        assert out.shape == stack.shape
        for i, rho in enumerate(stack):
            assert out[i].tobytes() == dephase(rho, obs).tobytes()

    def test_diagonal_state_is_fixed_exactly(self):
        # bitwise fixed point, not just within tolerance
        rho = np.diag([0.3, 0.2, 0.5]).astype(complex)
        obs = ReferenceObservable.computational(3)
        np.testing.assert_array_equal(dephase(rho, obs), rho)

    def test_commutes_with_reference_projectors(self):
        rho = random_density(3)
        u = np.linalg.qr(RNG.standard_normal((3, 3))
                         + 1j * RNG.standard_normal((3, 3)))[0]
        obs = ReferenceObservable(u)
        out = dephase(rho, obs)
        for k in range(3):
            p_k = obs.projector(k)
            np.testing.assert_allclose(out @ p_k, p_k @ out, atol=1e-12)

    def test_trace_preserved(self):
        rho = random_density(5)
        u = np.linalg.qr(RNG.standard_normal((5, 5))
                         + 1j * RNG.standard_normal((5, 5)))[0]
        np.testing.assert_allclose(
            np.trace(dephase(rho, ReferenceObservable(u))), 1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            dephase(np.eye(3) / 3, ReferenceObservable.computational(2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5))
    def test_idempotent(self, seed, dim):
        rng = np.random.default_rng(seed)
        rho = random_density(dim, rng)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))
        obs = ReferenceObservable(q)
        once = dephase(rho, obs)
        np.testing.assert_allclose(dephase(once, obs), once, atol=1e-12)


@pytest.mark.parametrize("function", [populations, dephase], ids=["populations", "dephase"])
@pytest.mark.parametrize("state,message", [
    (np.diag([np.nan, 1.0]), "state has non-finite entries at [(0, 0)]"),
    ([[0.0, 1.0], [0.0, 0.0]], "state is not Hermitian: max |M - M^H| = 1.000e+00"),
], ids=["nan", "non-hermitian"])
def test_populations_and_dephase_reject_invalid_state(function, state, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        function(state, ReferenceObservable.computational(2))


class TestPopulationsKernel:
    @pytest.mark.parametrize("dim", [1, 2, 5, 128])
    def test_computational_basis_reads_the_diagonal_exactly(self, dim):
        rho = random_density(dim)
        obs = ReferenceObservable.computational(dim)
        assert _populations(rho, obs).tobytes() == np.diagonal(rho).real.tobytes()

    @pytest.mark.parametrize("dim", range(2, 9))
    @pytest.mark.parametrize("stack", [(), (3,), (2, 2)], ids=["single", "stack", "grid"])
    def test_computational_shortcut_gives_the_general_bits(self, dim, stack):
        rho = np.array([random_density(dim) for _ in range(int(np.prod(stack)))])
        rho = rho.reshape(*stack, dim, dim)
        fast = ReferenceObservable.computational(dim)
        general = ReferenceObservable(np.eye(dim))
        for function in (populations, dephase):
            assert function(rho, fast).tobytes() == function(rho, general).tobytes()
        for q in (1.0, 2.0, 0.5):
            expected = duality(rho, general, q)
            for key, value in duality(rho, fast, q).items():
                assert np.asarray(value).tobytes() == np.asarray(expected[key]).tobytes(), key

    def test_only_the_computational_constructor_reads_the_diagonal(self, monkeypatch):
        # an identity given as columns, stacked or not, is an ordinary basis
        rho = np.array([random_density(3) for _ in range(4)])
        contractions = []
        einsum = np.einsum

        def counting(*args, **kwargs):
            contractions.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counting)
        expected = populations(rho, ReferenceObservable.computational(3))
        assert contractions == []
        for columns in (np.eye(3), np.broadcast_to(np.eye(3), (4, 3, 3))):
            assert populations(rho, ReferenceObservable(columns)).tobytes() == expected.tobytes()
        assert len(contractions) == 2

    def test_large_basis_matches_the_rotated_diagonal(self):
        dim = 128
        rho = random_density(dim)
        u = np.linalg.qr(RNG.standard_normal((dim, dim))
                         + 1j * RNG.standard_normal((dim, dim)))[0]
        expected = np.diagonal(u.conj().T @ rho @ u).real
        np.testing.assert_allclose(_populations(rho, ReferenceObservable(u)), expected,
                                   rtol=0, atol=1e-13)


class TestPurification:
    def test_marginal_recovers_state(self):
        # sum_k sqrt(p_k) |v_k>|k> over the nonzero eigenpairs of rho
        rho = random_density(4)
        w, v = np.linalg.eigh(rho)
        psi = (v * np.sqrt(w)).reshape(-1)
        recovered = partial_trace(projector(psi), (4, 4), keep=0)
        np.testing.assert_allclose(recovered, rho, atol=1e-12)

    def test_pure_input_needs_no_ancilla(self):
        vec = np.array([0.6, 0.8j], dtype=complex)
        rho = projector(vec)
        np.testing.assert_array_equal(partial_trace(rho, (2, 1), keep=0), rho)
        np.testing.assert_allclose(partial_trace(rho, (2, 1), keep=1),
                                   [[1.0]], atol=1e-15)


class TestInformer:
    def test_unit_overlap_keeps_purity(self):
        c = np.array([0.6, 0.8], dtype=complex)
        rho = reduced_from_informer(c, np.ones((2, 2)))
        np.testing.assert_allclose(rho, projector(c), atol=1e-12)

    def test_zero_overlap_dephases(self):
        c = np.array([0.6, 0.8], dtype=complex)
        rho = reduced_from_informer(c, np.eye(2))
        np.testing.assert_allclose(rho, np.diag([0.36, 0.64]), atol=1e-12)

    def test_partial_overlap_scales_coherence(self):
        c = np.array([0.6, 0.8], dtype=complex)
        gram = np.array([[1.0, 0.5], [0.5, 1.0]])
        rho = reduced_from_informer(c, gram)
        assert rho[0, 1] == pytest.approx(0.6 * 0.8 * 0.5, abs=1e-12)

    def test_matches_explicit_informer_vectors(self):
        # informer states with overlap eta, embedded in dim 2
        eta = 0.37
        i0 = np.array([1.0, 0.0], dtype=complex)
        i1 = np.array([eta, np.sqrt(1 - eta ** 2)], dtype=complex)
        c = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
        joint = np.kron(basis_state(2, 0), i0) * c[0] + np.kron(basis_state(2, 1), i1) * c[1]
        expected = partial_trace(projector(joint), (2, 2), keep=0)
        gram = np.array([[1.0, eta], [eta, 1.0]])
        rho = reduced_from_informer(c, gram)
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_rejects_bad_gram(self):
        c = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValidationError, match="Hermitian"):
            reduced_from_informer(c, np.array([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(ValidationError, match="diagonal"):
            reduced_from_informer(c, np.array([[0.9, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValidationError, match="semidefinite"):
            reduced_from_informer(c, np.array([[1.0, 2.0], [2.0, 1.0]]))
