import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveparticle.channels import (
    ImpossibleOutcomeError,
    InformerModel,
    ReferenceObservable,
    dephase,
    measure_select,
    measure_select_joint,
    _populations,
    populations,
    purify,
    reduced_from_informer,
)
from waveparticle.measures import duality
from waveparticle.states import (
    BipartiteSplit,
    ValidationError,
    basis_state,
    partial_trace,
    projector,
    tensor,
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
        np.testing.assert_array_equal(obs.vector(2), basis_state(3, 2))

    @pytest.mark.parametrize("dim", [1, 4, 128])
    def test_computational_columns_are_exactly_the_identity(self, dim):
        columns = ReferenceObservable.computational(dim).columns
        assert columns.dtype == complex
        assert np.array_equal(columns, np.eye(dim))

    def test_from_states(self):
        obs = ReferenceObservable.from_states([basis_state(2, 1), basis_state(2, 0)])
        np.testing.assert_array_equal(obs.vector(0), basis_state(2, 1))

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


class TestMeasureSelect:
    def test_probabilities_sum_to_one(self):
        rho = random_density(3)
        obs = ReferenceObservable.computational(3)
        total = sum(measure_select(rho, obs, k)[1] for k in range(3))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_conditional_is_outcome_projector(self):
        rho = np.eye(2, dtype=complex) / 2
        conditional, p = measure_select(rho, x_basis(), 0)
        assert p == pytest.approx(0.5, abs=1e-12)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(conditional, projector(plus), atol=1e-12)

    def test_impossible_outcome(self):
        rho = projector(basis_state(2, 0))
        obs = ReferenceObservable.computational(2)
        with pytest.raises(ImpossibleOutcomeError):
            measure_select(rho, obs, 1)

    def test_probability_matches_projection_formula(self):
        # measure_select is measure_select_joint with split d x 1; its probability
        # is summed as that 1x1 block's trace, not as (v^H rho) v
        worst = 0.0
        for dim in range(2, 9):
            rho = np.array([random_density(dim) for _ in range(20)])
            obs = ReferenceObservable(np.linalg.qr(random_density(dim))[0])
            for k in range(dim):
                vec = obs.columns[:, k]
                expected = np.minimum(np.real((vec.conj() @ rho) @ vec), 1.0)
                worst = max(worst, float(np.max(np.abs(measure_select(rho, obs, k)[1]
                                                       - expected))))
        assert worst <= 2.3e-16

    def test_rejection_messages(self):
        obs = ReferenceObservable.computational(2)
        for k in (-1, 2):
            with pytest.raises(ValueError, match=re.escape(
                    f"outcome index {k} out of range for dimension 2")):
                measure_select(np.eye(2) / 2, obs, k)
        stack = np.array([np.eye(2) / 2, projector(basis_state(2, 0))])
        with pytest.raises(ImpossibleOutcomeError, match=re.escape(
                "outcome 1 [1] has probability 0.000e+00")):
            measure_select(stack, obs, 1)
        with pytest.raises(ValidationError, match=re.escape(
                "a selected outcome needs one basis, got a stack of shape (2, 2, 2)")):
            measure_select(stack, ReferenceObservable(np.array([np.eye(2)] * 2)), 0)
        with pytest.raises(ValidationError, match=re.escape(
                "state shape (3, 3) does not match observable dimension 2")):
            measure_select(np.eye(3) / 3, obs, 0)


class TestMeasureSelectJoint:
    def test_bell_state_click(self):
        bell = (tensor(basis_state(2, 0), basis_state(2, 0))
                + tensor(basis_state(2, 1), basis_state(2, 1))) / np.sqrt(2)
        obs = ReferenceObservable.computational(2)
        conditional, p = measure_select_joint(
            projector(bell), BipartiteSplit(2, 2), obs, 1)
        assert p == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(conditional, projector(basis_state(2, 1)), atol=1e-12)

    def test_click_probabilities_sum_to_one(self):
        rho = random_density(6)
        obs = ReferenceObservable.computational(2)
        total = sum(measure_select_joint(rho, BipartiteSplit(2, 3), obs, k)[1]
                    for k in range(2))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_hand_built_register_circuit(self):
        # quanton on a balanced superposition writes its path into two
        # register qubits, then crosses a splitter; conditioning on the
        # quanton click must leave the register in (a|10> + i b|01>)/norm
        a, b = 0.6, 0.8
        after_couple = np.zeros(8, dtype=complex)
        after_couple[2] = a            # |0>|10>
        after_couple[5] = b            # |1>|01>
        bs = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)
        mixed = tensor(bs, np.eye(4, dtype=complex)) @ after_couple
        obs = ReferenceObservable.computational(2)
        conditional, p = measure_select_joint(
            projector(mixed), BipartiteSplit(2, 4), obs, 0)
        assert p == pytest.approx(0.5, abs=1e-12)
        expected = np.zeros(4, dtype=complex)
        expected[2] = a
        expected[1] = 1j * b
        np.testing.assert_allclose(conditional, projector(expected), atol=1e-12)


class TestPurify:
    def test_maximally_mixed_qubit_gives_bell_state(self):
        # degenerate spectrum: the deterministic tie-break pins the output
        psi = purify(np.eye(2, dtype=complex) / 2)
        bell = (tensor(basis_state(2, 0), basis_state(2, 0))
                + tensor(basis_state(2, 1), basis_state(2, 1))) / np.sqrt(2)
        np.testing.assert_allclose(psi, bell, atol=1e-12)

    def test_marginal_recovers_state(self):
        rho = random_density(4)
        psi = purify(rho)
        rank = psi.size // 4
        recovered = partial_trace(projector(psi), BipartiteSplit(4, rank), keep=0)
        np.testing.assert_allclose(recovered, rho, atol=1e-8)

    def test_pure_input_needs_no_ancilla(self):
        vec = np.array([0.6, 0.8j], dtype=complex)
        psi = purify(projector(vec))
        assert psi.size == 2
        np.testing.assert_allclose(projector(psi), projector(vec), atol=1e-10)

    @pytest.mark.parametrize("spectrum,shown", [
        ([2.0, -1.0], "sum to 1.0, smallest -1.000e+00"),
        ([0.5, 0.6], "sum to 1.1, smallest 5.000e-01"),
    ])
    def test_rejects_what_no_state_marginal_can_be(self, spectrum, shown):
        with pytest.raises(ValidationError, match=re.escape(
                f"state is not a density matrix: eigenvalues {shown}")):
            purify(np.diag(spectrum))


class TestInformer:
    def test_unit_overlap_keeps_purity(self):
        c = np.array([0.6, 0.8], dtype=complex)
        rho = reduced_from_informer(InformerModel(c, np.ones((2, 2))))
        np.testing.assert_allclose(rho, projector(c), atol=1e-12)

    def test_zero_overlap_dephases(self):
        c = np.array([0.6, 0.8], dtype=complex)
        rho = reduced_from_informer(InformerModel(c, np.eye(2)))
        np.testing.assert_allclose(rho, np.diag([0.36, 0.64]), atol=1e-12)

    def test_partial_overlap_scales_coherence(self):
        c = np.array([0.6, 0.8], dtype=complex)
        gram = np.array([[1.0, 0.5], [0.5, 1.0]])
        rho = reduced_from_informer(InformerModel(c, gram))
        assert rho[0, 1] == pytest.approx(0.6 * 0.8 * 0.5, abs=1e-12)

    def test_matches_explicit_informer_vectors(self):
        # informer states with overlap eta, embedded in dim 2
        eta = 0.37
        i0 = np.array([1.0, 0.0], dtype=complex)
        i1 = np.array([eta, np.sqrt(1 - eta ** 2)], dtype=complex)
        c = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
        joint = tensor(basis_state(2, 0), i0) * c[0] + tensor(basis_state(2, 1), i1) * c[1]
        expected = partial_trace(projector(joint), BipartiteSplit(2, 2), keep=0)
        gram = np.array([[1.0, eta], [eta, 1.0]])
        rho = reduced_from_informer(InformerModel(c, gram))
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_rejects_bad_gram(self):
        c = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValidationError, match="Hermitian"):
            InformerModel(c, np.array([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(ValidationError, match="diagonal"):
            InformerModel(c, np.array([[0.9, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValidationError, match="semidefinite"):
            InformerModel(c, np.array([[1.0, 2.0], [2.0, 1.0]]))
