import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from waveparticle import measures
from waveparticle.channels import ReferenceObservable, dephase, purify
from waveparticle.states import (
    ValidationError,
    basis_state,
    hermitian_part,
    projector,
    validate_density,
)

RNG = np.random.default_rng(303)

# erasure work of one qubit at room temperature, J
ROOM_TEMPERATURE_BIT_WORK = 2.870978885078724e-21


def random_density(dim, rng=RNG, rank=None):
    g = rng.standard_normal((dim, rank or dim)) + 1j * rng.standard_normal((dim, rank or dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_basis(dim, rng=RNG):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    return ReferenceObservable(q)


def logm_entropy(rho):
    """Independent von Neumann entropy via the matrix logarithm."""
    # regularize exact zeros so logm stays finite
    eps = 1e-300
    dim = rho.shape[0]
    reg = (1 - eps) * rho + eps * np.eye(dim) / dim
    return float(-np.trace(reg @ scipy.linalg.logm(reg)).real)


class TestShannon:
    def test_uniform(self):
        for n in (2, 3, 5, 8):
            assert measures.shannon(np.ones(n) / n) == pytest.approx(np.log(n), abs=1e-12)

    def test_deterministic(self):
        assert measures.shannon([1.0, 0.0, 0.0]) == 0.0

    def test_rejects_invalid(self):
        with pytest.raises(ValidationError):
            measures.shannon([0.5, 0.6])
        with pytest.raises(ValidationError):
            measures.shannon([1.2, -0.2])


@pytest.mark.parametrize("p,accepted", [
    ([1 + 5e-10, -5e-10], True),
    ([1 + 2e-9, -2e-9], False),
    ([np.nan, 1.0], False),
    ([np.inf, -np.inf], False),
], ids=["within_tolerance", "beyond_tolerance", "nan", "inf"])
def test_one_rule_for_distributions_and_states(p, accepted):
    """shannon(p) passes or fails exactly where the spectrum checks of diag(p) do."""
    rho = np.diag(p).astype(complex)
    checks = {
        "shannon": lambda: measures.shannon(p),
        "tsallis_entropy": lambda: measures.tsallis_entropy(rho),
        "purify": lambda: purify(rho),
        "validate_density": lambda: validate_density(rho),
    }
    verdicts = {}
    for name, check in checks.items():
        try:
            check()
            verdicts[name] = True
        except ValidationError:
            verdicts[name] = False
    assert verdicts == dict.fromkeys(checks, accepted)


class TestTsallisEntropy:
    def test_matches_logm_oracle(self):
        for dim in (2, 3, 4, 6):
            rho = random_density(dim)
            assert measures.tsallis_entropy(rho, 1.0) == pytest.approx(
                logm_entropy(rho), abs=1e-8)

    def test_q2_equals_one_minus_purity(self):
        rho = random_density(5)
        expected = 1.0 - float(np.trace(rho @ rho).real)
        assert measures.tsallis_entropy(rho, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_continuous_at_q_one(self):
        rho = random_density(4)
        s1 = measures.tsallis_entropy(rho, 1.0)
        for q in (1.0 - 2e-6, 1.0 + 2e-6):
            assert measures.tsallis_entropy(rho, q) == pytest.approx(s1, abs=1e-4)

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.0 + 5e-7, 2.0, 3.0])
    def test_pure_state_zero(self, q):
        assert measures.tsallis_entropy(projector(basis_state(3, 1)), q) == 0.0
        # eigvalsh leaves dust of order 1e-17 in this spectrum; at q = 0.5 a
        # dust eigenvalue d adds 2 sqrt(d) unless it is dropped at every order
        dusty = projector(np.array([0.6, 0.8j, 0.0, 0.0]))
        assert measures.tsallis_entropy(dusty, q) == 0.0

    @pytest.mark.parametrize("entropy", [
        lambda q: measures.tsallis_entropy(random_density(4, np.random.default_rng(5)), q),
        lambda q: measures.max_entropy(4, q),
    ], ids=["tsallis_entropy", "max_entropy"])
    def test_first_order_smooth_through_q_one(self, entropy):
        s1 = entropy(1.0)
        slope = (entropy(1.0 + 1e-3) - entropy(1.0 - 1e-3)) / 2e-3
        for step in (0.999e-6, 1.001e-6, 2e-6):
            for q in (1.0 - step, 1.0 + step):
                assert abs(entropy(q) - s1 - (q - 1.0) * slope) <= 1e-10

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            measures.tsallis_entropy(np.eye(2) / 2, 0.0)

    @pytest.mark.parametrize("q", [np.nan, np.inf])
    def test_rejects_non_finite_order(self, q):
        with pytest.raises(ValueError, match="finite"):
            measures.tsallis_entropy(np.eye(2) / 2, q)


def test_order_bound_is_inclusive():
    # at the bound the entropy (1 - sum lam**q)/(q - 1) is still about 1/q
    rho = np.diag([0.5, 0.3, 0.2])
    assert measures.tsallis_entropy(rho, 1e15) == pytest.approx(1e-15, rel=1e-12)
    with pytest.raises(ValueError, match=re.escape("at most 1e+15, got 1000000000000000.1")):
        measures.tsallis_entropy(rho, np.nextafter(1e15, np.inf))
    with pytest.raises(ValueError, match=re.escape("at most 1e+15, got 1e+308")):
        measures.max_entropy(2, 1e308)


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
def test_bad_order_in_a_sequence_rejected_as_a_scalar_is(bad):
    rho, obs = np.eye(2) / 2, ReferenceObservable.computational(2)
    for measure in (measures.duality, measures.wavelike_upper_bound):
        with pytest.raises(ValueError) as scalar:
            measure(rho, obs, bad)
        with pytest.raises(ValueError) as sequence:
            measure(rho, obs, [1.0, bad, 2.0])
        assert type(sequence.value) is type(scalar.value)
        assert str(sequence.value) == str(scalar.value)
        assert "must be positive and finite" in str(scalar.value)


class TestMaxEntropy:
    def test_von_neumann(self):
        assert measures.max_entropy(8, 1.0) == pytest.approx(np.log(8), abs=1e-15)

    def test_q2(self):
        assert measures.max_entropy(2, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert measures.max_entropy(4, 2.0) == pytest.approx(0.75, abs=1e-15)

    def test_rejects_non_integer_dimension(self):
        for dim in (2.7, 3.0, "4"):
            with pytest.raises(ValueError, match=re.escape(
                    f"dimension must be an integer, got {dim!r}")):
                measures.max_entropy(dim)
        assert measures.max_entropy(np.int64(4), 2.0) == measures.max_entropy(4, 2.0)

    def test_matches_maximally_mixed(self):
        for q in (0.5, 1.0, 1.7, 2.0, 3.0):
            for d in (2, 3, 5):
                s = measures.tsallis_entropy(np.eye(d, dtype=complex) / d, q)
                assert measures.max_entropy(d, q) == pytest.approx(s, abs=1e-12)


class TestInformation:
    def test_maximally_mixed_carries_none(self):
        assert measures.information(np.eye(4) / 4, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_pure_carries_maximum(self):
        rho = projector(basis_state(4, 0))
        assert measures.information(rho, 1.0) == pytest.approx(np.log(4), abs=1e-12)

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_stack_matches_per_matrix_loop(self, q):
        # the dimension is the last axis, not the stack size
        stack = np.array([random_density(3, rank=rank) for rank in (1, 2, 3, 3)])
        stack[3] = np.eye(3) / 3
        values = measures.information(stack, q)
        assert values.shape == (4,)
        assert values.tolist() == [measures.information(rho, q) for rho in stack]
        assert values[3] == pytest.approx(0.0, abs=1e-12)


class TestWavelike:
    def test_balanced_superposition(self):
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        obs = ReferenceObservable.computational(2)
        assert measures.wavelike_info(projector(plus), obs, 1.0) == pytest.approx(
            np.log(2), abs=1e-12)
        assert measures.wavelike_info(projector(plus), obs, 2.0) == pytest.approx(
            0.5, abs=1e-12)

    def test_diagonal_state_exactly_zero(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        obs = ReferenceObservable.computational(2)
        assert measures.wavelike_info(rho, obs, 1.0) == 0.0
        assert measures.wavelike_info(rho, obs, 2.0) == 0.0

    def test_q2_is_hs_distance_to_dephased(self):
        rho = random_density(4)
        obs = random_basis(4)
        delta = rho - dephase(rho, obs)
        expected = float(np.sum(np.abs(delta) ** 2))
        assert measures.wavelike_info(rho, obs, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_basis_dependence(self):
        rho = projector(basis_state(2, 0))
        z = ReferenceObservable.computational(2)
        x = ReferenceObservable(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
        assert measures.wavelike_info(rho, z, 1.0) == 0.0
        assert measures.wavelike_info(rho, x, 1.0) == pytest.approx(np.log(2), abs=1e-12)


class TestUpperBound:
    def test_klein_inequality_random_states(self):
        for i in range(50):
            dim = 2 + (i % 5)
            rho = 0.9 * random_density(dim) + 0.1 * np.eye(dim) / dim
            obs = random_basis(dim)
            for q in (0.5, 1.0, 2.0):
                iw = measures.wavelike_info(rho, obs, q)
                ub = measures.wavelike_upper_bound(rho, obs, q)
                assert -1e-12 <= iw <= ub + 1e-12

    def test_q2_bound_is_twice_the_information(self):
        # for q = 2 the spectral slope is affine, so the bound is exact: 2 I_w
        rho = random_density(4)
        obs = random_basis(4)
        iw = measures.wavelike_info(rho, obs, 2.0)
        ub = measures.wavelike_upper_bound(rho, obs, 2.0)
        assert ub == pytest.approx(2.0 * iw, abs=1e-10)

    def test_dephased_state_saturates_at_zero(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        obs = ReferenceObservable.computational(2)
        assert measures.wavelike_upper_bound(rho, obs, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_rank_deficient_rejected_for_small_q(self):
        rho = projector(basis_state(2, 0))
        obs = ReferenceObservable.computational(2)
        with pytest.raises(ValueError, match="full rank"):
            measures.wavelike_upper_bound(rho, obs, 1.0)
        with pytest.raises(ValueError, match="full rank"):
            measures.wavelike_upper_bound(rho, obs, 0.5)
        # q = 2 needs no inverse powers, rank deficiency is fine
        measures.wavelike_upper_bound(rho, obs, 2.0)

    @pytest.mark.parametrize("q", [1.0 + 5e-7, 2.0])
    def test_rank_deficient_above_q_one(self, q):
        # a zero eigenvalue takes the slope's limit -1/(q - 1), without a log(0) warning
        rho = projector(np.array([1.0, 1.0j]) / np.sqrt(2.0))
        obs = ReferenceObservable.computational(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = measures.wavelike_upper_bound(rho, obs, q)
        assert np.isfinite(bound)
        assert bound >= measures.wavelike_info(rho, obs, q)


class TestParticlelike:
    def test_complements_wavelike(self):
        for q in (1.0, 2.0):
            rho = random_density(3)
            obs = random_basis(3)
            total = (measures.wavelike_info(rho, obs, q)
                     + measures.particlelike_info(rho, obs, q))
            assert total == pytest.approx(measures.max_entropy(3, q), abs=1e-12)

    def test_definite_path_is_fully_particlelike(self):
        rho = projector(basis_state(2, 1))
        obs = ReferenceObservable.computational(2)
        assert measures.particlelike_info(rho, obs, 1.0) == pytest.approx(
            np.log(2), abs=1e-12)


class TestThermal:
    def test_room_temperature_bit(self):
        ctx = measures.ThermalContext.si(300.0)
        rho = projector(basis_state(2, 0))
        assert measures.work(rho, ctx) == pytest.approx(
            ROOM_TEMPERATURE_BIT_WORK, rel=1e-12)

    def test_natural_units_default(self):
        rho = projector(basis_state(2, 0))
        assert measures.work(rho) == pytest.approx(np.log(2), abs=1e-12)

    def test_gap_equals_scaled_wavelike_info(self):
        rho = projector(np.array([1, 1j], dtype=complex) / np.sqrt(2))
        obs = ReferenceObservable.computational(2)
        gap = measures.demon_work_gap(rho, obs)
        assert gap == pytest.approx(measures.wavelike_info(rho, obs, 1.0), abs=1e-12)

    @pytest.mark.parametrize("ctx", [measures.NATURAL_UNITS, measures.ThermalContext.si(300.0)],
                             ids=["natural", "si"])
    def test_gap_is_k_t_times_wavelike_info_bit_for_bit(self, ctx):
        rng = np.random.default_rng(311)
        stack = np.array([random_density(2, rng) for _ in range(8)])
        obs = ReferenceObservable.computational(2)
        gap = measures.demon_work_gap(stack, obs, ctx)
        expected = ctx.boltzmann_k * ctx.temperature * measures.wavelike_info(stack, obs, 1.0)
        assert gap.shape == (8,)
        assert gap.tobytes() == expected.tobytes()

    def test_mixed_state_gap_vanishes_when_diagonal(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        obs = ReferenceObservable.computational(2)
        assert measures.demon_work_gap(rho, obs) == pytest.approx(0.0, abs=1e-15)

    def test_context_validation(self):
        with pytest.raises(ValidationError):
            measures.ThermalContext(temperature=-1.0)

    @pytest.mark.parametrize("field", ["temperature", "boltzmann_k"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_context_rejects_non_finite(self, field, value):
        with pytest.raises(ValidationError, match="finite"):
            measures.ThermalContext(**{field: value})


@pytest.mark.parametrize("measure", [
    measures.tsallis_entropy,
    lambda rho: measures.wavelike_info(rho, ReferenceObservable.computational(2)),
    lambda rho: measures.particlelike_info(rho, ReferenceObservable.computational(2)),
], ids=["tsallis_entropy", "wavelike_info", "particlelike_info"])
def test_rejects_non_hermitian_input(measure):
    with pytest.raises(ValidationError, match="Hermitian"):
        measure(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8),
       st.sampled_from([0.5, 1.0, 2.0, 3.0]))
def test_duality_matches_dephased_matrix_route(seed, dim, q):
    rng = np.random.default_rng(seed)
    rho = random_density(dim, rng)
    for obs in (random_basis(dim, rng), ReferenceObservable.computational(dim)):
        entropy = measures.tsallis_entropy(rho, q)
        dephased = dephase(rho, obs)
        dephased_information = measures.information(dephased, q)
        expected = {
            "entropy": entropy,
            "dephased_information": dephased_information,
            "wavelike": max(0.0, measures.tsallis_entropy(dephased, q) - entropy),
            "particlelike": dephased_information + entropy,
        }
        split = measures.duality(rho, obs, q)
        assert split.keys() == expected.keys()
        for key, value in expected.items():
            assert abs(split[key] - value) <= 1e-12
    # the last basis is the computational one, where the match is bit for bit
    assert split == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.integers(1, 5),
       st.sampled_from([0.5, 1.0, 2.0, 3.0]))
def test_stack_matches_per_matrix_loop(seed, dim, size, q):
    rng = np.random.default_rng(seed)
    # mixed ranks, so at q = 1 the members drop different numbers of eigenvalues
    stack = np.array([random_density(dim, rng, rank=int(rng.integers(1, dim + 1)))
                      for _ in range(size)])
    herm = hermitian_part(stack)
    entropy = measures.tsallis_entropy(stack, q)
    assert herm.shape == stack.shape and entropy.shape == (size,)
    for obs in (random_basis(dim, rng), ReferenceObservable.computational(dim)):
        split = measures.duality(stack, obs, q)
        for i, rho in enumerate(stack):
            assert herm[i].tobytes() == hermitian_part(rho).tobytes()
            assert entropy[i] == measures.tsallis_entropy(rho, q)
            assert {key: value[i] for key, value in split.items()} == measures.duality(rho, obs, q)


@pytest.mark.parametrize("measure", [
    lambda rho: hermitian_part(rho, name="state"),
    measures.tsallis_entropy,
    lambda rho: measures.duality(rho, ReferenceObservable.computational(2)),
], ids=["hermitian_part", "tsallis_entropy", "duality"])
@pytest.mark.parametrize("defect,entries,message", [
    ("non-Hermitian", {(0, 1): 0.3}, "is not Hermitian"),
    ("NaN entry", {(0, 1): np.nan}, "has non-finite entries at [(0, 1)]"),
    ("infinite diagonal", {(1, 1): np.inf}, "has non-finite entries at [(1, 1)]"),
    ("infinite pair", {(0, 1): np.inf, (1, 0): np.inf},
     "has non-finite entries at [(0, 1), (1, 0)]"),
])
@pytest.mark.parametrize("member", [0, 2])
def test_stack_with_one_bad_member_rejected(measure, defect, entries, message, member):
    stack = np.array([np.eye(2, dtype=complex) / 2] * 3)
    for entry, value in entries.items():
        stack[(member, *entry)] = value
    with pytest.raises(ValidationError, match=re.escape(f"state [{member}] {message}")):
        measure(stack)


# every public measure of one state; each reaches _check_spectrum
BOUNDARY_MEASURES = [
    lambda rho, obs, q: measures.tsallis_entropy(rho, q),
    lambda rho, obs, q: measures.information(rho, q),
    lambda rho, obs, q: list(measures.duality(rho, obs, q).values()),
    measures.wavelike_info,
    measures.particlelike_info,
    lambda rho, obs, q: measures.work(rho),
]


def density_input(rng, dim, size):
    """One density matrix for size 0, else a stack of size members of mixed rank."""
    if size == 0:
        return random_density(dim, rng)
    return np.array([random_density(dim, rng, rank=int(rng.integers(1, dim + 1)))
                     for _ in range(size)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(0, 4),
       st.sampled_from([0.5, 1.0, 2.0, 3.0]))
def test_density_input_gives_finite_output(seed, dim, size, q):
    rng = np.random.default_rng(seed)
    rho = density_input(rng, dim, size)
    obs = random_basis(dim, rng)
    for measure in BOUNDARY_MEASURES:
        assert np.isfinite(measure(rho, obs, q)).all()
    if size == 0:
        assert np.isfinite(measures.wavelike_upper_bound(rho, obs, q))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(0, 4),
       st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from(["negative", "above", "below"]),
       st.floats(1e-6, 10.0))
def test_unnormalized_or_negative_input_rejected(seed, dim, size, q, defect, size_of_defect):
    rng = np.random.default_rng(seed)
    rho = density_input(rng, dim, size)
    obs = random_basis(dim, rng)
    if defect == "negative":    # unit trace, smallest eigenvalue -size_of_defect
        lam = np.append(rng.dirichlet(np.ones(dim - 1)) * (1.0 + size_of_defect),
                        -size_of_defect)
    else:
        scale = 1.0 + size_of_defect if defect == "above" else 1.0 / (1.0 + size_of_defect)
        lam = rng.dirichlet(np.ones(dim)) * scale
    u = random_basis(dim, rng).columns
    bad = (u * lam) @ u.conj().T
    member = int(rng.integers(size)) if size else None
    if member is None:
        rho = bad
    else:
        rho[member] = bad
    at = "" if member is None else f" [{member}]"
    for measure in BOUNDARY_MEASURES + [measures.wavelike_upper_bound]:
        with pytest.raises(ValidationError, match=re.escape(f"state{at} is not a density matrix")):
            measure(rho, obs, q)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6),
       st.sampled_from([0.5, 1.0 - 2e-6, 1.0 - 5e-7, 1.0, 1.0 + 5e-7, 1.0 + 2e-6,
                        1.5, 2.0, 3.0]))
def test_entropy_bounds_hold(seed, dim, q):
    rng = np.random.default_rng(seed)
    rho = random_density(dim, rng)
    s = measures.tsallis_entropy(rho, q)
    assert 0.0 <= s <= measures.max_entropy(dim, q) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6),
       st.sampled_from([1.0, 2.0]))
def test_dephasing_never_lowers_entropy(seed, dim, q):
    rng = np.random.default_rng(seed)
    rho = random_density(dim, rng)
    q_mat, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))
    obs = ReferenceObservable(q_mat)
    s_before = measures.tsallis_entropy(rho, q)
    s_after = measures.tsallis_entropy(dephase(rho, obs), q)
    assert s_after >= s_before - 1e-12
