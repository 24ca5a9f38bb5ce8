"""The batched verify checks read every member of their stacked results.

Each mutation below changes only the last member of every stacked library
result, and the check must then fail: a check that dropped a member, or
compared a result with itself, would still pass.
"""

from unittest import mock

import numpy as np
import pytest

from waveparticle import channels, measures, nonlocality, sampling, verify


def with_last(values, change):
    """A copy of values whose last member (the last grid point) is change(member)."""
    values = np.array(values, dtype=float)
    values.reshape(-1)[-1] = change(values.reshape(-1)[-1])
    return values


def shift(amount):
    return lambda value: value + amount


def test_check_01_reads_the_last_member(monkeypatch):
    wavelike_info, shapes = measures.wavelike_info, []

    def mutated(rho, k_obs, q=1.0):
        shapes.append(np.shape(rho))
        return with_last(wavelike_info(rho, k_obs, q), shift(1e-8))

    monkeypatch.setattr(measures, "wavelike_info", mutated)
    result = verify.check_balanced_state_wavelike()
    assert shapes == [(13, 2, 2)]
    assert not result.passed
    assert result.residual == pytest.approx(1e-8, rel=1e-3)


@pytest.mark.parametrize("key,check,residual", [
    ("concurrence_click_1", verify.check_wave_detector_entanglement, 1e-8),
    ("nonlocality_click_0", verify.check_wave_detector_entanglement, 1e-8),
    ("nonlocality_click_0", verify.check_werner_activation, 1e-8),
    # read twice by check 04: against its closed form and as half of n_l
    ("wavelike_q2", verify.check_werner_activation, 2e-8),
], ids=["03-concurrence", "03-nonlocality", "04-nonlocality", "04-wavelike"])
def test_checks_03_04_read_the_last_grid_point(monkeypatch, key, check, residual):
    wave_detector_run = verify.wave_detector_run

    def mutated(x, amplitudes):
        report = wave_detector_run(x, amplitudes)
        report.scalars[key] = with_last(report.scalars[key], shift(1e-8))
        return report

    monkeypatch.setattr(verify, "wave_detector_run", mutated)
    result = check()
    assert not result.passed
    assert result.residual == pytest.approx(residual, rel=1e-3)


@pytest.mark.parametrize("k", [0, 1])
def test_check_03_catches_a_transposed_conditional_state(monkeypatch, k):
    # a transposed state keeps every scalar, so only the closed-form states
    # can show it: the coherence 2 BS[k, 0] conj(BS[k, 1]) rho_01 turns into
    # its conjugate, a change of 2 x |alpha beta|, largest at the last x = 1
    wave_detector_run = verify.wave_detector_run

    def mutated(x, amplitudes):
        report = wave_detector_run(x, amplitudes)
        state = report.states[f"conditional_click_{k}"]
        report.states[f"conditional_click_{k}"] = state._replace(
            matrix=state.matrix.swapaxes(-1, -2))
        return report

    monkeypatch.setattr(verify, "wave_detector_run", mutated)
    result = verify.check_wave_detector_entanglement()
    assert not result.passed
    largest = max(2.0 * abs(a * np.sqrt(1.0 - a * a)) for a in np.linspace(0.0, 1.0, 10))
    assert result.residual == pytest.approx(largest, rel=1e-12)
    assert verify.check_werner_activation().passed


def test_run_checks_evaluates_the_wave_detector_grid_once(monkeypatch):
    wave_detector_run = verify.wave_detector_run
    calls = mock.Mock(side_effect=wave_detector_run)
    monkeypatch.setattr(verify, "wave_detector_run", calls)
    shared = verify.run_checks()
    assert calls.call_count == 10
    # called alone, each check evaluates the grid afresh, to the same result
    alone = [verify.check_wave_detector_entanglement(), verify.check_werner_activation()]
    assert calls.call_count == 30
    assert shared[2:4] == alone


@pytest.mark.parametrize("key", ["particlelike_q2", "entanglement_linear"])
def test_check_05_reads_the_last_grid_point(monkeypatch, key):
    dce_analyze = verify.dce_analyze

    def mutated(bs2_alpha, phi):
        report = dce_analyze(bs2_alpha, phi)
        report.scalars[key] = with_last(report.scalars[key], shift(1e-8))
        return report

    monkeypatch.setattr(verify, "dce_analyze", mutated)
    result = verify.check_delayed_choice_forms()
    assert not result.passed
    assert result.residual == pytest.approx(1e-8, rel=1e-3)


@pytest.mark.parametrize("shifts", [
    {"wavelike": 1e-8},
    {"particlelike": 1e-8},
    # the sum stays ln_q d, so only the independent oracle can catch this one
    {"wavelike": 1e-8, "particlelike": -1e-8},
], ids=["wavelike", "particlelike", "opposite"])
def test_check_06_reads_the_last_member(monkeypatch, shifts):
    duality = measures.duality

    def mutated(rho, k_obs, q=1.0):
        split = duality(rho, k_obs, q)
        return {**split, **{key: with_last(split[key], shift(amount))
                            for key, amount in shifts.items()}}

    monkeypatch.setattr(measures, "duality", mutated)
    result = verify.check_complementarity()
    assert not result.passed
    assert result.residual == pytest.approx(1e-8, rel=1e-3)


def test_check_06_catches_swapped_conjugates_in_the_populations(monkeypatch):
    # <k|rho^T|k> instead of <k|rho|k>: wrong in any complex basis, and the
    # duality's sum ln_q d still holds, so within check 06 only the oracle,
    # which dephases without this kernel, can catch it
    def swapped(rho, k_obs):
        u = k_obs.columns
        return np.einsum("...ak,...ak->...k", u, rho @ u.conj()).real

    monkeypatch.setattr(channels, "_populations", swapped)
    monkeypatch.setattr(measures, "_populations", swapped)
    result = verify.check_complementarity()
    assert not result.passed
    assert result.residual > 1e-3


@pytest.mark.parametrize("name,change", [
    ("wavelike_upper_bound", shift(-1.0)),
    # still above I_w, so only the exact q = 2 identity bound = 2 I_w catches it
    pytest.param("wavelike_upper_bound", lambda value: 2.0 * value, id="bound_doubled"),
    ("wavelike_info", lambda value: -1e-8),
])
def test_check_07_reads_the_last_member(monkeypatch, name, change):
    measure = getattr(measures, name)
    monkeypatch.setattr(measures, name,
                        lambda rho, k_obs, q=1.0: with_last(measure(rho, k_obs, q), change))
    result = verify.check_klein_bound()
    assert not result.passed
    assert result.residual >= 1e-8


@pytest.mark.parametrize("amount", [1e-3, -1e-3])
def test_check_08_reads_the_last_member(monkeypatch, amount):
    monkeypatch.setattr(verify, "chsh_bruteforce", lambda rho, **kwargs: with_last(
        nonlocality.chsh_bruteforce(rho, **kwargs), shift(amount)))
    result = verify.check_chsh_oracle()
    assert not result.passed
    assert result.residual == pytest.approx(1e-3, rel=1e-3)


def test_check_08_catches_a_sign_error_in_the_concurrence(monkeypatch):
    # s0 - s1 - s2 + s3: the same value wherever the smallest singular value
    # is 0, so only full-rank states can show it
    def plus_last(w, v):
        factor = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
        core = factor.swapaxes(-1, -2) @ nonlocality._SPIN_FLIP @ factor
        s = np.linalg.svd(core, compute_uv=False)
        return np.maximum(0.0, s[..., 0] - s[..., 1] - s[..., 2] + s[..., 3])

    monkeypatch.setattr(nonlocality, "_concurrence", plus_last)
    result = verify.check_chsh_oracle()
    assert not result.passed
    assert result.residual < result.tolerance   # the CHSH comparison still holds


def test_check_08_catches_a_transposed_correlation_tensor(monkeypatch):
    # chsh_nl reads only the singular values of T, which T^T shares; the
    # oracle scores its settings as a Bell operator expectation of rho itself
    correlations = nonlocality._correlations
    monkeypatch.setattr(nonlocality, "_correlations",
                        lambda rho: correlations(rho).swapaxes(-1, -2))
    result = verify.check_chsh_oracle()
    assert not result.passed
    assert result.residual > 1.0


def test_check_09_reads_the_last_member(monkeypatch):
    dephase = verify.dephase

    def mutated(rho, k_obs):
        out = dephase(rho, k_obs)
        out.reshape(-1)[-1] += 1e-8
        return out

    monkeypatch.setattr(verify, "dephase", mutated)
    result = verify.check_commutator_identity()
    assert not result.passed
    assert result.residual == pytest.approx(1e-8, rel=1e-3)


def test_check_10_reads_the_last_member(monkeypatch):
    tsallis_entropy = measures.tsallis_entropy
    monkeypatch.setattr(measures, "tsallis_entropy", lambda rho, q=1.0: with_last(
        tsallis_entropy(rho, q), shift(1e-8)))
    result = verify.check_joint_entropy()
    assert not result.passed
    assert result.residual == pytest.approx(1e-8, rel=1e-3)


def test_check_10_catches_a_scaled_entropy_kernel(monkeypatch):
    # the oracle sums -p ln p itself: had it called measures.shannon, which
    # shares this kernel with tsallis_entropy, both sides would scale alike
    spectral_entropy = measures._spectral_entropy
    monkeypatch.setattr(measures, "_spectral_entropy",
                        lambda lam, q: 1.001 * spectral_entropy(lam, q))
    result = verify.check_joint_entropy()
    assert not result.passed
    assert result.residual > 1e-3


def test_check_14_reads_the_last_grid_point(monkeypatch):
    morphing_scan = verify.morphing_scan

    def mutated(amplitudes, eta):
        report = morphing_scan(amplitudes, eta)
        report.scalars["wavelike_q2"] = with_last(report.scalars["wavelike_q2"], shift(1e-8))
        return report

    monkeypatch.setattr(verify, "morphing_scan", mutated)
    result = verify.check_morphing_limit()
    assert not result.passed
    assert result.residual == pytest.approx(1e-8, rel=1e-3)


def loop_density(rng, dim):
    # two standard_normal calls per Ginibre factor, as a loop of single draws made them
    g = rng.standard_normal((dim, dim)) + 1.0j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("count", [5, 40, 1000])   # under one period, partial last period
def test_draws_by_dimension_are_one_stack_per_dimension(count):
    # members at index 0 and basis factors at index 1 of one draw per dimension,
    # in ascending dimension: a regrouped or reordered draw fails here
    rng = np.random.default_rng(6)
    draws = list(verify._draws_by_dimension(np.random.default_rng(6), count))
    assert [dim for dim, _, _ in draws] == sorted({2 + i % 7 for i in range(count)})
    for dim, members, obs in draws:
        expected = sampling.ginibre(rng, dim, (2, len(range(dim - 2, count, 7))))
        assert np.array_equal(members, expected[0])
        assert np.array_equal(obs.columns, sampling.haar_unitary(expected[1]))


def test_check_10_distributions_lie_on_the_simplex(monkeypatch):
    rows = []
    shannon_rows = verify._shannon_rows
    monkeypatch.setattr(verify, "_shannon_rows", lambda p: rows.append(p) or shannon_rows(p))
    assert verify.check_joint_entropy().passed
    assert [p.shape for p in rows] == [(len(range(d - 2, 500, 7)), d) for d in range(2, 9)]
    for p in rows:
        assert np.all(p >= 0.0)
        assert np.max(np.abs(np.sum(p, axis=-1) - 1.0)) <= 1e-15


def simplex_rows(g):
    p = np.abs(g[..., 0]) ** 2
    return p / np.sum(p, axis=-1, keepdims=True)


@pytest.mark.parametrize("check,module,name,seed,count,member_map", [
    (verify.check_complementarity, measures, "duality", 6, 1000, sampling.density),
    (verify.check_klein_bound, measures, "wavelike_upper_bound", 7, 1000,
     sampling.full_rank_density),
    (verify.check_commutator_identity, verify, "dephase", 9, 500, sampling.hermitian),
    (verify.check_joint_entropy, verify, "_shannon_rows", 10, 500, simplex_rows),
], ids=["06", "07", "09", "10"])
def test_check_reads_the_stacks_of_its_own_seed(monkeypatch, check, module, name, seed,
                                                count, member_map):
    # each dimension's whole stack, mapped, with its basis: a check that drew from
    # another seed or count, or mapped its members otherwise, fails here
    original, seen = getattr(module, name), []
    monkeypatch.setattr(module, name,
                        lambda *args: seen.append(args[:2]) or original(*args))
    assert check().passed
    draws = list(verify._draws_by_dimension(np.random.default_rng(seed), count))
    assert len(seen) == len(draws)
    for args, (_, members, obs) in zip(seen, draws):
        assert np.array_equal(args[0], member_map(members))
        if len(args) > 1:
            assert np.array_equal(args[1].columns, obs.columns)


@pytest.mark.parametrize("dim", range(2, 9))
def test_entropy_oracle_keeps_the_bits_of_a_sum_per_spectrum(dim):
    # numpy's pairwise sum reorders eight terms, so d = 8 shows a reordered sum
    rng = np.random.default_rng(dim)
    pure = sampling.ginibre(rng, dim)[:, :1]
    stack = np.concatenate([sampling.density(sampling.ginibre(rng, dim, (50,))),
                            sampling.density(pure)[None], np.eye(dim)[None] / dim])
    spectra = np.clip(np.linalg.eigvalsh(stack), 0.0, None)
    entropies = verify._entropies_q1_q2(stack)
    assert np.array_equal(entropies[1.0], [
        float(sum(-p * np.log(p) for p in lam if p > 1e-15)) for lam in spectra])
    assert np.array_equal(entropies[2.0], [1.0 - np.sum(lam ** 2) for lam in spectra])


def test_check_08_keeps_the_loop_stream(monkeypatch):
    seen = []

    def capture(states, **kwargs):
        seen.append(states)
        return nonlocality.chsh_bruteforce(states, **kwargs)

    monkeypatch.setattr(verify, "chsh_bruteforce", capture)
    assert verify.check_chsh_oracle().passed
    rng = np.random.default_rng(8)
    assert np.array_equal(seen[0], np.array([loop_density(rng, 4) for _ in range(200)]))
