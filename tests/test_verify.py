"""The batched verify checks read every member of their stacked results.

Each mutation below changes only the last member of every stacked library
result, and the check must then fail: a check that dropped a member, or
compared a result with itself, would still pass.
"""

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


# The draw stream of checks 06-10, pinned to a loop of single draws with the
# formulas the stacked maps replace: two `standard_normal` calls per Ginibre
# factor and one QR per basis. A reordered or regrouped draw fails here.

def two_call_ginibre(rng, dim):
    return rng.standard_normal((dim, dim)) + 1.0j * rng.standard_normal((dim, dim))


def loop_unitary(rng, dim):
    q, r = np.linalg.qr(two_call_ginibre(rng, dim))
    diag = np.diagonal(r).copy()
    diag /= np.abs(diag)
    return q * diag


def loop_density(rng, dim):
    g = two_call_ginibre(rng, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def loop_full_rank_density(rng, dim):
    return 0.95 * loop_density(rng, dim) + 0.05 * np.eye(dim, dtype=complex) / dim


def loop_hermitian(rng, dim):
    g = two_call_ginibre(rng, dim)
    return (g + g.conj().T) / 2.0


def loop_probabilities(rng, dim):
    return rng.dirichlet(np.ones(dim))


@pytest.mark.parametrize("count", [5, 40, 1000])   # under one period, partial last period
@pytest.mark.parametrize("seed,draws_by_dimension,member_map,loop_member", [
    (6, verify._draws_by_dimension, sampling.density, loop_density),
    (7, verify._draws_by_dimension, sampling.full_rank_density, loop_full_rank_density),
    (9, verify._draws_by_dimension, sampling.hermitian, loop_hermitian),
    (10, verify._probabilities_by_dimension, lambda p: p, loop_probabilities),
], ids=["06", "07", "09", "10"])
def test_draws_by_dimension_keep_the_loop_stream(seed, draws_by_dimension, member_map,
                                                 loop_member, count):
    rng = np.random.default_rng(seed)
    members, bases = {}, {}
    for i in range(count):
        dim = 2 + i % 7
        members.setdefault(dim, []).append(loop_member(rng, dim))
        bases.setdefault(dim, []).append(loop_unitary(rng, dim))

    draws = list(draws_by_dimension(np.random.default_rng(seed), count))
    assert [dim for dim, _, _ in draws] == sorted({2 + i % 7 for i in range(count)})
    for dim, stack, obs in draws:
        assert np.array_equal(member_map(stack), np.array(members[dim]))
        assert np.array_equal(obs.columns, np.array(bases[dim]))


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
