"""The batched verify checks read every member of their stacked results.

Each mutation below changes only the last member of every stacked library
result, and the check must then fail: a check that dropped a member, or
compared a result with itself, would still pass.
"""

import numpy as np
import pytest

from waveparticle import measures, nonlocality, verify


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


@pytest.mark.parametrize("name,change", [
    ("wavelike_upper_bound", shift(-1.0)),
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
