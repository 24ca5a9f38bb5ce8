"""Stacked Ginibre draws keep the random stream; the maps act member by member."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from waveparticle import sampling

MAPS = (sampling.haar_unitary, sampling.density,
        sampling.full_rank_density, sampling.hermitian)

stacks = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(1, 5))


def two_call_ginibre(rng, dim):
    return rng.standard_normal((dim, dim)) + 1.0j * rng.standard_normal((dim, dim))


@settings(max_examples=40, deadline=None)
@given(stacks)
def test_a_stack_holds_the_draws_of_a_loop(case):
    seed, dim, size = case
    stack = sampling.ginibre(np.random.default_rng(seed), dim, (size,))
    rng = np.random.default_rng(seed)
    singles = [sampling.ginibre(rng, dim) for _ in range(size)]
    rng = np.random.default_rng(seed)
    formula = [two_call_ginibre(rng, dim) for _ in range(size)]
    assert stack.shape == (size, dim, dim)
    for member, single, reference in zip(stack, singles, formula):
        assert np.array_equal(member, single)
        assert np.array_equal(member, reference)


@settings(max_examples=40, deadline=None)
@given(stacks)
def test_each_map_on_a_stack_is_the_map_on_each_member(case):
    seed, dim, size = case
    stack = sampling.ginibre(np.random.default_rng(seed), dim, (size,))
    for matrix_map in MAPS:
        mapped = matrix_map(stack)
        assert mapped.shape == stack.shape
        for member, out in zip(stack, mapped):
            assert np.array_equal(matrix_map(member), out), matrix_map.__name__


@settings(max_examples=40, deadline=None)
@given(stacks)
def test_the_maps_make_what_they_name(case):
    seed, dim, size = case
    stack = sampling.ginibre(np.random.default_rng(seed), dim, (size,))
    eye = np.eye(dim)

    u = sampling.haar_unitary(stack)
    assert np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - eye)) < 1e-12

    rho = sampling.density(stack)
    assert np.allclose(np.trace(rho, axis1=-2, axis2=-1), 1.0, rtol=0.0, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12

    full = sampling.full_rank_density(stack)
    assert np.min(np.linalg.eigvalsh(full)) >= 0.05 / dim - 1e-12

    h = sampling.hermitian(stack)
    assert np.array_equal(h, h.conj().swapaxes(-1, -2))

