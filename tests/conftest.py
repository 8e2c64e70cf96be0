import numpy as np
import pytest

from dynrisk import AdaptedProcess, ConditionalValue, DensityProcess, DualFiniteUtility, FiniteFilteredSpace, dyadic_uniform
from dynrisk.random_gen import random_conditional, random_density


@pytest.fixture
def two_uniform():
    return FiniteFilteredSpace([0.5, 0.5], [[[0, 1]], [[0], [1]]])


@pytest.fixture
def four_tree():
    """Uniform 4-outcome space, F_1 = {01}{23}, F_2 discrete."""
    return dyadic_uniform(2)


@pytest.fixture
def four_paired():
    """Uniform 4-outcome, T=2, F_1 = F_2 = {01}{23}: no refinement at step 2."""
    return FiniteFilteredSpace(
        [0.25] * 4,
        [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0, 1], [2, 3]]],
    )


def uniform_density(space, t_start, t_end):
    """Increments 1/L at each of the window's L times: a density in every class."""
    L = t_end - t_start + 1
    return DensityProcess(space, t_start, np.full((L, space.n_outcomes), 1.0 / L))


def fresh(X):
    """X as a new process object: ``enumerate_class`` searches its class
    again instead of reading the class kept on X."""
    return AdaptedProcess(X.space, X.t_start, X.values.copy())


def random_dual_utility(space, t_start, t_end, rng, n_scenarios=2):
    """A concave, not coherent, dual utility: the first scenario's penalty 0
    keeps the normalization, the others draw theirs from [-2, 0)."""
    scen = []
    for i in range(n_scenarios):
        a = random_density(space, t_start, t_end, rng)
        if i == 0:
            g = ConditionalValue.constant(space, t_start, 0.0)
        else:
            g = random_conditional(space, t_start, rng, -2.0, 0.0)
        scen.append((a, g))
    return DualFiniteUtility(space, t_start, t_end, scen)
