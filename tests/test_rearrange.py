import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynrisk import (
    AdaptedProcess,
    CapExceededError,
    DensityProcess,
    FiniteFilteredSpace,
    dyadic_uniform,
    enumerate_class,
    enumerate_class_bruteforce,
    is_comonotone,
    lap_upper_bound,
    max_correlation,
    pairing,
    path_law,
)
from dynrisk.random_gen import random_adapted, random_density, random_space


def members_as_set(cls):
    return {tuple(np.round(m.values, 10).ravel()) for m in cls.members}


class TestPathLaw:
    def test_dedup_and_mass(self, four_paired):
        X = AdaptedProcess(four_paired, 0, [[1, 1, 1, 1], [2, 2, 2, 2], [3, 3, 4, 4]])
        law = path_law(X)
        assert law.paths.shape == (2, 3)
        assert np.allclose(law.masses, [0.5, 0.5])

    def test_invariant_across_class(self, four_tree):
        X = AdaptedProcess(four_tree, 0, [[0, 0, 0, 0], [2, 2, 1, 1], [1, 2, 5, 6]])
        base = path_law(X)
        for m in enumerate_class(X).members:
            assert path_law(m).approx_eq(base, 0)


class TestEnumerateClass:
    def test_two_point_swap(self, two_uniform):
        X = AdaptedProcess(two_uniform, 0, [[0.0, 0.0], [3.0, -1.0]])
        cls = enumerate_class(X)
        assert cls.size == 2
        assert not cls.level_restricted
        assert members_as_set(cls) == {(0, 0, 3, -1), (0, 0, -1, 3)}

    def test_generic_binary_tree(self, four_tree):
        # distinct increments at both times: swap atoms, then swap within each
        X = AdaptedProcess(four_tree, 0, [[0, 0, 0, 0], [2, 2, 1, 1], [3, 4, 5, 6]])
        cls = enumerate_class(X)
        assert cls.size == 8
        assert members_as_set(cls) == members_as_set(enumerate_class_bruteforce(X))

    def test_constant_process_is_singleton(self, four_tree):
        X = AdaptedProcess.constant(four_tree, 0, 2, 1.5)
        assert enumerate_class(X).size == 1

    def test_distinct_probs_force_singleton(self):
        sp = FiniteFilteredSpace([0.1, 0.2, 0.3, 0.4], [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]])
        X = AdaptedProcess(sp, 0, [[0, 0, 0, 0], [2, 2, 1, 1], [3, 4, 5, 6]])
        cls = enumerate_class(X)
        assert cls.level_restricted
        assert cls.size == 1

    def test_equal_prob_pair_swaps_within_level(self):
        sp = FiniteFilteredSpace([0.25, 0.25, 0.5], [[[0, 1, 2]], [[0, 1], [2]], [[0], [1], [2]]])
        X = AdaptedProcess(sp, 0, [[0, 0, 0], [1, 1, 4], [2, 3, 5]])
        cls = enumerate_class(X)
        # only the two equal-probability outcomes may trade paths
        assert cls.size == 2
        assert members_as_set(cls) == members_as_set(enumerate_class_bruteforce(X))

    def test_cap_enforced(self, four_tree):
        X = AdaptedProcess(four_tree, 0, [[0, 0, 0, 0], [2, 2, 1, 1], [3, 4, 5, 6]])
        with pytest.raises(CapExceededError):
            enumerate_class(X, cap=3)

    @given(seed=st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce(self, seed):
        g = np.random.default_rng(seed)
        sp = random_space(g, max_outcomes=5, max_horizon=3)
        X = random_adapted(sp, 0, sp.horizon, g)
        fast = enumerate_class(X)
        slow = enumerate_class_bruteforce(X)
        assert members_as_set(fast) == members_as_set(slow)


    def test_atom_spread_is_pruned_like_the_oracle(self):
        # time-1 values within 1e-12 of each atom's first outcome, but 1.8e-12
        # apart from each other: no member may put 2 and 3 on one atom
        sp = FiniteFilteredSpace([1 / 6] * 6, [[range(6)], [[0, 1, 2], [3, 4, 5]], [[w] for w in range(6)]])
        v = 0.3
        X = AdaptedProcess(sp, 0, [[0.0] * 6, [v, v, v + 9e-13, v - 9e-13, v, v], [1, 2, 3, 4, 5, 6]])
        fast = enumerate_class(X)
        exact = {m.values.tobytes() for m in fast.members}
        assert exact == {m.values.tobytes() for m in enumerate_class_bruteforce(X).members}
        assert len(exact) == fast.size == 432
        for m in fast.members:
            AdaptedProcess(sp, 0, m.values)  # the validating constructor accepts every member


class TestMaxCorrelation:
    def test_dominates_direct_pairing(self, four_tree):
        g = np.random.default_rng(40)
        a = random_density(four_tree, 0, 2, g)
        X = random_adapted(four_tree, 0, 2, g)
        res = max_correlation(a, X, 0)
        assert res.value.values[0] >= pairing(X, a, 0).values[0] - 1e-12

    def test_argmax_member_attains(self, four_tree):
        g = np.random.default_rng(41)
        a = random_density(four_tree, 0, 2, g)
        X = random_adapted(four_tree, 0, 2, g)
        res = max_correlation(a, X, 0)
        m = res.argmax_member(0)
        assert pairing(m, a, 0).values[0] == pytest.approx(res.value.values[0])

    def test_frozen_strict_gap_instance(self):
        sp = dyadic_uniform(2)
        X = AdaptedProcess(sp, 0, [[0, 0, 0, 0], [2, 2, 1, 1], [1, 2, 5, 5]])
        a = DensityProcess(sp, 0, [[0, 0, 0, 0], [0.6, 0.6, 0.4, 0.4], [1.2, 0.2, 0.2, 0.4]])
        res = max_correlation(a, X, 0)
        lap = lap_upper_bound(a, X, 0)
        assert res.rearrangement.size == 4
        assert res.value.values[0] == pytest.approx(2.7)
        assert lap.values[0] == pytest.approx(2.9)

    def test_lap_equals_class_max_single_atom_swap(self, two_uniform):
        g = np.random.default_rng(42)
        a = random_density(two_uniform, 0, 1, g)
        X = AdaptedProcess(two_uniform, 0, [[0.0, 0.0], [1.7, -0.3]])
        mc = max_correlation(a, X, 0).value.values[0]
        lap = lap_upper_bound(a, X, 0).values[0]
        assert lap == pytest.approx(mc)

    @given(seed=st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_lap_dominates(self, seed):
        g = np.random.default_rng(seed)
        sp = random_space(g, max_outcomes=5, max_horizon=3)
        a = random_density(sp, 0, sp.horizon, g)
        X = random_adapted(sp, 0, sp.horizon, g)
        t = int(g.integers(0, sp.horizon + 1))
        mc = max_correlation(a, X, t).value.values
        lap = lap_upper_bound(a, X, t).values
        assert np.all(lap >= mc - 1e-9)

    def test_later_window_per_atom(self, four_tree):
        g = np.random.default_rng(43)
        a = random_density(four_tree, 0, 2, g)
        X = random_adapted(four_tree, 0, 2, g)
        res = max_correlation(a, X, 1)
        assert res.value.values.shape == (2,)
        for k in range(2):
            m = res.argmax_member(k)
            assert pairing(m, a, 1).values[k] == pytest.approx(res.value.values[k])


class TestComonotone:
    def test_sorted_pair_certified(self, two_uniform):
        a0 = DensityProcess(two_uniform, 0, [[0.0, 0.0], [1.6, 0.4]])
        X = AdaptedProcess(two_uniform, 0, [[0.0, 0.0], [1.0, 0.0]])
        Y = AdaptedProcess(two_uniform, 0, [[0.0, 0.0], [2.0, 1.0]])
        cert = is_comonotone(a0, [X, Y])
        assert cert.comonotone
        assert all(r.max() <= 1e-9 for r in cert.member_residuals)
        assert cert.sum_residuals.max() <= 1e-9

    def test_misaligned_member_fails(self, two_uniform):
        a0 = DensityProcess(two_uniform, 0, [[0.0, 0.0], [1.6, 0.4]])
        X = AdaptedProcess(two_uniform, 0, [[0.0, 0.0], [1.0, 0.0]])
        Z = AdaptedProcess(two_uniform, 0, [[0.0, 0.0], [1.0, 2.0]])
        cert = is_comonotone(a0, [X, Z])
        assert not cert.comonotone
        assert any("member 1" in d for d in cert.details)
        assert cert.member_residuals[1].max() == pytest.approx(0.6)

    def test_constants_always_comonotone(self, four_tree):
        a0 = random_density(four_tree, 0, 2, np.random.default_rng(44))
        fam = [AdaptedProcess.constant(four_tree, 0, 2, c) for c in (1.0, -2.0, 0.0)]
        assert is_comonotone(a0, fam).comonotone

    def test_residuals_nonnegative(self, four_tree):
        g = np.random.default_rng(45)
        a0 = random_density(four_tree, 0, 2, g)
        fam = [random_adapted(four_tree, 0, 2, g) for _ in range(2)]
        cert = is_comonotone(a0, fam)
        for r in cert.member_residuals:
            assert r.min() >= -1e-12
        assert cert.sum_residuals.min() >= -1e-12

    def test_window_mismatch_rejected(self, four_tree):
        a0 = random_density(four_tree, 0, 2, np.random.default_rng(46))
        X = AdaptedProcess.constant(four_tree, 0, 2, 1.0)
        Y = AdaptedProcess.constant(four_tree, 1, 2, 1.0)
        with pytest.raises(ValueError, match="window"):
            is_comonotone(a0, [X, Y])
