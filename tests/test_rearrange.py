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
from dynrisk.rearrange import PATH_TOL


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

    def test_cap_boundary(self, four_tree):
        # a class of n members passes cap n and raises at n - 1
        X = spread_case()
        assert enumerate_class(X, cap=432).size == 432
        with pytest.raises(CapExceededError):
            enumerate_class(X, cap=431)
        one = AdaptedProcess.constant(four_tree, 0, 2, 1.5)
        assert enumerate_class(one, cap=1).size == 1
        with pytest.raises(CapExceededError):
            enumerate_class(one, cap=0)

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
        # no member may put the paths of outcomes 2 and 3 on one atom
        X = spread_case()
        fast = enumerate_class(X)
        exact = {m.values.tobytes() for m in fast.members}
        assert exact == {m.values.tobytes() for m in enumerate_class_bruteforce(X).members}
        assert len(exact) == fast.size == 432
        for m in fast.members:
            AdaptedProcess(X.space, 0, m.values)  # the validating constructor accepts every member


def _enumerate_class_reference(X_hat, cap=100_000):
    """The recursive enumeration that ``enumerate_class`` replaced, kept as a
    reference: (values stack in member order, level_restricted)."""
    space = X_hat.space
    M, L = space.n_outcomes, X_hat.length
    order = np.argsort(space.probs, kind="stable")
    levels: list[list[int]] = []
    for w in order:
        if levels and abs(space.probs[levels[-1][-1]] - space.probs[w]) <= PATH_TOL:
            levels[-1].append(int(w))
        else:
            levels.append([int(w)])
    level_of = np.empty(M, dtype=int)
    for li, lev in enumerate(levels):
        level_of[lev] = li
    level_pool = []
    for lev in levels:
        pool = []
        rows = sorted((X_hat.values[:, w] for w in lev), key=lambda r: tuple(r))
        for row in rows:
            if pool and np.abs(pool[-1][0] - row).max() <= PATH_TOL:
                pool[-1] = (pool[-1][0], pool[-1][1] + 1)
            else:
                pool.append((row, 1))
        level_pool.append(pool)
    paths = [[row.tolist() for row, _ in pool] for pool in level_pool]
    prev = [[-1] * M for _ in range(L)]
    for k in range(L):
        for atom in space.atoms(X_hat.t_start + k):
            for p, w in zip(atom, atom[1:]):
                prev[k][w] = p
    hi = [[0.0] * M for _ in range(L)]
    lo = [[0.0] * M for _ in range(L)]
    counts = [[c for _, c in pool] for pool in level_pool]
    assigned = np.empty((L, M))
    found = []

    def place(w):
        if w == M:
            if len(found) >= cap:
                raise CapExceededError(f"rearrangement class exceeds cap {cap}")
            found.append(assigned.copy())
            return
        li = level_of[w]
        for pi, path in enumerate(paths[li]):
            if counts[li][pi] == 0:
                continue
            ok = True
            for k in range(L):
                x = path[k]
                p = prev[k][w]
                h = x if p < 0 else max(hi[k][p], x)
                l = x if p < 0 else min(lo[k][p], x)
                if h - l > PATH_TOL:
                    ok = False
                    break
                hi[k][w] = h
                lo[k][w] = l
            if not ok:
                continue
            assigned[:, w] = path
            counts[li][pi] -= 1
            place(w + 1)
            counts[li][pi] += 1

    place(0)
    return np.array(found, dtype=float).reshape((len(found),) + X_hat.values.shape), len(levels) > 1


def raises_cap(enumerate_, X, cap):
    try:
        enumerate_(X, cap)
    except CapExceededError:
        return True
    return False


def assert_same_class(X, label):
    """Stack bits, member order, level flag, and the cap at which each raises."""
    want, restricted = _enumerate_class_reference(X)
    got = enumerate_class(X)
    assert got.values.shape == want.shape, label
    assert got.values.tobytes() == want.tobytes(), label
    assert got.level_restricted == restricted, label
    assert got.size == len(got.members) == len(want), label
    for i, m in enumerate(got.members):
        assert m.values.tobytes() == want[i].tobytes() and m.window == X.window, label
    for cap in {0, len(want) - 1, len(want)} - {-1}:
        assert raises_cap(enumerate_class, X, cap) == raises_cap(_enumerate_class_reference, X, cap), (label, cap)
    return len(want)


def spread_case():
    """Time-1 values within 1e-12 of each atom's first outcome, but 1.8e-12
    apart from each other: a 432-member class."""
    sp = FiniteFilteredSpace([1 / 6] * 6, [[range(6)], [[0, 1, 2], [3, 4, 5]], [[w] for w in range(6)]])
    v = 0.3
    return AdaptedProcess(sp, 0, [[0.0] * 6, [v, v, v + 9e-13, v - 9e-13, v, v], [1, 2, 3, 4, 5, 6]])


class TestEnumerationMatchesTheReference:
    """``enumerate_class`` gives the recursive reference's stack, bit for bit
    and in member order, and raises at the same caps."""

    def test_duality_gate_marginals_and_sums(self):
        # the duality gate's generator, seeds 3000-3099 (tests/test_acceptance.py)
        sizes = []
        for seed in range(100):
            g = np.random.default_rng(3000 + seed)
            while True:
                sp = random_space(g, max_outcomes=6, max_horizon=3, uniform=bool(g.random() < 0.5))
                t0 = int(g.integers(0, sp.horizon))
                t1 = min(sp.horizon, t0 + int(g.integers(1, 3)))
                n = int(g.integers(1, 4))
                members = []
                if g.random() < 0.2:
                    members.append(AdaptedProcess.constant(sp, t0, t1, float(g.normal())))
                while len(members) < n:
                    members.append(random_adapted(sp, t0, t1, g))
                if int(np.prod([enumerate_class(X, 200_000).size for X in members])) <= 200_000:
                    break
            total = members[0]
            for X in members[1:]:
                total = total + X
            for i, X in enumerate(members + [total]):
                sizes.append(assert_same_class(X, f"seed {3000 + seed}, process {i}"))
        assert sum(s == 1 for s in sizes) >= 50 and sum(s >= 100 for s in sizes) >= 5, sizes

    def test_tied_paths_on_non_uniform_levels(self):
        # probabilities from three weights, so levels of several outcomes;
        # values on a half-grid, so equal paths, or within PATH_TOL of equal
        restricted = tied = 0
        sizes = []
        for seed in range(60):
            g = np.random.default_rng([17, seed])
            shape = random_space(g, max_outcomes=7, max_horizon=3, min_outcomes=3)
            raw = g.choice([1.0, 2.0, 3.0], size=shape.n_outcomes)
            sp = FiniteFilteredSpace(raw / raw.sum(), [list(p) for p in shape.partitions])
            t0 = int(g.integers(0, sp.horizon + 1))
            X = random_adapted(sp, t0, sp.horizon, g)
            vals = np.round(X.values * 2.0) / 2.0
            if seed % 3 == 0:
                vals = vals + g.choice([-4e-13, 0.0, 4e-13], size=vals.shape)
            X = AdaptedProcess(sp, t0, vals)
            sizes.append(assert_same_class(X, f"seed {seed}"))
            restricted += len(set(raw)) > 1
            tied += len({tuple(c) for c in np.round(X.values.T, 9)}) < sp.n_outcomes
        assert restricted >= 40 and tied >= 40 and sum(s > 1 for s in sizes) >= 20, (restricted, tied, sizes)

    def test_late_windows(self):
        sizes = []
        for seed in range(40):
            g = np.random.default_rng([18, seed])
            sp = random_space(g, max_outcomes=6, max_horizon=3, uniform=bool(seed % 2))
            t0 = int(g.integers(1, sp.horizon + 1))
            X = random_adapted(sp, t0, int(g.integers(t0, sp.horizon + 1)), g)
            sizes.append(assert_same_class(AdaptedProcess(sp, t0, np.round(X.values)), f"seed {seed}"))
        assert len(sizes) >= 30 and sum(s > 1 for s in sizes) >= 10, sizes

    def test_atom_spread_case(self):
        assert assert_same_class(spread_case(), "spread") == 432

    def test_unadapted_stack_gives_an_empty_class(self):
        # an unvalidated stack spreading 2e-12 on an atom: no arrangement is kept,
        # on the one-path-per-level return too
        for probs in ([0.25] * 4, [0.1, 0.2, 0.3, 0.4]):
            sp = FiniteFilteredSpace(probs, [[range(4)], [[0, 1], [2, 3]]])
            X = AdaptedProcess._wrap(sp, 1, np.array([[1.0, 1.0 + 2e-12, 5.0, 5.0]]))
            assert assert_same_class(X, str(probs)) == 0


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

    def test_lap_refuses_a_density_on_another_space(self):
        X = AdaptedProcess(dyadic_uniform(2), 0, [[0, 0, 0, 0], [2, 2, 1, 1], [1, 2, 5, 5]])
        a = random_density(dyadic_uniform(2), 0, 2, np.random.default_rng(3), strict=True)
        for bound in (max_correlation, lap_upper_bound):
            with pytest.raises(ValueError, match="density lives on a different space"):
                bound(a, X, 0)

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
