import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynrisk import (
    AdaptedProcess,
    DensityProcess,
    FiniteFilteredSpace,
    StoppingTime,
    TerminalDensity,
    concatenate,
    enumerate_stopping_times,
    m1_closure,
    membership,
    pairing,
    paste,
    project,
    remaining_mass,
    stability_check,
)
from dynrisk.random_gen import random_adapted, random_density, random_space
from dynrisk.space import enumerate_stopping_events


@pytest.fixture
def two_step_discrete():
    """M=2, T=2, F_1 already discrete."""
    return FiniteFilteredSpace([0.5, 0.5], [[[0, 1]], [[0], [1]], [[0], [1]]])


class TestAdaptedProcess:
    def test_rejects_non_adapted(self, four_tree):
        with pytest.raises(ValueError, match="not constant on atom"):
            AdaptedProcess(four_tree, 0, [[0, 0, 0, 0], [1, 2, 3, 3], [1, 1, 2, 2]])

    def test_rejects_non_finite(self, four_tree):
        with pytest.raises(ValueError):
            AdaptedProcess(four_tree, 0, [[0, 0, 0, 0], [1, 1, 2, 2], [1, 1, np.inf, 2]])

    def test_sup_norm(self, four_tree):
        X = AdaptedProcess.constant(four_tree, 0, 2, -3.0)
        assert X.sup_norm() == 3.0
        Y = AdaptedProcess(four_tree, 1, [[1, 1, -5, -5], [0, 2, 0, 1]])
        assert Y.sup_norm() == 5.0

    def test_restrict_and_window(self, four_tree):
        X = AdaptedProcess(four_tree, 0, [[1, 1, 1, 1], [2, 2, 3, 3], [4, 5, 6, 7]])
        Y = X.restrict(1)
        assert Y.window == (1, 2)
        assert np.array_equal(Y.slice_at(1), [2, 2, 3, 3])

    def test_arithmetic(self, four_tree):
        X = AdaptedProcess(four_tree, 1, [[1, 1, 2, 2], [1, 2, 3, 4]])
        Y = (2.0 * X) + (-X)
        assert Y.approx_eq(X, 0)
        Z = X.shift_by(5.0)
        assert np.array_equal(Z.values - X.values, np.full((2, 4), 5.0))


class TestProject:
    def test_full_window_identity(self, four_tree):
        X = random_adapted(four_tree, 0, 2, np.random.default_rng(0))
        tau = StoppingTime.constant(four_tree, 0)
        theta = StoppingTime.constant(four_tree, 2)
        assert project(X, tau, theta).approx_eq(X, 0)

    def test_freeze_at_start(self, four_tree):
        X = AdaptedProcess(four_tree, 0, [[1, 1, 1, 1], [2, 2, 3, 3], [4, 5, 6, 7]])
        frozen = project(X, StoppingTime.constant(four_tree, 0), StoppingTime.constant(four_tree, 0))
        assert np.array_equal(frozen.values, np.ones((3, 4)))

    def test_branch_dependent_freeze(self, four_tree):
        X = AdaptedProcess(four_tree, 0, [[1, 1, 1, 1], [2, 2, 3, 3], [4, 5, 6, 7]])
        theta = StoppingTime(four_tree, [1, 1, 2, 2])
        out = project(X, StoppingTime.constant(four_tree, 0), theta)
        # up-branch freezes at X_1 = 2, down-branch follows X through time 2
        assert np.array_equal(out.slice_at(2), [2, 2, 6, 7])

    def test_idempotent(self, four_tree):
        X = random_adapted(four_tree, 0, 2, np.random.default_rng(1))
        tau = StoppingTime(four_tree, [1, 1, 2, 2])
        theta = StoppingTime.constant(four_tree, 2)
        once = project(X, tau, theta)
        twice = project(once, tau, theta)
        assert twice.approx_eq(once, 0)

    def test_rejects_tau_after_theta(self, four_tree):
        X = random_adapted(four_tree, 0, 2, np.random.default_rng(2))
        with pytest.raises(ValueError):
            project(X, StoppingTime.constant(four_tree, 2), StoppingTime.constant(four_tree, 1))


class TestPairing:
    def test_normalization(self, four_tree):
        a = random_density(four_tree, 0, 2, np.random.default_rng(0))
        one = AdaptedProcess.constant(four_tree, 0, 2, 1.0)
        assert np.allclose(pairing(one, a, 0).values, 1.0)

    def test_two_point_instance(self, two_uniform):
        a = DensityProcess(two_uniform, 0, [[0.0, 0.0], [1.2, 0.8]])
        X = AdaptedProcess(two_uniform, 0, [[3.0, 3.0], [2.0, -2.0]])
        assert pairing(X, a, 0).values[0] == pytest.approx(0.4)

    def test_cash_shift(self, four_tree):
        g = np.random.default_rng(4)
        a = random_density(four_tree, 0, 2, g)
        X = random_adapted(four_tree, 0, 2, g)
        base = pairing(X, a, 0).values
        shifted = pairing(X.shift_by(2.5), a, 0).values
        assert np.abs(shifted - base - 2.5).max() <= 1e-9

    @given(seed=st.integers(0, 300))
    @settings(max_examples=50, deadline=None)
    def test_bilinear(self, seed):
        g = np.random.default_rng(seed)
        sp = random_space(g, max_outcomes=6)
        T = sp.horizon
        a = random_density(sp, 0, T, g)
        X = random_adapted(sp, 0, T, g)
        Y = random_adapted(sp, 0, T, g)
        al, be = g.normal(size=2)
        lhs = pairing(al * X + be * Y, a, 0).values
        rhs = al * pairing(X, a, 0).values + be * pairing(Y, a, 0).values
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


class TestNorms:
    def test_density_norm_one(self, four_tree):
        a = random_density(four_tree, 0, 2, np.random.default_rng(5))
        assert a.a1_norm() == pytest.approx(1.0)

    def test_doubling(self, four_tree):
        a = random_density(four_tree, 0, 2, np.random.default_rng(6))
        doubled = DensityProcess(four_tree, 0, 2.0 * a.values)
        assert doubled.a1_norm() == pytest.approx(2.0 * a.a1_norm())


class TestMembership:
    def test_uniform_in_both(self, four_tree):
        a = DensityProcess.uniform(four_tree, 0, 2)
        assert membership(a, "D", 0)[0]
        assert membership(a, "De", 0)[0]

    def test_concentrated_not_strict(self, four_tree):
        vals = np.zeros((3, 4))
        vals[0] = 1.0
        a = DensityProcess(four_tree, 0, vals)
        assert membership(a, "D", 0)[0]
        ok, diag = membership(a, "De", 0)
        assert not ok
        assert "tail" in diag

    def test_negative_increment_flagged(self, four_tree):
        a = DensityProcess(four_tree, 0, [[0.5, 0.5, 0.5, 0.5], [0.6, 0.6, -0.1, -0.1], [-0.1, -0.1, 0.6, 0.6]])
        ok, diag = membership(a, "A1plus")
        assert not ok and "negative" in diag

    def test_wrong_mass_not_in_d(self, four_tree):
        vals = np.full((3, 4), 0.5)
        a = DensityProcess(four_tree, 0, vals)
        ok, diag = membership(a, "D", 0)
        assert not ok and "mass" in diag
        assert membership(a, "A1plus")[0]


class TestConcatenate:
    def test_self_is_identity(self, four_tree):
        g = np.random.default_rng(7)
        a = random_density(four_tree, 0, 2, g, strict=True)
        theta = StoppingTime(four_tree, [1, 1, 2, 2])
        out = concatenate(a, a, theta, np.ones(4, dtype=bool))
        assert out.approx_eq(a, 1e-12)

    def test_empty_event_returns_a(self, four_tree):
        g = np.random.default_rng(8)
        a = random_density(four_tree, 0, 2, g, strict=True)
        b = random_density(four_tree, 0, 2, g, strict=True)
        out = concatenate(a, b, StoppingTime.constant(four_tree, 1), np.zeros(4, dtype=bool))
        assert out.approx_eq(a, 0)

    def test_one_step_tail_rescale(self, two_uniform):
        a = DensityProcess(two_uniform, 0, [[0.0, 0.0], [1.2, 0.8]])
        b = DensityProcess(two_uniform, 0, [[0.0, 0.0], [0.4, 1.6]])
        out = concatenate(a, b, StoppingTime.constant(two_uniform, 1), np.ones(2, dtype=bool))
        # the single-step tail of b is rescaled back onto a's remaining mass
        assert out.approx_eq(a, 1e-12)
        assert membership(out, "D", 0)[0]

    def test_frozen_two_step(self, two_step_discrete):
        sp = two_step_discrete
        a = DensityProcess(sp, 0, [[0.2, 0.2], [0.3, 0.5], [0.5, 0.3]])
        b = DensityProcess(sp, 0, [[0.1, 0.1], [0.4, 0.4], [0.6, 0.4]])
        out = concatenate(a, b, StoppingTime.constant(sp, 1), np.ones(2, dtype=bool))
        expected = np.array([[0.2, 0.2], [0.32, 0.4], [0.48, 0.4]])
        assert np.abs(out.values - expected).max() <= 1e-12
        assert membership(out, "D", 0)[0]

    def test_agrees_with_a_before_theta_and_off_event(self, four_tree):
        g = np.random.default_rng(9)
        a = random_density(four_tree, 0, 2, g, strict=True)
        b = random_density(four_tree, 0, 2, g, strict=True)
        mask = np.array([True, True, False, False])
        theta = StoppingTime(four_tree, [1, 1, 1, 1])
        out = concatenate(a, b, theta, mask)
        assert np.array_equal(out.slice_at(0), a.slice_at(0))
        # off the event the original density continues at every time
        assert np.array_equal(out.values[:, 2:], a.values[:, 2:])

    @given(seed=st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_preserves_d_membership(self, seed):
        g = np.random.default_rng(seed)
        sp = random_space(g, max_outcomes=6)
        T = sp.horizon
        a = random_density(sp, 0, T, g)
        b = random_density(sp, 0, T, g)
        s = int(g.integers(0, T + 1))
        theta = StoppingTime.constant(sp, s)
        picks = g.random(sp.n_atoms(s)) < 0.5
        mask = picks[sp.atom_index(s)]
        out = concatenate(a, b, theta, mask)
        ok, diag = membership(out, "D", 0)
        assert ok, diag


class TestPaste:
    def test_self_is_identity(self, four_tree):
        f = TerminalDensity.normalized(four_tree, [1.5, 0.5, 1.0, 1.0])
        out = paste(f, f, 1, np.array([True, True, False, False]))
        assert out.approx_eq(f, 1e-12)

    def test_full_event_at_zero_gives_g(self, four_tree):
        f = TerminalDensity.normalized(four_tree, [1.5, 0.5, 1.0, 1.0])
        g = TerminalDensity.normalized(four_tree, [0.5, 1.5, 1.0, 1.0])
        out = paste(f, g, 0, np.ones(4, dtype=bool))
        assert out.approx_eq(g, 1e-12)

    def test_frozen_half_event(self, four_tree):
        f = TerminalDensity(four_tree, [1.5, 0.5, 1.0, 1.0])
        g = TerminalDensity(four_tree, [0.5, 1.5, 1.0, 1.0])
        out = paste(f, g, 1, np.array([True, True, False, False]))
        assert np.abs(out.h - np.array([0.5, 1.5, 1.0, 1.0])).max() <= 1e-12
        assert four_tree.expect(out.h) == pytest.approx(1.0)

    def test_positivity_enforced(self, four_tree):
        with pytest.raises(ValueError):
            TerminalDensity(four_tree, [2.0, 0.0, 1.0, 1.0])

    @given(seed=st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_preserves_relative_class(self, seed):
        rg = np.random.default_rng(seed)
        sp = random_space(rg, max_outcomes=6)
        f = TerminalDensity.normalized(sp, rg.random(sp.n_outcomes) + 0.1)
        g = TerminalDensity.normalized(sp, rg.random(sp.n_outcomes) + 0.1)
        s = int(rg.integers(0, sp.horizon + 1))
        picks = rg.random(sp.n_atoms(s)) < 0.5
        mask = picks[sp.atom_index(s)]
        out = paste(f, g, s, mask)
        assert np.all(out.h > 0)
        assert abs(sp.expect(out.h) - 1.0) <= 1e-10


class TestStability:
    def test_singleton_density_stable(self, four_tree):
        a = random_density(four_tree, 0, 2, np.random.default_rng(10), strict=True)
        rep = stability_check([a], "concatenation", cap=200_000)
        assert rep.stable

    def test_missing_pasting_found(self, four_tree):
        # f carries non-unit mass on the time-1 atoms, so pasting g's shape
        # under f's masses leaves the pair
        f = TerminalDensity.normalized(four_tree, [1.6, 0.8, 0.8, 0.8])
        g = TerminalDensity.normalized(four_tree, [0.5, 1.5, 1.0, 1.0])
        rep = stability_check([f, g], "m1")
        assert not rep.stable
        assert rep.missing is not None

    def test_m1_closure_reaches_fixpoint(self, four_tree):
        f = TerminalDensity.normalized(four_tree, [1.6, 0.8, 0.8, 0.8])
        g = TerminalDensity.normalized(four_tree, [0.5, 1.5, 1.0, 1.0])
        closed = m1_closure([f, g])
        rep = stability_check(closed, "m1")
        assert rep.stable
        assert len(closed) == 4

    def test_exhaustive_vs_deterministic_flag(self):
        for outcomes, mode in ((8, "all"), (9, "deterministic-only")):
            sp = random_space(np.random.default_rng(11), max_outcomes=outcomes, min_outcomes=outcomes, max_horizon=3)
            a = random_density(sp, 0, sp.horizon, np.random.default_rng(12), strict=True)
            rep = stability_check([a], "concatenation", cap=500_000)
            assert rep.stable
            assert rep.stopping_times == mode
            # one scalar splice per (stopping time, event): a singleton set splices back to itself
            if mode == "all":
                thetas = enumerate_stopping_times(sp)
            else:
                thetas = [StoppingTime.constant(sp, s) for s in range(sp.horizon + 1)]
            splices = 0
            for theta in thetas:
                for mask in enumerate_stopping_events(sp, theta):
                    assert concatenate(a, a, theta, mask).approx_eq(a)
                    splices += 1
            assert rep.generated == splices

    def test_stacked_check_memory_does_not_grow_with_the_splices(self):
        # 7 outcomes that split at t=1 and stay apart: 2188 stopping times, 280k splices per pair
        M, T = 7, 3
        sp = FiniteFilteredSpace(np.full(M, 1 / M), [[list(range(M))]] + [[[k] for k in range(M)]] * T)
        rng = np.random.default_rng(3)
        dens = []
        for _ in range(2):
            v = rng.uniform(0.1, 1.0, (T + 1, M))
            v[0] = v[0, 0]
            dens.append(DensityProcess(sp, 0, v))
        tracemalloc.start()
        try:
            rep = stability_check(dens, "concatenation")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # pair (a0, a0) splices back to a0 every time; the first miss is in pair (a0, a1)
        per_pair = sum(len(enumerate_stopping_events(sp, th)) for th in enumerate_stopping_times(sp))
        assert not rep.stable and per_pair < rep.generated <= 2 * per_pair
        # one (splices, M) float array would take 15 MB
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestRemainingMass:
    def test_density_has_unit_mass(self, four_tree):
        a = random_density(four_tree, 0, 2, np.random.default_rng(13))
        m = remaining_mass(a, 0)
        assert np.allclose(m.values, 1.0)

    def test_tail_after_restriction(self, four_tree):
        a = random_density(four_tree, 0, 2, np.random.default_rng(14), strict=True)
        tail = remaining_mass(a, 1).lift()
        assert np.all(tail > 0)
        assert np.all(tail <= 1.0 + 1e-12)
