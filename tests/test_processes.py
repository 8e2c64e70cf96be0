import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynrisk import (
    AdaptedProcess,
    ConditionalValue,
    DensityProcess,
    DualFiniteUtility,
    EntropicUtility,
    FiniteFilteredSpace,
    Portfolio,
    RobustEntropicUtility,
    StoppingTime,
    TerminalDensity,
    argmax_density,
    average_risk,
    check_law_invariance,
    concatenate,
    dyadic_uniform,
    entropic_process,
    enumerate_stopping_times,
    is_comonotone,
    lap_upper_bound,
    m1_closure,
    matrix_compare,
    matrix_sup,
    max_correlation,
    mean_portfolio,
    membership,
    pairing,
    paste,
    penalty,
    penalty_vertices,
    remaining_mass,
    stability_check,
    time_consistency_check,
    verify_linear_driven_portfolio,
    worst_portfolio_bruteforce,
    worst_scenario,
)
from dynrisk.random_gen import random_adapted, random_density, random_space
from dynrisk.space import enumerate_stopping_events
from conftest import uniform_density


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
        Y = AdaptedProcess(four_tree, 1, X.values * 2.0) + (-X)
        assert Y.approx_eq(X, 0)
        Z = X.shift_by(5.0)
        assert np.array_equal(Z.values - X.values, np.full((2, 4), 5.0))

    def test_constant_on_a_reversed_window_rejected(self, four_tree):
        with pytest.raises(ValueError, match=r"window \[2, 0\] ends before it starts"):
            AdaptedProcess.constant(four_tree, 2, 0, 1.0)

    @pytest.mark.parametrize("op", [lambda X: X + X, lambda X: -X + -X], ids=["add", "sub"])
    def test_overflowing_arithmetic_rejected(self, op):
        # finite operands whose sum or difference (a sum with a negated operand)
        # overflows: a ValueError, not numpy's warning (an error under the
        # suite's RuntimeWarning filter) and not an infinite position
        X = AdaptedProcess(dyadic_uniform(1), 0, [[1e308, 1e308], [1.5e308, -1e308]])
        with pytest.raises(ValueError, match="the result overflows"):
            op(X)

    def test_overflowing_shift_rejected(self):
        # a shift goes through the same refusal as the other arithmetic
        sp = dyadic_uniform(1)
        X = AdaptedProcess(sp, 0, [[1e308, 1e308], [1e308, -1e308]])
        for m in (1e308, ConditionalValue(sp, 0, [1e308])):
            with pytest.raises(ValueError, match="the result overflows"):
                X.shift_by(m)
        for m in (np.nan, np.inf, ConditionalValue(sp, 0, [-np.inf])):
            with pytest.raises(ValueError, match="cannot shift a position by a non-finite amount"):
                X.shift_by(m)


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
        lhs = pairing(AdaptedProcess(sp, 0, al * X.values + be * Y.values), a, 0).values
        rhs = al * pairing(X, a, 0).values + be * pairing(Y, a, 0).values
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


class TestMembership:
    def test_uniform_in_both(self, four_tree):
        a = uniform_density(four_tree, 0, 2)
        assert membership(a, "D")[0]
        assert membership(a, "De")[0]

    def test_concentrated_not_strict(self, four_tree):
        vals = np.zeros((3, 4))
        vals[0] = 1.0
        a = DensityProcess(four_tree, 0, vals)
        assert membership(a, "D")[0]
        ok, diag = membership(a, "De")
        assert not ok
        assert "tail" in diag

    def test_negative_increment_flagged(self, four_tree):
        a = DensityProcess(four_tree, 0, [[0.5, 0.5, 0.5, 0.5], [0.6, 0.6, -0.1, -0.1], [-0.1, -0.1, 0.6, 0.6]])
        ok, diag = membership(a, "A1plus")
        assert not ok and "negative" in diag

    def test_wrong_mass_not_in_d(self, four_tree):
        vals = np.full((3, 4), 0.5)
        a = DensityProcess(four_tree, 0, vals)
        ok, diag = membership(a, "D")
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
        assert membership(out, "D")[0]

    def test_frozen_two_step(self, two_step_discrete):
        sp = two_step_discrete
        a = DensityProcess(sp, 0, [[0.2, 0.2], [0.3, 0.5], [0.5, 0.3]])
        b = DensityProcess(sp, 0, [[0.1, 0.1], [0.4, 0.4], [0.6, 0.4]])
        out = concatenate(a, b, StoppingTime.constant(sp, 1), np.ones(2, dtype=bool))
        expected = np.array([[0.2, 0.2], [0.32, 0.4], [0.48, 0.4]])
        assert np.abs(out.values - expected).max() <= 1e-12
        assert membership(out, "D")[0]

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
        ok, diag = membership(out, "D")
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


class TestTerminalDensity:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="strictly positive"):
            TerminalDensity(dyadic_uniform(1), [np.nan, 1.0])

    def test_normalized_refuses_zero_mass(self):
        with pytest.raises(ValueError, match="cannot normalize"):
            TerminalDensity.normalized(dyadic_uniform(1), [0.0, 0.0])


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


def position(sp):
    """A position on window (0, 2) of ``dyadic_uniform(2)``."""
    return AdaptedProcess(sp, 0, [[1, 1, 1, 1], [2, 2, -1, -1], [0, 3, 1, -2]])


def dual(sp):
    """A coherent one-scenario utility on window (0, 2)."""
    return DualFiniteUtility(sp, 0, 2, [(uniform_density(sp, 0, 2), ConditionalValue.constant(sp, 0, 0.0))])


UTILITIES = {
    "dual": dual,
    "entropic": lambda sp: EntropicUtility(sp, 1.0, 0),
    "robust": lambda sp: RobustEntropicUtility(sp, 1.0, [TerminalDensity(sp, [1.0] * 4)], 0),
}

# entry -> (noun of the object that does not fit, call on dyadic_uniform(2) with it);
# a noun of None names an entry that holds the object to a fitting one's window
MISFIT_CALLS = {
    "pairing": ("density", lambda sp, a: pairing(position(sp), a, 0, 2)),
    "max_correlation": ("density", lambda sp, a: max_correlation(a, position(sp), 0, 2)),
    "lap_upper_bound": ("density", lambda sp, a: lap_upper_bound(a, position(sp), 0)),
    "is_comonotone": (None, lambda sp, X: is_comonotone(uniform_density(sp, 0, 2), [position(sp), X])),
    **{f"evaluate[{k}]": ("position", lambda sp, X, k=k: UTILITIES[k](sp).evaluate(X)) for k in UTILITIES},
    **{f"insurance[{k}]": ("position", lambda sp, X, k=k: UTILITIES[k](sp).insurance(X)) for k in UTILITIES},
    "DualFiniteUtility": ("density", lambda sp, a: DualFiniteUtility(sp, 0, 2, [(a, ConditionalValue.constant(sp, 0, 0.0))])),
    "penalty": ("density", lambda sp, a: penalty(dual(sp), a)),
    "penalty_vertices": ("density", lambda sp, a: penalty_vertices(dual(sp), a)),
    "argmax_density": ("position", lambda sp, X: argmax_density(dual(sp), X)),
    "check_law_invariance": ("position", lambda sp, X: check_law_invariance(dual(sp), X)),
    "matrix_sup": ("position", lambda sp, X: matrix_sup(dual(sp), X, [np.eye(X.length)])),
    "matrix_compare": ("position", lambda sp, X: matrix_compare(np.eye(X.length), dual(sp), Portfolio([X]), Portfolio([X]))),
    "worst_scenario": ("density", lambda sp, a: worst_scenario([a], Portfolio([position(sp)]), dual(sp))),
    "worst_scenario[marginals]": (
        "position",
        lambda sp, X: worst_scenario([uniform_density(sp, 0, 2)], Portfolio([X]), dual(sp)),
    ),
    "average_risk": ("density", lambda sp, a: average_risk(a, Portfolio([position(sp)]), dual(sp))),
    "average_risk[marginals]": (
        "position",
        lambda sp, X: average_risk(uniform_density(sp, 0, 2), Portfolio([X]), dual(sp)),
    ),
    "worst_portfolio_bruteforce": ("position", lambda sp, X: worst_portfolio_bruteforce(Portfolio([X]), dual(sp))),
    "verify_linear_driven_portfolio": ("density", lambda sp, a: verify_linear_driven_portfolio(Portfolio([position(sp)]), a)),
    "time_consistency_check": ("position", lambda sp, X: time_consistency_check(entropic_process(sp, 1.0), samples=[X])),
    "consistency_residual": (
        "position",
        lambda sp, X: entropic_process(sp, 1.0).consistency_residual(0, StoppingTime.constant(sp, 1), X),
    ),
    "Portfolio": (None, lambda sp, X: Portfolio([position(sp), X])),
}


@pytest.mark.parametrize("misfit", ["another-space", "late-window"])
@pytest.mark.parametrize("entry", MISFIT_CALLS)
def test_objects_that_do_not_fit_are_refused_by_the_window_rule(entry, misfit):
    # another space: the uniform 4-outcome tree whose t=1 atoms are {0, 2} and {1, 3};
    # a late window: (1, 2) where the entry needs (0, 2)
    sp = dyadic_uniform(2)
    noun, call = MISFIT_CALLS[entry]
    if misfit == "another-space":
        home, t_start = FiniteFilteredSpace([0.25] * 4, [[[0, 1, 2, 3]], [[0, 2], [1, 3]], [[0], [1], [2], [3]]]), 0
    else:
        home, t_start = sp, 1
    rng = np.random.default_rng(5)
    obj = random_density(home, t_start, 2, rng, strict=True) if noun == "density" else random_adapted(home, t_start, 2, rng)
    if noun is None:
        message = "processes live on different spaces or windows"
    elif misfit == "another-space":
        message = f"{noun} lives on a different space"
    else:
        message = f"{noun} window (1, 2) does not cover (0, 2)"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(sp, obj)


# refusals at the trust boundary: (a call on dyadic_uniform(2), the message it raises)
REFUSALS = {
    "window-shape": (lambda sp: AdaptedProcess(sp, 0, [1.0, 2.0, 3.0, 4.0]), "expected a (times, 4) array, got (4,)"),
    "window-past-the-horizon": (lambda sp: DensityProcess(sp, 2, np.ones((2, 4))), "window [2, 3] outside [0, 2]"),
    "terminal-shape": (lambda sp: TerminalDensity(sp, [1.0, 1.0]), "one density value per outcome required"),
    "terminal-mean": (lambda sp: TerminalDensity(sp, [2.0] * 4), "terminal density has expectation 2.0, not 1"),
    "mean-of-nothing": (lambda sp: mean_portfolio([]), "empty portfolio"),
    "concatenate-off-the-stopping-time": (
        lambda sp: concatenate(*[uniform_density(sp, 0, 2)] * 2, StoppingTime.constant(sp, 1), [True, False, False, False]),
        "event not measurable at the stopping time",
    ),
    "paste-off-the-time": (
        lambda sp: paste(*[TerminalDensity(sp, [1.0] * 4)] * 2, 1, [True, False, False, False]),
        "event not measurable at t=1",
    ),
    "stability-of-nothing": (lambda sp: stability_check([], "m1"), "empty set"),
    "stability-of-the-wrong-kind": (
        lambda sp: stability_check([uniform_density(sp, 0, 2)], "m1"),
        "m1 stability applies to terminal densities",
    ),
    "closure-of-nothing": (lambda sp: m1_closure([]), "empty set"),
}


@pytest.mark.parametrize("entry", REFUSALS)
def test_refusal_names_what_is_wrong(entry):
    call, message = REFUSALS[entry]
    with pytest.raises(ValueError, match=re.escape(message)):
        call(dyadic_uniform(2))


def test_reprs_show_the_window_and_the_values():
    sp = dyadic_uniform(1)
    assert repr(AdaptedProcess(sp, 0, [[1, 1], [2, 3]])) == "AdaptedProcess([0,1], [[1. 1.]\n [2. 3.]])"
    assert repr(uniform_density(sp, 1, 1)) == "DensityProcess([1,1], [[1. 1.]])"
    assert repr(TerminalDensity(sp, [1.5, 0.5])) == "TerminalDensity([1.5 0.5])"
