import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynrisk.lp import (
    DualSupports,
    InfeasibleError,
    maximize_dual_highs,
    minimize_with_escalation,
    solve_box_lp_highs,
    solve_box_lp_vertices,
)


class TestSolversAgree:
    @given(seed=st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_random_bounded_instances(self, seed):
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 5))
        m = int(g.integers(1, 5))
        c = g.normal(size=n)
        G = g.normal(size=(m, n))
        # anchor the feasible set so the box is never the binding constraint
        x0 = g.normal(size=n)
        h = G @ x0 - g.random(m)
        a = solve_box_lp_highs(c, G, h, 50.0)
        b = solve_box_lp_vertices(c, G, h, 50.0)
        assert abs(a.value - b.value) <= 1e-7 * max(1.0, abs(a.value))

    def test_simple_instance(self):
        for solver in (solve_box_lp_highs, solve_box_lp_vertices):
            sol = solver([1.0], [[1.0]], [-1.0], 10.0)
            assert sol.value == pytest.approx(-1.0)
            assert not sol.box_active

    def test_infeasible_raises(self):
        G = [[1.0], [-1.0]]
        h = [1.0, 1.0]
        for solver in (solve_box_lp_highs, solve_box_lp_vertices):
            with pytest.raises(InfeasibleError):
                solver([1.0], G, h, 10.0)


class TestEscalation:
    def test_unconstrained_descent_is_minus_inf(self):
        val, diag = minimize_with_escalation([1.0], np.empty((0, 1)), np.empty(0), 10.0)
        assert val == float("-inf")
        assert diag["rounds"] == 3

    def test_optimum_beyond_first_box(self):
        # bounded at -500 but the starting box is 10, so two widenings needed
        val, diag = minimize_with_escalation([1.0], [[1.0]], [-500.0], 10.0)
        assert val == pytest.approx(-500.0)
        assert diag["rounds"] >= 1

    def test_interior_optimum_returns_immediately(self):
        val, diag = minimize_with_escalation([1.0], [[1.0]], [-2.0], 10.0)
        assert val == pytest.approx(-2.0)
        assert diag["rounds"] == 0

    def test_direction_only_unbounded(self):
        # x + y >= 0 leaves the direction (1, -1) free for c = (1, 1)? no:
        # c = (1, -2) decreases along (t, t) while staying feasible
        val, _ = minimize_with_escalation([1.0, -2.0], [[1.0, 1.0]], [0.0], 10.0)
        assert val == float("-inf")


class TestDual:
    @given(seed=st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_supports_match_highs_and_the_escalated_primal(self, seed):
        # min c.x s.t. Gx >= h with h <= 0: the dual's value, or -inf where
        # the primal is unbounded, on both dual routes and the primal oracle
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 4))
        m = int(g.integers(0, 5))
        G = g.normal(size=(m, n))
        h = -g.random(m)
        c = G.T @ g.random(m) if m and g.random() < 0.6 else g.normal(size=n)
        got = DualSupports(G, h).maximize(c[None])[0]
        primal, _ = minimize_with_escalation(c, G, h, 1e3)
        want = [primal, maximize_dual_highs(G, h, c)] if m else [primal]
        for w in want:
            assert np.isneginf(got) == np.isneginf(w)
            if np.isfinite(w):
                assert abs(got - w) <= 1e-7 * max(1.0, abs(w))

    def test_no_rows(self):
        sup = DualSupports(np.zeros((0, 2)), np.zeros(0))
        assert list(sup.maximize(np.array([[0.0, 0.0], [1.0, 0.0]]))) == [0.0, float("-inf")]


HIGHS_CALLS = {
    "box": lambda: solve_box_lp_highs([1.0], [[1.0]], [-1.0], 10.0),
    "dual": lambda: maximize_dual_highs(np.array([[1.0]]), np.array([-1.0]), np.array([1.0])),
}


@pytest.mark.parametrize("route", HIGHS_CALLS)
def test_solver_failure_raises(route, monkeypatch):
    # a status neither optimal nor infeasible, such as an iteration limit
    import scipy.optimize

    failed = scipy.optimize.OptimizeResult(status=1, success=False, message="Iteration limit reached.")
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: failed)
    with pytest.raises(RuntimeError, match="LP solver failed: Iteration limit reached."):
        HIGHS_CALLS[route]()
