import contextlib
import io
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynrisk import (
    CapExceededError,
    ConditionalValue,
    DensityProcess,
    DualFiniteUtility,
    FiniteFilteredSpace,
    StoppingTime,
    TerminalDensity,
    concatenate,
    cond_expect,
    dyadic_uniform,
    enumerate_events,
    entropic_process,
    enumerate_stopping_times,
    is_stopping_time,
    paste,
)
from dynrisk.random_gen import random_adapted, random_space
from dynrisk.space import (
    EXHAUSTIVE_LIMIT,
    _atom_cuts,
    _first_cut,
    _Splices,
    _stopping_times,
    enumerate_stopping_events,
    is_stopping_event,
)
from conftest import uniform_density


class TestSpaceValidation:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FiniteFilteredSpace([0.5, 0.4], [[[0, 1]], [[0], [1]]])

    def test_probs_must_be_positive(self):
        with pytest.raises(ValueError):
            FiniteFilteredSpace([1.0, 0.0], [[[0, 1]], [[0], [1]]])

    def test_f0_must_be_trivial(self):
        with pytest.raises(ValueError):
            FiniteFilteredSpace([0.5, 0.5], [[[0], [1]], [[0], [1]]])

    def test_partitions_must_refine(self):
        with pytest.raises(ValueError):
            FiniteFilteredSpace(
                [0.25] * 4,
                [[[0, 1, 2, 3]], [[0], [1], [2], [3]], [[0, 1], [2, 3]]],
            )

    def test_probs_must_not_be_nan(self):
        with pytest.raises(ValueError, match="strictly positive"):
            FiniteFilteredSpace([np.nan, 1.0], [[[0, 1]], [[0], [1]]])

    def test_partition_must_cover(self):
        with pytest.raises(ValueError):
            FiniteFilteredSpace([0.5, 0.5], [[[0, 1]], [[0]]])

    def test_dyadic_shape(self):
        sp = dyadic_uniform(2)
        assert sp.n_outcomes == 4
        assert sp.horizon == 2
        assert sp.atoms(1) == ((0, 1), (2, 3))
        assert sp.n_atoms(2) == 4


class TestCondExpect:
    def test_constant(self, four_tree):
        v = cond_expect(four_tree, np.full(4, 7.5), 1)
        assert np.allclose(v.values, 7.5)

    def test_two_point_mean(self, two_uniform):
        v = cond_expect(two_uniform, [2.0, 4.0], 0)
        assert v.values.shape == (1,)
        assert v.values[0] == pytest.approx(3.0)

    def test_discrete_time_is_identity(self, two_uniform):
        v = cond_expect(two_uniform, [2.0, 4.0], 1)
        assert np.allclose(v.values, [2.0, 4.0])

    def test_weighted(self):
        sp = FiniteFilteredSpace([0.8, 0.2], [[[0, 1]], [[0], [1]]])
        v = cond_expect(sp, [1.0, 6.0], 0)
        assert v.values[0] == pytest.approx(2.0)

    @given(seed=st.integers(0, 200), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tower_and_idempotence(self, seed, data):
        sp = random_space(np.random.default_rng(seed))
        y = np.random.default_rng(seed + 1).normal(size=sp.n_outcomes)
        s = data.draw(st.integers(0, sp.horizon))
        t = data.draw(st.integers(0, s))
        inner = cond_expect(sp, y, s)
        towered = cond_expect(sp, inner.lift(), t)
        direct = cond_expect(sp, y, t)
        assert np.abs(towered.values - direct.values).max() <= 1e-12
        again = cond_expect(sp, direct.lift(), t)
        assert np.array_equal(again.values, direct.values)

    def test_linear(self, four_tree):
        g = np.random.default_rng(3)
        y, z = g.normal(size=4), g.normal(size=4)
        lhs = cond_expect(four_tree, 2.0 * y - 0.5 * z, 1).values
        rhs = 2.0 * cond_expect(four_tree, y, 1).values - 0.5 * cond_expect(four_tree, z, 1).values
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestConditionalValue:
    def test_rejects_plus_inf(self, two_uniform):
        with pytest.raises(ValueError):
            ConditionalValue(two_uniform, 1, [1.0, np.inf])

    def test_max_residual_across_neg_inf(self, two_uniform):
        v = lambda *x: ConditionalValue(two_uniform, 1, x)
        # -inf flags that disagree are infinitely far apart; where they agree the finite atoms decide
        assert v(1.0, -np.inf).max_residual(v(1.0, 3.0)) == np.inf
        assert v(1.0, -np.inf).max_residual(v(1.5, -np.inf)) == 0.5
        assert v(-np.inf, -np.inf).max_residual(v(-np.inf, -np.inf)) == 0.0

    def test_repr(self, two_uniform):
        assert repr(ConditionalValue(two_uniform, 1, [0.5, -np.inf])) == "ConditionalValue(t=1, [ 0.5 -inf])"


class TestStoppingTimes:
    def test_deterministic_valid(self, four_tree):
        ok, diag = is_stopping_time(four_tree, [1, 1, 1, 1])
        assert ok and diag is None

    def test_anticipating_invalid(self, four_tree):
        # {theta <= 0} = {0} is not a union of F_0 atoms
        ok, diag = is_stopping_time(four_tree, [0, 1, 1, 1])
        assert not ok
        assert diag[0] == 0

    def test_branch_dependent_valid(self, four_tree):
        ok, _ = is_stopping_time(four_tree, [1, 1, 2, 2])
        assert ok

    def test_constructor_rejects_invalid(self, four_tree):
        with pytest.raises(ValueError):
            StoppingTime(four_tree, [0, 1, 1, 1])

    def test_enumeration_contains_deterministic(self, four_tree):
        times = enumerate_stopping_times(four_tree)
        dets = [tuple(t.values) for t in times if len(set(t.values)) == 1]
        assert {(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2)} <= set(dets)
        for t in times:
            ok, _ = is_stopping_time(four_tree, t.values)
            assert ok

    def test_enumeration_count_binary_one_step(self, two_uniform):
        # theta ≡ 0 or theta ≡ 1: branch-dependent values at time 0 would anticipate
        assert len(enumerate_stopping_times(two_uniform)) == 2

    def test_events(self, four_tree):
        evs = enumerate_events(four_tree, 1)
        assert len(evs) == 4  # unions of the 2 atoms of F_1
        sizes = sorted(int(e.sum()) for e in evs)
        assert sizes == [0, 2, 2, 4]

    def test_cap_admits_exactly_cap_stopping_times(self):
        # from t_low = T the one stopping time is T itself
        for horizon, t_low, n in ((3, 0, 26), (3, 1, 25), (4, 2, 625), (2, 2, 1)):
            sp = dyadic_uniform(horizon)
            with pytest.raises(CapExceededError, match=f"^more than {n - 1} stopping times$"):
                enumerate_stopping_times(sp, t_low, cap=n - 1)
            assert len(enumerate_stopping_times(sp, t_low, cap=n)) == n

    def test_non_integral_values_refused(self, four_tree):
        with pytest.raises(ValueError, match="must be integers"):
            StoppingTime(four_tree, [1.7, 1.7, 1.2, 1.2])
        with pytest.raises(ValueError, match="must be integers"):
            is_stopping_time(four_tree, [1.5] * 4)
        with pytest.raises(ValueError, match="must be integers"):
            is_stopping_time(four_tree, [np.nan] * 4)
        with pytest.raises(ValueError, match="must be integers"):
            StoppingTime.constant(four_tree, 1.5)
        assert StoppingTime(four_tree, [1.0, 1.0, 2.0, 2.0]).values.tolist() == [1, 1, 2, 2]

    def test_masks_of_the_wrong_length_refused(self, four_tree):
        theta = StoppingTime(four_tree, [1, 1, 2, 2])
        a = uniform_density(four_tree, 0, 2)
        f = TerminalDensity.normalized(four_tree, [1.0, 2.0, 3.0, 4.0])
        for mask in ([1], [1, 1, 0], [1, 1, 0, 0, 1]):
            calls = (
                lambda: four_tree.is_event(mask, 1),
                lambda: is_stopping_event(four_tree, mask, theta),
                lambda: concatenate(a, a, theta, mask),
                lambda: paste(f, f, 1, mask),
            )
            for call in calls:
                with pytest.raises(ValueError, match=f"expected 4 entries, one per outcome, got {len(mask)}"):
                    call()


def foreign_stopping_time():
    """A stopping time of a uniform 4-outcome tree whose t=1 atoms are {0, 2}
    and {1, 3}; it is not one of ``dyadic_uniform(2)``, where they are {0, 1} and {2, 3}."""
    other = FiniteFilteredSpace([0.25] * 4, [[[0, 1, 2, 3]], [[0, 2], [1, 3]], [[0], [1], [2], [3]]])
    return StoppingTime(other, [1, 2, 1, 2])


FOREIGN_STOPPING_CALLS = {
    "is_stopping_event": lambda sp, th, X: is_stopping_event(sp, np.ones(4, dtype=bool), th),
    "enumerate_stopping_events": lambda sp, th, X: enumerate_stopping_events(sp, th),
    "concatenate": lambda sp, th, X: concatenate(*[uniform_density(sp, 0, 2)] * 2, th, np.ones(4, dtype=bool)),
    "conditional_tail": lambda sp, th, X: uniform_density(sp, 0, 2).conditional_tail(th),
    "evaluate_at_stopping": lambda sp, th, X: entropic_process(sp, 1.0).evaluate_at_stopping(th, X),
    "consistency_residual": lambda sp, th, X: entropic_process(sp, 1.0).consistency_residual(0, th, X),
}


@pytest.mark.parametrize("entry", FOREIGN_STOPPING_CALLS)
def test_stopping_time_of_another_space_is_refused(entry):
    sp, theta = dyadic_uniform(2), foreign_stopping_time()
    assert is_stopping_time(sp, theta.values) == (False, (1, (0, 1)))
    X = random_adapted(sp, 0, 2, np.random.default_rng(4))
    with pytest.raises(ValueError, match="stopping time lives on a different space"):
        FOREIGN_STOPPING_CALLS[entry](sp, theta, X)


# refusals at the trust boundary: (a call on dyadic_uniform(2), the message it raises)
REFUSALS = {
    "space-without-outcomes": (lambda sp: FiniteFilteredSpace([], [[[]], [[]]]), "probs must be a non-empty vector"),
    "space-without-a-step": (lambda sp: FiniteFilteredSpace([1.0], [[[0]]]), "need partitions for t = 0..T with T >= 1"),
    "space-probabilities-off-one": (lambda sp: FiniteFilteredSpace([0.5, 0.4], [[[0, 1]], [[0], [1]]]), "probabilities sum to 0.9, not 1"),
    "space-empty-atom": (lambda sp: FiniteFilteredSpace([0.5, 0.5], [[[0, 1]], [[0], [1], []]]), "empty atom in partition at t=1"),
    "time-off-the-horizon": (lambda sp: sp.atoms(3), "time 3 outside [0, 2]"),
    "layout-ending-early": (lambda sp: sp.atom_layout(2, 1), "end time 1 outside [2, 2]"),
    "value-shape": (lambda sp: ConditionalValue(sp, 1, [1.0, 2.0, 3.0]), "expected 2 atom values at t=1, got shape (3,)"),
    "value-plus-inf": (lambda sp: ConditionalValue(sp, 1, [0.0, np.inf]), "conditional values must be finite or -inf"),
    "value-other-time": (
        lambda sp: ConditionalValue.constant(sp, 1, 0.0).max_residual(ConditionalValue.constant(sp, 2, 0.0)),
        "conditional values live at different times or spaces",
    ),
    "cond-expect-shape": (lambda sp: cond_expect(sp, [1.0, 2.0], 1), "expected 4 outcome values, got shape (2,)"),
    "stopping-time-shape": (lambda sp: StoppingTime(sp, [1, 1]), "one stopping value per outcome required"),
    "stopping-time-range": (lambda sp: is_stopping_time(sp, [0, 0, 3, 3]), "stopping values must lie in [0, 2]"),
}


@pytest.mark.parametrize("entry", REFUSALS)
def test_refusal_names_what_is_wrong(entry):
    call, message = REFUSALS[entry]
    with pytest.raises(ValueError, match=re.escape(message)):
        call(dyadic_uniform(2))


def test_stopping_event_is_an_event_at_the_horizon(four_paired):
    # F_2 = {01}{23} is not discrete: one outcome is no event at any stopping time
    theta = StoppingTime.constant(four_paired, 2)
    assert not is_stopping_event(four_paired, [True, False, False, False], theta)
    assert is_stopping_event(four_paired, [True, True, False, False], theta)


def grow_reference(space, t_low=0):
    """Stopping times by recursive growth: at each time, every subset of the
    running atoms stops, in ``itertools.product`` order."""
    T = space.horizon
    results = []

    def grow(s, assigned, active):
        if not active.any():
            results.append(assigned.copy())
            return
        if s == T:
            assigned = assigned.copy()
            assigned[active] = T
            results.append(assigned)
            return
        running = [atom for atom in space.atoms(s) if active[atom[0]]]
        for stops in itertools.product([False, True], repeat=len(running)):
            nxt, still = assigned.copy(), active.copy()
            for atom, stop in zip(running, stops):
                if stop:
                    nxt[list(atom)] = s
                    still[list(atom)] = False
            grow(s + 1, nxt, still)

    grow(t_low, np.zeros(space.n_outcomes, dtype=int), np.ones(space.n_outcomes, dtype=bool))
    return np.array(results, dtype=int).reshape(-1, space.n_outcomes)


def unions_reference(space, atoms):
    """Every union of the disjoint atoms as an outcome mask, in ``itertools.product`` order."""
    picks = np.array(list(itertools.product([False, True], repeat=len(atoms))), dtype=bool).reshape(-1, len(atoms))
    masks = np.zeros((len(picks), space.n_outcomes), dtype=bool)
    for k, atom in enumerate(atoms):
        masks[:, list(atom)] = picks[:, k, None]
    return masks


def largest_exhaustive_trees(draws):
    """The trees among ``draws`` random ones at ``EXHAUSTIVE_LIMIT`` with every
    outcome its own atom from t=1: 1 + 3**M stopping times, the most any tree
    the harnesses check exhaustively has."""
    m, horizon = EXHAUSTIVE_LIMIT
    spaces = (random_space(np.random.default_rng([77, s]), m, horizon) for s in range(draws))
    return [sp for sp in spaces if (sp.n_outcomes, sp.horizon, sp.n_atoms(1)) == (m, horizon, m)]


def test_level_wise_enumeration_matches_the_recursive_references():
    spaces = [random_space(np.random.default_rng(seed), max_outcomes=8, max_horizon=3) for seed in range(200)]
    largest = largest_exhaustive_trees(700)
    assert len(largest) >= 4 and all(len(_stopping_times(sp)) == 6562 for sp in largest)
    for n, sp in enumerate(spaces + [dyadic_uniform(3), dyadic_uniform(4)] + largest):
        for t in range(sp.horizon + 1):
            got, want = _stopping_times(sp, t), grow_reference(sp, t)
            assert got.shape == want.shape and np.array_equal(got, want), f"space {n}, t_low={t}"
            assert np.array_equal(enumerate_events(sp, t), unions_reference(sp, sp.atoms(t))), f"space {n}, t={t}"
        # each route takes about 0.1 ms per stopping time and a tree has up to
        # 6,562 of them: 16 evenly spaced ones, first and last included, stand
        # for a tree's stopping times beyond 16
        thetas = enumerate_stopping_times(sp)
        for k in np.unique(np.linspace(0, len(thetas) - 1, 16).astype(int)):
            theta = thetas[k]
            atoms = [atom for s in range(sp.horizon + 1) for atom in sp.atoms(s) if theta.values[atom[0]] == s]
            got = enumerate_stopping_events(sp, theta)
            assert np.array_equal(got, unions_reference(sp, atoms)), f"space {n}, theta={theta.values.tolist()}"


def layout_reference(space, t):
    """``atom_layout(t)`` built from the time-t partition alone."""
    part = space.partitions[t]
    order = np.concatenate([np.asarray(atom, dtype=int) for atom in part])
    counts = np.array([len(atom) for atom in part])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.intp)
    w_ord = space.probs[order]
    return order, starts, np.repeat(np.arange(len(part)), counts), w_ord, np.add.reduceat(w_ord, starts)


def window_reference(space, t, t_end):
    """(order, starts, seg) of segmented sums over flattened (L, M) slices of
    times t..t_end: per-window atom ids and a stable argsort of them."""
    times = range(t, t_end + 1)
    offsets = np.cumsum([0] + [space.n_atoms(s) for s in times])
    ids = np.concatenate([off + space.atom_index(s) for off, s in zip(offsets, times)])
    order = np.argsort(ids, kind="stable")
    return order, np.flatnonzero(np.diff(ids[order], prepend=-1)), ids[order]


def cuts_reference(space, t_start, y, tol):
    """``_atom_cuts`` one time at a time, on the per-time layouts."""
    cuts = []
    for k in range(y.shape[-2]):
        order, starts = layout_reference(space, t_start + k)[:2]
        row = y[..., k, :].take(order, axis=-1)
        cuts.append(np.maximum.reduceat(row, starts, axis=-1) - np.minimum.reduceat(row, starts, axis=-1) > tol)
    return np.concatenate(cuts, axis=-1)


def first_cut_reference(space, t_start, L, cuts):
    """``_first_cut`` of one (L, M) stack from its reference cuts, through a list of (time, atom) labels."""
    hit = np.flatnonzero(cuts)
    labels = [(s, atom) for s in range(t_start, t_start + L) for atom in space.atoms(s)]
    return labels[hit[0]] if hit.size else None


def splices_reference(space, thetas):
    """(atoms, shifts) of ``_Splices`` from a per-call stack of the atom index
    of every time, numbered by a cumsum of the atom counts."""
    times = range(space.horizon + 1)
    base = np.cumsum([0] + [space.n_atoms(s) for s in times])
    col = (np.stack([space.atom_index(s) for s in times]) + base[:-1, None])[thetas, np.arange(space.n_outcomes)]
    flags = np.zeros((len(thetas), base[-1]), dtype=bool)
    flags[np.arange(len(thetas))[:, None], col] = True
    n_atoms = flags.sum(axis=1)
    rank = np.take_along_axis(np.cumsum(flags, axis=1), col, axis=1) - 1
    return n_atoms, n_atoms[:, None] - 1 - rank


def test_one_numbering_matches_the_per_time_references():
    g = np.random.default_rng(12)
    spaces = [random_space(np.random.default_rng(seed), max_outcomes=8, max_horizon=3) for seed in range(200)]
    tol = 1e-12  # the adaptedness tolerance of processes
    # kicks just below and just above tol, on atom-constant values of order one
    kicks = tol * np.array([1 - 1e-3, 1 + 1e-3])
    above, below = [], []
    for n, sp in enumerate(spaces + [dyadic_uniform(3), dyadic_uniform(4)]):
        M, T = sp.n_outcomes, sp.horizon
        for t in range(T + 1):
            got, want = sp.atom_layout(t), layout_reference(sp, t)
            assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want)), f"space {n}, t={t}"
            for t_end in range(t, T + 1):
                L, where = t_end - t + 1, f"space {n}, window [{t}, {t_end}]"
                order, starts, seg, w_ord, wsum = sp.atom_layout(t, t_end)
                want_order, want_starts, want_seg = window_reference(sp, t, t_end)
                assert np.array_equal(order, want_order) and np.array_equal(starts, want_starts), where
                assert np.array_equal(seg, want_seg) and np.array_equal(wsum, np.add.reduceat(w_ord, starts)), where
                assert np.array_equal(w_ord, np.tile(sp.probs, L)[order]), where
                inc = DensityProcess._wrap(sp, t, np.full((L, M), 1.0 / L))
                u = DualFiniteUtility(sp, t, t_end, [(inc, ConditionalValue.constant(sp, t, 0.0))])
                variables = u._variables
                assert np.array_equal(variables[0], want_order) and np.array_equal(variables[1], want_starts), where
                base = np.stack([g.normal(size=sp.n_atoms(s))[sp.atom_index(s)] for s in range(t, t_end + 1)])
                y = base + (g.random((3, L, M)) < 0.3) * g.choice(kicks, size=(3, L, M))
                got = {}
                for cut_tol in (0.0, tol):
                    got[cut_tol] = cuts = _atom_cuts(sp, t, y, cut_tol)
                    assert np.array_equal(cuts, cuts_reference(sp, t, y, cut_tol)), where
                    for row, row_cuts in zip(y, cuts):
                        assert _first_cut(sp, t, row, cut_tol) == first_cut_reference(sp, t, L, row_cuts), where
                above.append(got[tol].ravel())
                below.append((got[0.0] & ~got[tol]).ravel())
        thetas = _stopping_times(sp)
        splices = _Splices(sp, thetas, 2**40)
        want_atoms, want_shifts = splices_reference(sp, thetas)
        assert np.array_equal(splices.n_atoms, want_atoms) and np.array_equal(splices.shifts, want_shifts), f"space {n}"
    # some atoms spread by just above tol, and some by just below it
    assert np.concatenate(above).any() and np.concatenate(below).any()


def test_readme_quick_start_prints_its_commented_outputs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    # each print's output is the comment ending its line, or the comment line below it
    lines = code.splitlines()
    expected = []
    for k, line in enumerate(lines):
        if line.startswith("print("):
            comment = line.partition("#")[2] or lines[k + 1].lstrip("# ")
            expected.append(comment.strip())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert expected == ["[-0.89400865]", "True 13 all", "5"]
    assert out.getvalue().splitlines() == expected
