"""Desk-scale acceptance gate: one test per shipped guarantee.

Each test prints as a single pass/fail line and pins the advertised
tolerance and runtime budget.  Generators are fully seeded, so a failure
reproduces from the test name alone.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from dynrisk import (
    AdaptedProcess,
    ConditionalValue,
    DensityProcess,
    DualFiniteUtility,
    EntropicUtility,
    Portfolio,
    StoppingTime,
    TerminalDensity,
    check_axioms,
    concatenate,
    cond_expect,
    dyadic_uniform,
    entropic_process,
    enumerate_class,
    enumerate_class_bruteforce,
    lap_upper_bound,
    matrix_compare,
    max_correlation,
    pairing,
    paste,
    penalty,
    time_consistency_check,
    verify_preservation,
    verify_theorem_3_1,
)
from dynrisk.cli import main as cli_main
from dynrisk.random_gen import (
    preservation_instance,
    random_adapted,
    random_coherent_utility,
    random_density,
    random_dual_utility,
    random_space,
    random_stopping_time,
    random_terminal_density,
)

SCENARIO = Path(__file__).resolve().parent.parent / "demos" / "full_verification.json"
GOLDEN = Path(__file__).resolve().parent / "data" / "full_verification"


def stopping_measurable_event(space, theta, rng):
    """Random event decided by the time the stopping time fires."""
    mask = np.zeros(space.n_outcomes, dtype=bool)
    for s in range(int(theta.values.min()), int(theta.values.max()) + 1):
        picks = rng.random(space.n_atoms(s)) < 0.5
        level = theta.values == s
        mask[level] = picks[space.atom_index(s)][level]
    return mask


def test_entropic_recursion_at_desk_scale():
    """Dynamic-programming recursion for entropic stages: 200 seeded spaces
    (M <= 8, T <= 3), every enumerated stopping time, residual <= 1e-9."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        g = np.random.default_rng(seed)
        sp = random_space(g, max_outcomes=8, max_horizon=3)
        alpha = (0.5, 1.0, 2.0)[seed % 3]
        rep = time_consistency_check(
            entropic_process(sp, alpha), sample_count=2, seed=seed, tol=1e-9
        )
        assert rep.stopping_times == "all"
        assert rep.passed, f"seed {seed}: {rep.failures[:1]}"
        worst = max(worst, rep.max_residual)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed <= 30.0, f"took {elapsed:.1f}s"


def test_axiom_profiles_for_both_families():
    """Entropic: local, monotone, cash invariant, concave, relevant, and
    provably not positively homogeneous (counterexample exhibited).
    Coherent dual-finite: all five structural axioms.  100 seeds each."""
    start = time.perf_counter()
    for seed in range(100):
        g = np.random.default_rng(1000 + seed)
        sp = random_space(g, max_outcomes=6, max_horizon=3)
        while sp.n_atoms(sp.horizon) < 2:
            # a filtration that never splits makes every position deterministic
            # and entropic scaling exactly linear; no counterexample exists there
            sp = random_space(g, max_outcomes=6, max_horizon=3)
        alpha = (0.5, 1.0, 2.0)[seed % 3]
        rep = check_axioms(EntropicUtility(sp, alpha, 0), sample_count=6, seed=seed, tol=1e-9)
        assert rep.passed("locality", "monotonicity", "cash_invariance", "concavity", "relevance"), (
            f"entropic seed {seed}"
        )
        coh = rep.results["coherence"]
        assert coh.passed is False and coh.counterexample, f"entropic seed {seed} missed the scaling failure"
    for seed in range(100):
        g = np.random.default_rng(2000 + seed)
        sp = random_space(g, max_outcomes=6, max_horizon=3)
        u = random_coherent_utility(sp, 0, sp.horizon, g, n_scenarios=1 + seed % 3)
        rep = check_axioms(u, sample_count=6, seed=seed, tol=1e-9)
        assert rep.passed("locality", "monotonicity", "cash_invariance", "concavity", "coherence"), (
            f"coherent seed {seed}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0, f"took {elapsed:.1f}s"


@pytest.fixture(scope="module")
def duality_instances():
    """100 seeded coherent instances (M <= 6, window length <= 2, n <= 3,
    <= 3 scenarios) with their duality reports; search capped at 2e5."""
    out = []
    start = time.perf_counter()
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
            sizes = [enumerate_class(X, 200_000).size for X in members]
            if int(np.prod(sizes)) <= 200_000:
                break
        u = DualFiniteUtility(
            sp,
            t0,
            t1,
            [
                (random_density(sp, t0, t1, g, strict=True), ConditionalValue.constant(sp, t0, 0.0))
                for _ in range(int(g.integers(1, 4)))
            ],
        )
        rep = verify_theorem_3_1(Portfolio(members), u, cap=400_000, tol=1e-9)
        out.append((seed, rep))
    return out, time.perf_counter() - start


def test_duality_equality_portfolio_vs_scenario(duality_instances):
    """Brute-force worst portfolio equals the scenario-side maximum on every
    atom, 100 instances, tolerance 1e-9, inside the 2-minute budget."""
    reports, elapsed = duality_instances
    for seed, rep in reports:
        assert rep.equality_holds, f"seed {seed}: residual {rep.equality_residual:.3g}"
    assert elapsed <= 120.0, f"took {elapsed:.1f}s"


def test_comonotone_tuples_attain(duality_instances):
    """Wherever the product class contains a comonotone tuple, that tuple
    attains the portfolio sup on every atom within 1e-9."""
    reports, _ = duality_instances
    found = 0
    for seed, rep in reports:
        if rep.comonotone_found:
            found += 1
            assert rep.attains, f"seed {seed}: attain residual {rep.attain_residual:.3g}"
            assert rep.attain_residual <= 1e-9
    assert found > 0, "no comonotone tuple surfaced in 100 instances; generator too narrow"


def small_lp_space(g):
    """Space whose per-atom variable counts stay at or below six."""
    while True:
        sp = random_space(g, max_outcomes=4, max_horizon=2)
        counts = []
        for t0 in range(sp.horizon + 1):
            for atom in sp.atoms(t0):
                inside = set(atom)
                counts.append(
                    sum(1 for s in range(t0, sp.horizon + 1) for a in sp.atoms(s) if a[0] in inside)
                )
        if max(counts) <= 6:
            return sp


def test_penalty_agrees_with_vertex_oracle():
    """HiGHS penalty equals exhaustive vertex enumeration within 1e-8 on 50
    small instances, unbounded atoms flagged identically on both routes."""
    start = time.perf_counter()
    NEG = float("-inf")
    neg_inf_seen = 0
    for seed in range(50):
        g = np.random.default_rng(4000 + seed)
        sp = small_lp_space(g)
        u = random_dual_utility(sp, 0, sp.horizon, g, n_scenarios=1 + seed % 3)
        if seed % 5 == 0 and len(u.scenarios) > 1:
            dead = ConditionalValue.constant(sp, 0, NEG)
            u = DualFiniteUtility(sp, 0, sp.horizon, [u.scenarios[0], (u.scenarios[1][0], dead)], validate=False)
        targets = [u.scenarios[0][0], random_density(sp, 0, sp.horizon, g, strict=True)]
        conc = np.zeros((sp.horizon + 1, sp.n_outcomes))
        conc[-1] = DensityProcess.uniform(sp, 0, sp.horizon).tail_from(0) * 0.0
        conc[0] = 1.0
        targets.append(DensityProcess(sp, 0, conc))
        for a in targets:
            hi = penalty(u, a, solver="highs").values
            lo = penalty(u, a, solver="vertices").values
            for k in range(sp.n_atoms(0)):
                if np.isneginf(hi[k]) or np.isneginf(lo[k]):
                    assert np.isneginf(hi[k]) and np.isneginf(lo[k]), f"seed {seed} atom {k}: {hi[k]} vs {lo[k]}"
                    neg_inf_seen += 1
                else:
                    assert abs(hi[k] - lo[k]) <= 1e-8, f"seed {seed} atom {k}: {hi[k]} vs {lo[k]}"
    assert neg_inf_seen > 0, "no unbounded atom encountered; oracle comparison never hit the -inf path"
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_splice_and_paste_closure():
    """Concatenation keeps densities in the unit-mass class and pasting keeps
    terminal densities normalized, 500 random triples each at 1e-10;
    self-splice and self-paste reproduce the input at 1e-12."""
    for seed in range(500):
        g = np.random.default_rng(5000 + seed)
        sp = random_space(g, max_outcomes=6, max_horizon=3)
        a = random_density(sp, 0, sp.horizon, g, strict=True)
        b = random_density(sp, 0, sp.horizon, g, strict=bool(g.random() < 0.5))
        theta = random_stopping_time(sp, g)
        mask = stopping_measurable_event(sp, theta, g)
        out = concatenate(a, b, theta, mask)
        assert out.values.min() >= -1e-10
        mass = cond_expect(sp, out.total_mass(), 0).values
        assert np.abs(mass - 1.0).max() <= 1e-10, f"seed {seed}"
        assert concatenate(a, a, theta, mask).approx_eq(a, 1e-12)
    for seed in range(500):
        g = np.random.default_rng(6000 + seed)
        sp = random_space(g, max_outcomes=6, max_horizon=3)
        f = random_terminal_density(sp, g)
        h = random_terminal_density(sp, g)
        s = int(g.integers(0, sp.horizon + 1))
        picks = g.random(sp.n_atoms(s)) < 0.5
        mask = picks[sp.atom_index(s)]
        out = paste(f, h, s, mask)
        assert out.h.min() > 0
        assert abs(float(sp.expect(out.h)) - 1.0) <= 1e-10, f"seed {seed}"
        assert paste(f, f, s, mask).approx_eq(f, 1e-12)


def test_preservation_harness_recertifies_every_stage():
    """50 seeded instances across the three hypothesis variants; hypotheses
    are re-verified in-run and the stage-0 worst portfolio stays worst at
    every later stage, zero failures."""
    start = time.perf_counter()
    variants = ["thm33", "thm42", "thm32"]
    for seed in range(50):
        variant = variants[seed % 3]
        hyp, up, cand = preservation_instance(np.random.default_rng(7000 + seed), variant)
        rep = verify_preservation(hyp, up, cand, tol=1e-9)
        assert not rep.skipped, f"{variant} seed {seed}: {rep.notes}"
        assert rep.passed, f"{variant} seed {seed}: {[c.residual for c in rep.stage_checks]}"
    elapsed = time.perf_counter() - start
    assert elapsed <= 300.0, f"took {elapsed:.1f}s"


def test_rearrangement_fast_path_matches_oracle():
    """Backtracking class enumeration agrees with the permutation-filter
    oracle (size and membership) on uniform instances up to 1e4 members;
    class maxima match the oracle exactly; the assignment relaxation
    dominates everywhere and is strict on a pinned instance."""
    checked = 0
    for seed in range(60):
        g = np.random.default_rng(8000 + seed)
        sp = random_space(g, max_outcomes=6, max_horizon=3, uniform=True)
        X = random_adapted(sp, 0, sp.horizon, g)
        if seed % 2:
            X = AdaptedProcess(sp, 0, np.round(X.values * 2.0) / 2.0)  # force ties
        fast = enumerate_class(X, cap=50_000)
        if fast.size > 10_000:
            continue
        slow = enumerate_class_bruteforce(X, cap=50_000)
        assert fast.size == slow.size
        key = lambda m: tuple(np.round(m.values, 12).ravel())
        assert {key(m) for m in fast.members} == {key(m) for m in slow.members}
        checked += 1
        a = random_density(sp, 0, sp.horizon, g)
        t = int(g.integers(0, sp.horizon + 1))
        mc_fast = max_correlation(a, X, t, rearrangement=fast).value.values
        mc_slow = max_correlation(a, X, t, rearrangement=slow).value.values
        assert np.array_equal(mc_fast, mc_slow)
        lap = lap_upper_bound(a, X, t).values
        assert np.all(lap >= mc_fast - 1e-9)
    assert checked >= 40
    # pinned strict-gap instance: relaxation 2.9 vs class max 2.7
    sp = dyadic_uniform(2)
    X = AdaptedProcess(sp, 0, [[0, 0, 0, 0], [2, 2, 1, 1], [1, 2, 5, 5]])
    a = DensityProcess(sp, 0, [[0, 0, 0, 0], [0.6, 0.6, 0.4, 0.4], [1.2, 0.2, 0.2, 0.4]])
    mc = max_correlation(a, X, 0).value.values[0]
    lap = lap_upper_bound(a, X, 0).values[0]
    assert mc == pytest.approx(2.7) and lap == pytest.approx(2.9)
    assert lap - mc > 0.1


def causal_stochastic_matrix(L, g, pin_last=True):
    A = np.zeros((L, L))
    for r in range(L):
        w = g.random(r + 1) + 0.1
        A[r, : r + 1] = w / w.sum()
    if pin_last:
        A[L - 1] = 0.0
        A[L - 1, L - 1] = 1.0
    return A


def test_matrix_comparison_conclusion_and_guards():
    """50 instances passing all four hypothesis checks satisfy the comparison
    inequality within 1e-9; guard instances never assert a conclusion."""
    passed = 0
    attempts = 0
    g = np.random.default_rng(9000)
    while passed < 50 and attempts < 300:
        attempts += 1
        sp = random_space(g, max_outcomes=6, max_horizon=3)
        L = sp.horizon + 1
        if attempts % 2:
            u = EntropicUtility(sp, float(g.choice([0.5, 1.0, 2.0])), 0)
            A = causal_stochastic_matrix(L, g, pin_last=True)
        else:
            u = random_coherent_utility(sp, 0, sp.horizon, g, n_scenarios=2)
            A = causal_stochastic_matrix(L, g, pin_last=bool(g.random() < 0.5))
        tilde = Portfolio([random_adapted(sp, 0, sp.horizon, g) for _ in range(2)])
        bar = Portfolio([m.shift_by(float(g.random() + 0.1)) for m in tilde.members])
        rep = matrix_compare(A, u, tilde, bar, sample_count=10, seed=attempts, tol=1e-9)
        if not rep.all_hypotheses:
            assert not rep.conclusion_tested and rep.conclusion_holds is None
            continue
        assert rep.conclusion_tested
        assert rep.conclusion_holds, f"attempt {attempts}: residual {rep.conclusion_residual:.3g}"
        passed += 1
    assert passed == 50, f"only {passed} hypothesis-passing instances in {attempts} attempts"

    sp = dyadic_uniform(2)
    u = EntropicUtility(sp, 1.0, 0)
    tilde = Portfolio([AdaptedProcess.constant(sp, 0, 2, 1.0)])
    neg = np.eye(3)
    neg[1, 0], neg[1, 1] = -0.5, 1.5
    for A, breaks in [(neg, "nonnegative"), (2.0 * np.eye(3), "ones-fixed")]:
        rep = matrix_compare(A, u, tilde, tilde)
        assert not rep.conclusion_tested and rep.conclusion_holds is None, breaks
    low = Portfolio([AdaptedProcess.constant(sp, 0, 2, 0.0)])
    rep = matrix_compare(np.eye(3), u, tilde, low)
    assert not rep.hyp_dominance and not rep.conclusion_tested


def test_cli_reports_are_deterministic(tmp_path):
    """The bundled scenario produces byte-identical reports across repeated
    runs and across worker counts one and four."""
    outputs = {}
    for tag, workers in (("r1", 1), ("r2", 1), ("w4a", 4), ("w4b", 4)):
        out = tmp_path / tag
        code = cli_main(["run", str(SCENARIO), "--out", str(out), "--workers", str(workers)])
        assert code == 0
        outputs[tag] = {p.name: p.read_bytes() for p in sorted(out.glob("*.tsv"))}
        assert outputs[tag], "no reports written"
    assert outputs["r1"] == outputs["r2"]
    assert outputs["w4a"] == outputs["w4b"]
    assert outputs["r1"] == outputs["w4a"]


def test_cli_reports_match_golden_files(tmp_path):
    """The bundled scenario's reports equal the committed ones byte for byte,
    with the same set of files."""
    assert cli_main(["run", str(SCENARIO), "--out", str(tmp_path)]) == 0
    got = {p.name: p.read_bytes() for p in sorted(tmp_path.glob("*.tsv"))}
    want = {p.name: p.read_bytes() for p in sorted(GOLDEN.glob("*.tsv"))}
    assert want, f"no golden reports under {GOLDEN}"
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{name} differs from its golden copy"
