"""Seeded instance families for the four benchmark workloads.

Each family draws its tree shapes (spaces, windows, portfolio sizes, theorem
variants) from one generator per instance index.  Where a family mirrors an
acceptance gate in ``tests/test_acceptance.py``, that is the gate's generator
with its size limits and base seed.  In recursion, splice and scan the
workload seed draws the values on those shapes: positions, densities and
marginals.  So a seed changes the inputs but not the amount of work, and
figures taken with different seeds are comparable.  Duality runs the gate's
own 100 instances, values included, and the seed sets the order they run in:
on seed-drawn values a few instances in a thousand miss the 1e-9 equality
(see ``build_duality``).

Instances are closures over late-bound ``dynrisk`` attributes (``dr.name``
looked up at call time), so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import dynrisk as dr
from dynrisk.random_gen import (
    preservation_instance,
    random_adapted,
    random_coherent_utility,
    random_density,
    random_space,
    random_terminal_density,
)

TOL = 1e-9
ALPHAS = (0.5, 1.0, 2.0)

# recursion: test_entropic_recursion_at_desk_scale (seed i, M <= 8, T <= 3,
# two samples).  The 24 of its 200 trees with more than REC_MAX_CHECKS checks
# are left out: they do two thirds of the gate's checks in calls of up to 4 s,
# and long calls are where a shared machine's slow phases show most.
REC_BASE, REC_COUNT, REC_MAX_CHECKS, REC_SAMPLES = 0, 200, 1000, 2
# robust-entropic stages over pasting-closed terminal families
ROBUST_BASE, ROBUST_COUNT = 10_000, 30
# splice: test_preservation_harness_recertifies_every_stage (seed 7000 + i);
# thm42 instances above PRES_MAX_SPLICES splices are left out for the same
# reason as above.
PRES_BASE, PRES_COUNT, PRES_MAX_SPLICES = 7000, 30, 2000
PRES_VARIANTS = ("thm33", "thm42", "thm32")
# pasting families on the generator of test_splice_and_paste_closure (seed
# 6000 + i), with M <= 4 so that closures stay at most 8 members
M1_BASE, M1_COUNT = 6000, 30
# duality: test_duality_equality_portfolio_vs_scenario (seed 3000 + i)
DUAL_BASE, DUAL_COUNT, DUAL_MAX_PRODUCT = 3000, 100, 200_000
# scan: one uniform 6-outcome tree, 3 marginals of 72-member classes
SCAN_BASE = 9_500

WORK_UNITS = {
    "recursion": "recursion checks (ConsistencyReport.checked)",
    "splice": "splices plus pastes generated (StabilityReport.generated)",
    "duality": "instances certified",
    "scan": "tuples in the product of rearrangement classes (search_size)",
}


@dataclass
class Verdict:
    ok: bool
    work: int
    residual: float
    digest: tuple


@dataclass
class Instance:
    """One timed call to a verdict, plus its untimed output check."""

    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], Verdict]  # (result, earlier results this pass)


def value_rng(seed: int, instance_seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, instance_seed])


def _chain_count(space, s: int, atom: tuple, leaf: int, stop: int) -> int:
    """Choices below one time-s atom: stop here (``stop`` ways) or continue
    into every child atom; an atom still running at T has ``leaf`` ways."""
    if s == space.horizon:
        return leaf
    inner = 1
    for child in space.atoms(s + 1):
        if child[0] in atom:
            inner *= _chain_count(space, s + 1, child, leaf, stop)
    return stop + inner


def recursion_checks(space, samples: int) -> int:
    """``ConsistencyReport.checked`` of an exhaustive check, from the tree alone."""
    total = space.horizon + 1  # deterministic-time collapse checks
    for t in range(space.horizon + 1):
        n = 1
        for atom in space.atoms(t):
            n *= _chain_count(space, t, atom, 1, 1)
        total += n
    return total * samples


def concatenation_splices(space) -> int:
    """Splices a one-member base set generates: one per (stopping time, event)."""
    return _chain_count(space, 0, space.atoms(0)[0], 2, 2)


# -- recursion ---------------------------------------------------------------

def _check_recursion(rep, _earlier) -> Verdict:
    ok = rep.passed and rep.stopping_times == "all" and rep.max_residual <= TOL
    return Verdict(ok, rep.checked, rep.max_residual, (rep.checked, rep.stopping_times, len(rep.failures)))


def _recursion_instance(name, kind, up, samples) -> Instance:
    return Instance(name, kind, lambda: dr.time_consistency_check(up, samples=samples, tol=TOL), _check_recursion)


def build_recursion(seed: int) -> list[Instance]:
    out = []
    for i in range(REC_COUNT):
        sp = random_space(np.random.default_rng(REC_BASE + i), max_outcomes=8, max_horizon=3)
        if recursion_checks(sp, REC_SAMPLES) > REC_MAX_CHECKS:
            continue
        v = value_rng(seed, REC_BASE + i)
        samples = [random_adapted(sp, 0, sp.horizon, v) for _ in range(REC_SAMPLES)]
        up = dr.entropic_process(sp, ALPHAS[i % 3])
        out.append(_recursion_instance(f"entropic-{i}", "entropic", up, samples))
    for j in range(ROBUST_COUNT):
        sp = random_space(np.random.default_rng(ROBUST_BASE + j), max_outcomes=6, max_horizon=3)
        v = value_rng(seed, ROBUST_BASE + j)
        family = dr.m1_closure([random_terminal_density(sp, v) for _ in range(2)])
        samples = [random_adapted(sp, 0, sp.horizon, v) for _ in range(REC_SAMPLES)]
        up = dr.robust_entropic_process(sp, ALPHAS[j % 3], family)
        out.append(_recursion_instance(f"robust-{j}", "robust", up, samples))
    return out


# -- splice ------------------------------------------------------------------

SPLICES_NOTE = re.compile(r"concatenation-stable over (\d+) splices")


def _check_preservation(rep, _earlier) -> Verdict:
    splices = sum(int(m.group(1)) for note in rep.notes for m in [SPLICES_NOTE.search(note)] if m)
    residual = max((c.residual for c in rep.stage_checks), default=0.0)
    ok = rep.passed and not rep.skipped
    return Verdict(ok, splices, residual, (rep.variant, rep.skipped, rep.passed, len(rep.stage_checks), splices))


def _preservation_values(hyp, up, cand, v):
    """The gate's instance shape, with utility and portfolio values drawn from v."""
    sp, T = up.space, up.t_end
    members = cand.stages[0].members
    nonconstant = any(np.ptp(m.values) > 0 for m in members)
    if hyp.variant == "thm32":
        up = dr.entropic_process(sp, float(v.choice(ALPHAS)), start=0)
    else:
        up = dr.normalized_scenario_process(sp, random_density(sp, 0, T, v, strict=True), start=0)
    if nonconstant:
        members = [random_adapted(sp, 0, T, v) for _ in members]
    else:
        members = [dr.AdaptedProcess.constant(sp, 0, T, float(v.normal(0.0, 1.5))) for _ in members]
    cand = dr.AdaptedWorstProcess.from_restrictions(dr.Portfolio(members))
    return dr.build_preservation_hypotheses(up, hyp.variant), up, cand


def _check_m1(out, _earlier) -> Verdict:
    closure, rep = out
    return Verdict(rep.stable, rep.generated, 0.0, (len(closure), rep.generated, rep.stable))


def _m1_run(generators):
    closure = dr.m1_closure(generators)
    return closure, dr.stability_check(closure, "m1", tol=TOL)


def build_splice(seed: int) -> list[Instance]:
    out = []
    for i in range(PRES_COUNT):
        variant = PRES_VARIANTS[i % 3]
        hyp, up, cand = preservation_instance(np.random.default_rng(PRES_BASE + i), variant)
        if variant == "thm42" and concatenation_splices(up.space) > PRES_MAX_SPLICES:
            continue
        hyp, up, cand = _preservation_values(hyp, up, cand, value_rng(seed, PRES_BASE + i))
        run = lambda hyp=hyp, up=up, cand=cand: dr.verify_preservation(hyp, up, cand, tol=TOL)
        out.append(Instance(f"{variant}-{i}", variant, run, _check_preservation))
    for j in range(M1_COUNT):
        sp = random_space(np.random.default_rng(M1_BASE + j), max_outcomes=4, max_horizon=3)
        v = value_rng(seed, M1_BASE + j)
        gens = [random_terminal_density(sp, v) for _ in range(2)]
        out.append(Instance(f"m1-{j}", "m1", lambda gens=gens: _m1_run(gens), _check_m1))
    return out


# -- duality -----------------------------------------------------------------

def _check_duality(rep, _earlier) -> Verdict:
    ok = rep.equality_holds and (not rep.comonotone_found or bool(rep.attains))
    residual = max(rep.equality_residual, rep.attain_residual or 0.0)
    return Verdict(ok, 1, residual, (rep.equality_holds, rep.comonotone_found, rep.attains))


def build_duality(seed: int) -> list[Instance]:
    """The gate's family exactly, in an order drawn from the seed.

    Values are not drawn from the seed here.  On seed-drawn values about one
    instance in two hundred misses the gate's 1e-9 equality by a few 1e-10:
    ``penalty`` solves in a 1e6 box and returns about 1e-9, not 0, for a
    coherent utility at its own scenario.  The gate's 100 instances all pass.
    """
    out = []
    for i in range(DUAL_COUNT):
        g = np.random.default_rng(DUAL_BASE + i)
        while True:
            sp = random_space(g, max_outcomes=6, max_horizon=3, uniform=bool(g.random() < 0.5))
            t0 = int(g.integers(0, sp.horizon))
            t1 = min(sp.horizon, t0 + int(g.integers(1, 3)))
            n = int(g.integers(1, 4))
            members = []
            if g.random() < 0.2:
                members.append(dr.AdaptedProcess.constant(sp, t0, t1, float(g.normal())))
            while len(members) < n:
                members.append(random_adapted(sp, t0, t1, g))
            sizes = [dr.enumerate_class(X, DUAL_MAX_PRODUCT).size for X in members]
            if int(np.prod(sizes)) <= DUAL_MAX_PRODUCT:
                break
        zero = dr.ConditionalValue.constant(sp, t0, 0.0)
        scen = [(random_density(sp, t0, t1, g, strict=True), zero) for _ in range(int(g.integers(1, 4)))]
        u = dr.DualFiniteUtility(sp, t0, t1, scen)
        port = dr.Portfolio(members)
        run = lambda port=port, u=u: dr.verify_theorem_3_1(port, u, cap=2 * DUAL_MAX_PRODUCT, tol=TOL)
        out.append(Instance(f"duality-{i}", "duality", run, _check_duality))
    order = np.random.default_rng([seed, DUAL_BASE]).permutation(DUAL_COUNT)
    return [out[k] for k in order]


# -- scan --------------------------------------------------------------------

def scan_space():
    """Uniform 6 outcomes, two 3-outcome atoms at t=1, singletons at t=2."""
    return dr.FiniteFilteredSpace(
        np.full(6, 1.0 / 6.0), [[tuple(range(6))], [(0, 1, 2), (3, 4, 5)], [(w,) for w in range(6)]]
    )


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def _scan_check(direct, serial_name):
    def check(res, earlier) -> Verdict:
        sup = res.sup_value.values
        ok = bool(np.all(sup >= direct - TOL))
        residual = float(np.maximum(direct - sup, 0.0).max())
        if serial_name is not None:
            ref = earlier[serial_name]
            same_tuple = (res.attaining_tuple is None) == (ref.attaining_tuple is None) and (
                res.attaining_tuple is None
                or all(
                    np.array_equal(a.values, b.values)
                    for a, b in zip(res.attaining_tuple.members, ref.attaining_tuple.members)
                )
            )
            ok = ok and (
                np.array_equal(sup, ref.sup_value.values)
                and res.per_atom_argmax == ref.per_atom_argmax
                and res.attained_uniformly == ref.attained_uniformly
                and same_tuple
            )
            residual = max(residual, float(np.abs(sup - ref.sup_value.values).max()))
        digest = (res.search_size, tuple(res.per_atom_argmax), res.attained_uniformly)
        return Verdict(ok, res.search_size, residual, digest)

    return check


def build_scan(seed: int) -> list[Instance]:
    sp = scan_space()
    v = value_rng(seed, SCAN_BASE)
    port = dr.Portfolio([random_adapted(sp, 0, 2, v) for _ in range(3)])
    utilities = {
        "dual": random_coherent_utility(sp, 0, 2, v, n_scenarios=3),
        "entropic": dr.EntropicUtility(sp, 1.0, 0),
        "robust": dr.RobustEntropicUtility(sp, 1.0, [random_terminal_density(sp, v) for _ in range(3)], 0),
    }
    counts = sorted({1, nproc()})
    out = []
    for label, u in utilities.items():
        direct = u.insurance(port.mean()).values
        for workers in counts:
            name = f"{label}-w{workers}"
            serial = f"{label}-w1" if workers > 1 else None
            run = lambda u=u, workers=workers: dr.worst_portfolio_bruteforce(port, u, workers=workers)
            # one representative per utility, one for the threaded path
            kind = label if workers == 1 else "threads"
            out.append(Instance(name, kind, run, _scan_check(direct, serial)))
    return out


BUILDERS = {
    "recursion": build_recursion,
    "splice": build_splice,
    "duality": build_duality,
    "scan": build_scan,
}
