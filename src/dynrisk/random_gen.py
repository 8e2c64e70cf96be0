"""Seeded generators for spaces, processes, densities and utilities.

Every function takes a numpy Generator so that instance streams are fully
reproducible from a single integer seed.  ``dynrisk run`` never imports this
module; the harnesses' own samplers, ``random_adapted`` and
``random_conditional``, live in ``processes`` and ``space``.
"""

from __future__ import annotations

import numpy as np

from .processes import AdaptedProcess, DensityProcess, TerminalDensity, random_adapted, remaining_mass
from .space import ConditionalValue, FiniteFilteredSpace, random_conditional
from .utility import DualFiniteUtility, entropic_process, normalized_scenario_process
from .worstcase import AdaptedWorstProcess, Portfolio, build_preservation_hypotheses


def random_space(
    rng: np.random.Generator,
    max_outcomes: int = 8,
    max_horizon: int = 3,
    uniform: bool = False,
    min_outcomes: int = 2,
) -> FiniteFilteredSpace:
    """Random refining partition tree with strictly positive probabilities."""
    m = int(rng.integers(min_outcomes, max_outcomes + 1))
    horizon = int(rng.integers(1, max_horizon + 1))
    if uniform:
        probs = np.full(m, 1.0 / m)
    else:
        raw = rng.random(m) + 0.2
        probs = raw / raw.sum()

    partitions = [[list(range(m))]]
    for _ in range(horizon):
        prev = partitions[-1]
        nxt = []
        for atom in prev:
            atom = list(atom)
            if len(atom) == 1 or rng.random() < 0.25:
                nxt.append(sorted(atom))
                continue
            shuffled = list(atom)
            rng.shuffle(shuffled)
            n_blocks = int(rng.integers(2, len(atom) + 1))
            cuts = sorted(rng.choice(range(1, len(atom)), size=n_blocks - 1, replace=False))
            blocks = np.split(np.array(shuffled), cuts)
            nxt.extend(sorted(b.tolist()) for b in blocks)
        partitions.append(nxt)
    return FiniteFilteredSpace(probs, partitions)


def random_distinct_space(
    rng: np.random.Generator,
    max_outcomes: int = 6,
    max_horizon: int = 3,
    min_outcomes: int = 2,
) -> FiniteFilteredSpace:
    """Random tree whose outcome probabilities are pairwise distinct.

    Distinct weights make every law-equivalence class a singleton (paths may
    only permute within a probability level), so any adapted portfolio is
    trivially worst at every stage.  Used to build nonconstant instances that
    certifiably satisfy the worst-process hypotheses.
    """
    sp = random_space(rng, max_outcomes, max_horizon, uniform=False, min_outcomes=min_outcomes)
    m = sp.n_outcomes
    # geometric separation keeps weights distinct after normalization
    raw = np.array([1.5 ** k for k in range(m)]) * (1.0 + 0.1 * rng.random(m))
    probs = raw / raw.sum()
    return FiniteFilteredSpace(probs, [list(p) for p in sp.partitions])


def random_density(
    space: FiniteFilteredSpace,
    t_start: int,
    t_end: int,
    rng: np.random.Generator,
    strict: bool = False,
) -> DensityProcess:
    """Conditionally normalized density; strict keeps every increment positive,
    which puts the result in the strictly-positive-tail class."""
    raw = np.empty((t_end - t_start + 1, space.n_outcomes))
    for s in range(t_start, t_end + 1):
        per_atom = rng.random(space.n_atoms(s)) + 0.05
        if not strict and s < t_end:
            per_atom *= rng.random(space.n_atoms(s)) < 0.7
        raw[s - t_start] = per_atom[space.atom_index(s)]
    # last slice positive so tails never vanish when strict
    if strict:
        raw[-1] = np.maximum(raw[-1], 0.05)
    a = DensityProcess(space, t_start, raw)
    mass = remaining_mass(a, t_start).lift()
    return DensityProcess(space, t_start, raw / mass[None, :])


def random_terminal_density(space: FiniteFilteredSpace, rng: np.random.Generator) -> TerminalDensity:
    return TerminalDensity.normalized(space, rng.random(space.n_outcomes) + 0.1)


def random_coherent_utility(
    space: FiniteFilteredSpace,
    t_start: int,
    t_end: int,
    rng: np.random.Generator,
    n_scenarios: int = 2,
) -> DualFiniteUtility:
    zero = ConditionalValue.constant(space, t_start, 0.0)
    scen = [(random_density(space, t_start, t_end, rng), zero) for _ in range(n_scenarios)]
    return DualFiniteUtility(space, t_start, t_end, scen)


def preservation_instance(rng: np.random.Generator, variant: str):
    """Utility process, hypotheses and a certifiably valid candidate.

    A valid adapted worst process needs each stage portfolio to attain the
    class sup on every atom at once.  With strictly positive scenario tails
    that forces the per-stage classes to be rigid, so draws alternate between
    the two shapes where rigidity holds by construction: constant portfolios
    on a uniform space, and arbitrary adapted portfolios on a space with
    pairwise distinct outcome probabilities (singleton law classes).

    Returns (hyp, up, candidate); the harness reads every hypothesis from
    up's stages.
    """
    nonconstant = bool(rng.random() < 0.5)
    while True:
        if nonconstant:
            sp = random_distinct_space(rng, max_outcomes=6, max_horizon=3, min_outcomes=3)
        else:
            sp = random_space(rng, max_outcomes=6, max_horizon=3, uniform=True, min_outcomes=2)
        if variant != "thm32" or sp.horizon == 2:
            break
    T = sp.horizon

    if variant == "thm32":
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        up = entropic_process(sp, alpha, start=0)
    else:
        a = random_density(sp, 0, T, rng, strict=True)
        up = normalized_scenario_process(sp, a, start=0)

    n = int(rng.integers(1, 4))
    if nonconstant:
        members = [random_adapted(sp, 0, T, rng) for _ in range(n)]
    else:
        members = [AdaptedProcess.constant(sp, 0, T, float(rng.normal(0.0, 1.5))) for _ in range(n)]
    candidate = AdaptedWorstProcess.from_restrictions(Portfolio(members))
    hyp = build_preservation_hypotheses(up, variant)
    return hyp, up, candidate
