"""Rearrangement classes, the assignment-problem upper bound, brute-force
worst portfolios and the scenario-side duality with comonotone witnesses."""

import numpy as np

from dynrisk import (
    AdaptedProcess,
    ConditionalValue,
    DensityProcess,
    DualFiniteUtility,
    Portfolio,
    dyadic_uniform,
    enumerate_class,
    is_comonotone,
    lap_upper_bound,
    max_correlation,
    verify_theorem_3_1,
    worst_portfolio_bruteforce,
    worst_scenario,
)

sp = dyadic_uniform(2)

# the law-preserving rearrangements of an adapted position
X = AdaptedProcess(sp, 0, [[0, 0, 0, 0], [2, 2, 1, 1], [1, 2, 5, 5]])
cls = enumerate_class(X)
print("rearrangement class size:", cls.size)
for m in cls.members[:4]:
    print("   member terminal slice:", m.slice_at(2))

# class maximum of the billing vs its linear assignment relaxation; the
# relaxation may ignore adaptedness, so a strict gap is possible
a = DensityProcess(sp, 0, [[0, 0, 0, 0], [0.6, 0.6, 0.4, 0.4], [1.2, 0.2, 0.2, 0.4]])
mc = max_correlation(a, X, 0)
lap = lap_upper_bound(a, X, 0)
print("class max:", mc.value.values, " assignment bound:", lap.values, " gap:", lap.values - mc.value.values)

# a two-member portfolio and a two-scenario coherent utility
Y = AdaptedProcess(sp, 0, [[1, 1, 1, 1], [0, 0, 3, 3], [2, 4, 0, 1]])
port = Portfolio([X, Y])
a1 = DensityProcess(sp, 0, [[0.2, 0.2, 0.2, 0.2], [0.3, 0.3, 0.5, 0.5], [0.5, 0.5, 0.3, 0.3]])
a2 = DensityProcess(sp, 0, [[0.1, 0.1, 0.1, 0.1], [0.4, 0.4, 0.2, 0.2], [0.5, 0.5, 0.7, 0.7]])
zero = ConditionalValue.constant(sp, 0, 0.0)
u = DualFiniteUtility(sp, 0, 2, [(a1, zero), (a2, zero)])

# brute force over every pair of rearrangements, one serial scan (workers is ignored)
wc = worst_portfolio_bruteforce(port, u, workers=2)
print("worst-case insurance sup:", wc.sup_value.values, f"over {wc.search_size} tuples")
print("attained by a single tuple uniformly:", wc.attained_uniformly)

# the scenario side: atom-wise best generating density, glued by indicators
ws = worst_scenario([a1, a2], port, u)
print("scenario-side value:", ws.value.values, " per-atom choice:", ws.per_atom_choice)

# duality: both sides coincide, and a comonotone tuple (when the product
# class contains one) attains the sup
rep = verify_theorem_3_1(port, u)
print("portfolio sup == scenario sup:", rep.equality_holds, f"(residual {rep.equality_residual:.2e})")
print("comonotone tuple found:", rep.comonotone_found, "| attains the sup:", rep.attains)
if rep.comonotone_tuple is not None:
    cert = is_comonotone(ws.a0, rep.comonotone_tuple.members)
    print("comonotone certificate against the worst scenario:", cert.comonotone)
