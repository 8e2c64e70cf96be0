"""Which axioms hold for which utility family, what the dual penalty looks
like, and how the insurance maximizer glues across atoms."""

import numpy as np

from dynrisk import (
    AdaptedProcess,
    ConditionalValue,
    DensityProcess,
    DualFiniteUtility,
    EntropicUtility,
    argmax_density,
    check_axioms,
    dyadic_uniform,
    penalty,
    penalty_vertices,
)

sp = dyadic_uniform(2)

a1 = DensityProcess(sp, 0, [[0.2, 0.2, 0.2, 0.2], [0.3, 0.3, 0.5, 0.5], [0.5, 0.5, 0.3, 0.3]])
a2 = DensityProcess(sp, 0, [[0.1, 0.1, 0.1, 0.1], [0.4, 0.4, 0.2, 0.2], [0.5, 0.5, 0.7, 0.7]])
zero = ConditionalValue.constant(sp, 0, 0.0)

coherent = DualFiniteUtility(sp, 0, 2, [(a1, zero), (a2, zero)])
entropic = EntropicUtility(sp, 1.0, 0)

# axiom sweep: the entropic utility is concave but not positively homogeneous,
# the zero-penalty dual utility passes the full coherent profile
for name, u in (("entropic", entropic), ("coherent", coherent)):
    rep = check_axioms(u, sample_count=8, seed=7)
    print(name)
    for axiom, res in rep.results.items():
        status = {True: "pass", False: "FAIL", None: "n/a "}[res.passed]
        extra = f"  <- {res.counterexample}" if res.counterexample else (f"  ({res.note})" if res.note else "")
        print(f"   {status}  {axiom}{extra}")

# penalties: zero at the generators, negative exactly on strict mixtures
soft = DualFiniteUtility(sp, 0, 2, [(a1, zero), (a2, ConditionalValue.constant(sp, 0, -0.4))])
print("penalty of a1 under the coherent utility:", penalty(coherent, a1).values)
print("penalty of a2 under the soft utility:   ", penalty(soft, a2).values)

# penalty and its primal oracle agree: the LP dual by support enumeration vs exhaustive vertex search
mix = DensityProcess(sp, 0, 0.5 * (a1.values + a2.values))
print("penalty of the midpoint, dual:    ", penalty(coherent, mix).values)
print("penalty of the midpoint, vertices:", penalty_vertices(coherent, mix).values)

# a density outside the closed hull can be billed arbitrarily low: the dual
# is infeasible there, and the vertex oracle's box escalation agrees on -inf
two = dyadic_uniform(1)
lone = DualFiniteUtility(two, 0, 1, [(DensityProcess(two, 0, [[0, 0], [1, 1]]), ConditionalValue.constant(two, 0, 0.0))])
off = DensityProcess(two, 0, [[0, 0], [2, 0]])
print("penalty off the hull:", penalty(lone, off).values, "=", penalty_vertices(lone, off).values)

# the insurance version picks the best scenario per atom and glues them
X = AdaptedProcess(sp, 0, [[0, 0, 0, 0], [5, 5, 5, 5], [5, 5, 5, 5]])
a_star, value, single = argmax_density(coherent, X)
print("insurance value:", value.values, "| one scenario attains everywhere:", single)
print("glued maximizer increments:\n", a_star.values)
