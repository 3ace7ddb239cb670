"""The recursive estimator and its exact cost accounting.

One estimator realization at level n with base m consumes a number of Z
draws given exactly by the recursion rv_exact(n, m); the ledger recorded
during a call reproduces that number draw for draw, and (3m)^n is the
closed-form ceiling.
"""

import numpy as np

from mlpicard import (
    CostLedger,
    StreamBundle,
    builtin,
    mlp_estimate,
    mlp_estimate_batch,
    root,
    rv_bound,
    rv_exact,
)

problem = builtin("linear_meanfield")  # X' = 1 - X, X(1) = 1 - 1/e ~ 0.6321

# A single realization at level n=3, base m=3, time t=1, with the ledger
# tracking every draw.
ledger = CostLedger()
value = mlp_estimate(problem, 3, 3, 1.0, root(2024), ledger)
print("one realization of X_{3,3}(1) :", value[0])
print("ledger                        :", ledger)
print("rv_exact(3,3)                 :", rv_exact(3, 3), "(matches z_draws)")
print("rv_bound(3,3) = (3m)^n        :", rv_bound(3, 3))
print("f_evals = z_draws + uniforms  :", ledger.f_evals == ledger.z_draws + ledger.uniform_draws)

# The cost table: exact counts against the closed-form ceiling.
print("\n n  m   rv_exact   (3m)^n")
for n in range(1, 7):
    print(f"{n:>2}  {n}   {rv_exact(n, n):>8}   {rv_bound(n, n):>8}")

# Averaging a constant is exact: for F = 1 every realization equals t.
const = builtin("const_drift")
out = mlp_estimate(const, 2, 4, 0.7, root(5), CostLedger())
print("\nconstant drift at t=0.7       :", out[0], "(exact)")

# Replications vectorise across lanes; lane j reproduces the scalar result
# on root(seed).spawn(j) bit for bit.
reps = 10_000
bundle = StreamBundle.root_children(2024, np.arange(1, reps + 1))
est = mlp_estimate_batch(builtin("pure_noise"), 2, 2, 1.0, bundle, CostLedger())[:, 0]
print(f"\npure noise X_22(1), R={reps}: sample variance {est.var(ddof=1):.4f}"
      f" vs exact t^2/m^n = {1 / 4:.4f}")
