"""Single-agent threshold policies under a transmission price.

Walks through the priced AoI MDP: how the running cost c(tau) grows with
the age of the decoder's newest sample, how a per-attempt price lambda
induces a transmit-above-threshold policy, and how the computed threshold
lines up with brute-force value iteration.

Run: python demos/01_threshold_policies.py
"""

import numpy as np

from aoi_mfg import KappaScan, WeightTable, transmission_rate, value_iteration_oracle

A, C_W, p = 1.15, 5.0, 0.2
weights = WeightTable(A, C_W)  # w(tau) and c(tau) = w(tau) * tau of this type
scan = KappaScan(A, C_W, p)    # its priced threshold problem at erasure p

print("Running cost c(tau) for an unstable scalar plant (A=1.15, C_W=5):")
for tau in range(7):
    print(f"  tau={tau}: c = {weights.c(tau):8.2f}")

print("\nThresholds as the transmission price grows (erasure p=0.2):")
for lam in (0.0, 2.0, 10.0, 50.0, 200.0):
    sol = scan.solve(lam)
    rate = transmission_rate(sol.kappa, sol.kappa, 1.0, p)
    print(f"  lambda={lam:6.1f}: kappa={sol.kappa}  avg cost={sol.sigma_star:9.3f}"
          f"  attempt rate={rate:.3f}")

print("\nCross-check against relative value iteration (lambda=50):")
sol = scan.solve(50.0)
policy, sigma = value_iteration_oracle(A, C_W, p, 50.0)
kappa_vi = int(np.flatnonzero(policy)[0])
print(f"  implicit-equation solver: kappa={sol.kappa}, sigma*={sol.sigma_star:.6f}")
print(f"  value iteration:          kappa={kappa_vi}, sigma*={sigma:.6f}")
