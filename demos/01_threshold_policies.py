"""Single-agent threshold policies under a transmission price.

Walks through the priced AoI MDP: how the running cost c(tau) grows with
the age of the decoder's newest sample, how a per-attempt price lambda
induces a transmit-above-threshold policy, and how each threshold kappa
sits between the breakpoint prices at which it steps up:
price(kappa - 1) < lambda <= price(kappa).

Run: python demos/01_threshold_policies.py
"""

import math

from aoi_mfg import KappaScan, WeightTable, transmission_rate

A, C_W, p = 1.15, 5.0, 0.2
weights = WeightTable(A, C_W)  # w(tau) and c(tau) = w(tau) * tau of this type
scan = KappaScan(A, C_W, p)    # its priced threshold problem at erasure p

print("Running cost c(tau) for an unstable scalar plant (A=1.15, C_W=5):")
for tau in range(7):
    print(f"  tau={tau}: c = {weights.c(tau):8.2f}")

print("\nThresholds as the transmission price grows (erasure p=0.2); each kappa lies")
print("between its breakpoint prices, price(kappa-1) < lambda <= price(kappa):")
for lam in (0.0, 2.0, 10.0, 50.0, 200.0):
    sol = scan.solve(lam)
    rate = transmission_rate(sol.kappa, sol.kappa, 1.0, p)
    low = scan.price(sol.kappa - 1) if sol.kappa > 0 else -math.inf
    high = scan.price(sol.kappa)
    if not low < lam <= high:
        raise SystemExit(f"kappa={sol.kappa} at lambda={lam} lies outside ({low}, {high}]")
    print(f"  lambda={lam:6.1f}: kappa={sol.kappa}  avg cost={sol.sigma_star:9.3f}"
          f"  attempt rate={rate:.3f}  prices ({low:.3f}, {high:.3f}]")
