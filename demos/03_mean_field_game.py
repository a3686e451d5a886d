"""Mean-field consensus game: tracking gains, the equilibrium trajectory,
and the finite-population closed loop.

Solves the per-type Riccati equations and the mean-field fixed point for
the three-type benchmark population, then simulates 90 agents tracking the
equilibrium through decoder estimates over the erasure channel.

Run: python demos/03_mean_field_game.py
"""

import numpy as np

from aoi_mfg import (
    bisection_lambda,
    default_types,
    game_scenario,
    population_for,
    run_game_experiment,
    solve_mfe,
)

mfe = solve_mfe(default_types())

print("Per-type tracking gains:")
for label, G in mfe.gains.items():
    print(f"  {label:9s}: K={G.K[0, 0]:8.3f}  closed-loop pole={G.A_cl[0, 0]:.4f}")
print(f"\nContraction constant (sufficient condition): {mfe.contraction_constant:.3f}")
print(f"Observed fixed-point gap ratio: {mfe.gap_ratios[-1]:.3f}")
print(f"Fixed-point residual: {mfe.residual:.2e} after {mfe.iterations} iterations")
print(f"Equilibrium mean starts at {mfe.mu[0, 0]:.3f} and decays to ~0 "
      f"(|mu| at k=50: {abs(mfe.mu[50, 0]):.4f})")

cfg = game_scenario(N=90, alpha=0.45, p=0.2, T=500)
policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
metrics = run_game_experiment(cfg, mfe, policy, seed=0)
print(f"\n90-agent simulation: median per-agent cost "
      f"{float(np.median(metrics.per_agent_cost)):.2f}, "
      f"time-averaged consensus error {metrics.mean_field_gap:.4f}")
