"""Population scheduling: the exact transmission price, the relaxed policy, and its
max-age-first projection onto the hard capacity.

Solves the shared transmission price for a 100-agent mixed population,
then simulates both the average-constraint (relaxed) policy and the
capacity-feasible projected policy on common random numbers.

Run: python demos/02_scheduling_matb.py
"""

from aoi_mfg import bisection_lambda, population_for, run_scheduling_experiment, scheduling_scenario

cfg = scheduling_scenario(N=100, alpha=0.25, p=0.2, T=5000)
policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)

print(f"Scenario: N={cfg.N}, C={cfg.capacity}, p={cfg.p}")
print(f"Price λ* = {policy.lam:.4f}")
print(f"Randomization q = {policy.q:.4f} mixing rates "
      f"{policy.rate_low:.2f} and {policy.rate_high:.2f} to hit C = {cfg.capacity}")
print("Per-type thresholds (lower, upper):")
for label, pair in policy.per_type.items():
    print(f"  {label:9s}: {pair}")

relaxed, matb = run_scheduling_experiment(cfg, policy, "both", seed=0)
print(f"\nRelaxed policy:  J = {relaxed.j_bs:8.3f}, attempt rate {relaxed.attempt_rate:6.2f}")
print(f"Projected policy: J = {matb.j_bs:8.3f}, attempt rate {matb.attempt_rate:6.2f}, "
      f"max AoI {matb.max_aoi}")
print(f"Projection gap:   {matb.j_bs - relaxed.j_bs:.3f} "
      "(shrinks as N grows at fixed capacity ratio)")
