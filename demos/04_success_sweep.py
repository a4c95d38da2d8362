"""A small Monte Carlo sweep: empirical success rate vs both bounds.

Sweeps sparsity at m=256 with mild noise, running seeded OMP trials per
point.  Everything is reproducible from the master seed, and the same
sweep is available from the command line (shown at the bottom), which
writes it as a CSV.
"""

from ompbounds import ExperimentConfig, run_sweep

cfg = ExperimentConfig(
    m=256,
    sweep="tau",
    sweep_values=(2, 4, 8, 16, 24, 32),
    tau=2,
    s_min=0.5,
    s_max=1.0,
    sigma=0.01,
    trials=400,
    beta_draws=2000,
    master_seed=42,
)
# Two worker processes on any host; the rows are the same at one.
rows = run_sweep(cfg, workers=2)

print(f"m={cfg.m}, sigma={cfg.sigma}, trials per point={cfg.trials}")
print(f"{'tau':>4} {'empirical':>10} {'3*stderr':>9} {'thm1':>8} {'thm2':>8}")
for r in rows:
    bar = "#" * round(40 * r.empirical_prob)
    print(
        f"{int(r.param_value):>4} {r.empirical_prob:>10.3f} {3*r.mc_stderr:>9.3f} "
        f"{r.thm1_prob:>8.3f} {r.thm2_prob:>8.3f}  {bar}"
    )

print(
    "\nboth theoretical columns stay at or below the empirical success rate;"
    "\nat this modest n they are loose (the probabilistic bound tightens as n grows)."
)

# CLI equivalent; plot the CSV's empirical_prob, thm1_prob and thm2_prob
# columns against param_value:
#   ompbounds sweep --set m=256 --set sweep=tau --set sweep_values=2,4,8,16,24,32 \
#       --set s_min=0.5 --set s_max=1 --set sigma=0.01 --set trials=400 \
#       --set beta_draws=2000 --seed 42 --out sweep.csv
