"""Accuracy as a function of S * p_in / p_out: a small Monte Carlo sweep.

Sweeps the intra-cluster probability for several label budgets S on a
60-node two-block model and prints the aggregate accuracy table.  The
curves climb from the 0.5 chance floor toward 1.0 as the seed-scaled
ratio grows, and approximately line up across S when plotted against it.

The full-size protocol (blocks of 50, p_in up to 0.5, S in {5,10,15},
10 reps, 600 runs) takes one to two seconds through the CLI:

    tvclust sweep --sizes 50,50 --p-out 0.025 --p-in-grid 0.025:0.5:0.025 \
        --num-seeds 5,10,15 --reps 10 --rng-seed 1 --out sweep.csv

Run:  python3 demos/accuracy_sweep.py
"""

from tvclust.sweep import SweepConfig, aggregate_rows, run_sweep

config = SweepConfig(
    cluster_sizes=(30, 30),
    p_out=0.05,
    p_in_grid=(0.05, 0.1, 0.2, 0.3, 0.45),
    s_values=(2, 5),
    reps=5,
    rng_seed=11,
)
rows = run_sweep(config)
aggregates = aggregate_rows(config, rows)

print(f"{'S':>3} {'p_in':>6} {'ratio':>7} {'mean acc':>9} {'std':>7}")
for agg in sorted(aggregates, key=lambda a: (a.s, a.ratio)):
    p_in = agg.ratio * config.p_out / agg.s
    print(f"{agg.s:>3} {p_in:>6.2f} {agg.ratio:>7.1f} "
          f"{agg.mean_accuracy:>9.3f} {agg.std_accuracy:>7.3f}")
