"""When interactions help: the optimal coupling under a stabilizing drift.

Gives every firm a drift that favours keeping its rating (per-move weights
0.15 / 0.75 / 0.10 for down / stay / up).  Moderate interactions then
reinforce the majority's inertia and *reduce* defaults; pushed further they
tip the system into collective crashes.  The mean default count develops an
interior minimum in j0 * N, while the semivariance warns that the optimum
sits right before the cliff.
"""

from pathlib import Path

import numpy as np

from firmglass import (
    ModelParams,
    RATING_DRIFT_WEIGHTS,
    SweepSpec,
    emit,
    f_table_from_weights,
    run_sweep,
)

N_FIRMS = 1000
K = 60
J0N_GRID = np.linspace(0.0, 40.0, 11)

spec = SweepSpec(
    base=ModelParams(
        n_firms=N_FIRMS,
        sigma_j=0.001,
        f_table=f_table_from_weights(*RATING_DRIFT_WEIGHTS),
    ),
    values=tuple(np.round(J0N_GRID / N_FIRMS, 12)),
    k_realizations=K,
    master_seed=11,
)

result = run_sweep(spec)

print(f"\nPer-move drift weights: down/stay/up = {RATING_DRIFT_WEIGHTS}\n")
print(f"{'j0*N':>6} {'mean ND':>9} {'Var+':>10}")
for point, j0n in zip(result.points, J0N_GRID):
    print(f"{j0n:6.1f} {point.stats.mean_nd:9.2f} "
          f"{point.stats.semivariance_plus:10.2f}")

best = J0N_GRID[result.argmin_index]
print(f"\nMean defaults are minimized at j0*N = {best:.0f}: moderate coupling")
print("amplifies the drift's stabilizing pull.  Beyond it, collective")
print("crashes take over and the semivariance jumps by orders of magnitude,")
print("so the risk-optimal coupling is *below* the default-count optimum.")

csv_path = Path(__file__).with_suffix(".csv")
emit(result, format="csv", path=csv_path)
print(f"Sweep table written to {csv_path}")
