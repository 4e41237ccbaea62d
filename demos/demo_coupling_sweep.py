"""Sweep the mean coupling across its critical value and watch the jump.

A desk-scale version of the headline experiment: mean defaults and upper
semivariance as functions of j0, with the phase boundary at j_critical = 3/N.
The semivariance explodes right at the transition -- the unexpected-loss
risk jumps while the mean moves comparatively little.  Writes the sweep to
CSV next to this script for plotting.
"""

from pathlib import Path

import numpy as np

from firmglass import ModelParams, SweepSpec, emit, run_sweep

N_FIRMS = 300
K = 120
J_CRITICAL = 3.0 / N_FIRMS

spec = SweepSpec(
    base=ModelParams(n_firms=N_FIRMS, sigma_j=0.001),
    values=tuple(np.round(np.linspace(0.0, 2.5 * J_CRITICAL, 11), 12)),
    k_realizations=K,
    master_seed=7,
)

result = run_sweep(spec)

print(f"\nj_critical = {J_CRITICAL:g}\n")
print(f"{'j0/Jc':>6} {'mean ND/N':>10} {'Var+':>10}")
for point in result.points:
    print(f"{point.sweep_value / J_CRITICAL:6.2f} "
          f"{point.stats.mean_nd / N_FIRMS:10.4f} "
          f"{point.stats.semivariance_plus:10.1f}")

low = result.points[0].stats
peak_var = max(point.stats.semivariance_plus for point in result.points)
peak_mean = max(point.stats.mean_nd for point in result.points)
print(f"\nAcross the sweep the mean default fraction stayed within "
      f"{low.mean_nd / N_FIRMS:.3f} .. {peak_mean / N_FIRMS:.3f}, "
      f"while the semivariance grew up to "
      f"{peak_var / low.semivariance_plus:.0f}x its weak-coupling value.")

csv_path = Path(__file__).with_suffix(".csv")
emit(result, format="csv", path=csv_path)
print(f"Sweep table written to {csv_path}")
