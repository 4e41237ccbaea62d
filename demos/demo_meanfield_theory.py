"""The analytics behind the simulations, no Monte Carlo involved.

Walks through the mean-field self-consistency map: ordered solutions and
saddles appear at the spinodal beta ~ 2.7456, the ordered ones win the free
energy from 4 ln 2 ~ 2.7726 on, and the uniform point (1/3, 1/3) destabilizes
at effective coupling beta = 3 (so the critical mean coupling is 3 / N).  An
exact single-firm rating chain converts any (p_up, q_down) pair into a
predicted default fraction.
"""

from firmglass import (
    critical_beta,
    default_fraction_closed_form,
    default_fraction_markov,
    mean_field_fixed_points,
    ordered_phase_default_fraction,
    transition_beta,
)

print("Critical effective coupling (exact: the map's Jacobian at the uniform point")
print("is (beta / 3) * I, so the point destabilizes at beta = 3):")
beta_c = critical_beta()
print(f"  beta_c = {beta_c:.4f}   -> critical mean coupling j0 = {beta_c:.4f}/N")
print("First-order point, where the ordered and uniform free energies cross:")
print(f"  beta_t = 4 ln 2 = {transition_beta():.4f}\n")

print("Fixed points of the self-consistency map as the coupling grows:")
print(f"  {'beta':>6} {'p_up':>10} {'q_down':>10} {'kind':>9} {'pred. ND/N':>11}")
for beta in (0.0, 2.0, 2.8, 3.5, 6.0, 10.0):
    for point in mean_field_fixed_points(beta):
        predicted = default_fraction_markov(point.p_up, point.q_down)
        kind = "stable" if point.stable else "unstable"
        print(f"  {beta:6.1f} {point.p_up:10.4f} {point.q_down:10.4f} "
              f"{kind:>9} {predicted:11.4f}")

print("""
Reading the table: below the spinodal only the uniform point exists and
predicts the independent-firm default level ~0.202.  From the spinodal on,
three stable ordered solutions (moves lock to stay, up or down) coexist with
it, separated by three unstable saddles; above beta_c the uniform point is
unstable too.  Averaging the ordered predictions by symmetry gives the
collective-phase level:""")
print(f"  ordered-phase average = {ordered_phase_default_fraction():.4f}  (= 1/3)\n")

print("Two routes to the default level, compared at some probe points")
print("(markov chain is exact; the closed form is anchored at the corners")
print("and the uniform point but drifts off in the mid-range):")
print(f"  {'p_up':>6} {'q_down':>8} {'markov':>9} {'closed':>9} {'|diff|':>9}")
for p_up, q_down in [(1 / 3, 1 / 3), (0.0, 1.0), (1.0, 0.0), (0.1, 0.4), (0.4, 0.5)]:
    markov = default_fraction_markov(p_up, q_down)
    closed = default_fraction_closed_form(q_down, p_up)
    print(f"  {p_up:6.3f} {q_down:8.3f} {markov:9.5f} {closed:9.5f} "
          f"{abs(markov - closed):9.2e}")
