"""Walkthrough: thermal functions and the thermality selection criterion.

Gibbs states over a finite temperature grid form the classical reference
family.  Probe expectations of an unknown state either match some mixture
of grid states (the state is accepted as thermal at that probe
resolution) or fail, and the hierarchy of probe sets localizes how far
the thermal interpretation reaches.
"""

import numpy as np

from sectorlab.models import (
    moment_grid,
    moment_hierarchy,
    moment_measured,
    moment_system,
    moment_true_weights,
    two_level_grid,
    two_level_system,
)
from sectorlab.thermal import (
    build_thermal_channel,
    entropy_density,
    gibbs_state,
    hierarchy_report,
    kms_residual,
    thermal_function,
)

sz = np.array([[1, 0], [0, -1]], dtype=complex)

print("== two-level Gibbs states ==")
for beta in (0.5, 1.0, 2.0):
    rho = gibbs_state(two_level_system(), beta)
    print(f"  beta={beta}: <sz> = {np.trace(rho.density @ sz).real:+.6f}"
          f"   (-tanh beta = {-np.tanh(beta):+.6f})")
print("  KMS residual of the beta=1 Gibbs state:",
      kms_residual(gibbs_state(two_level_system(), 1.0), two_level_system(), 1.0))
print("  KMS residual at beta=1 of the beta=2 Gibbs state:",
      kms_residual(gibbs_state(two_level_system(), 2.0), two_level_system(), 1.0))

print("\n== thermal functions on the grid ==")
grid = two_level_grid()
print("  Xi(1)      =", thermal_function(two_level_system(), grid, np.eye(2)))
print("  Xi(sz)     =", np.round(thermal_function(two_level_system(), grid, sz), 6))
print("  entropy s  =", np.round(entropy_density(two_level_system(), grid), 6),
      "(derived report, not itself a thermal function)")

print("\n== thermality criterion on the 12-level model ==")
channel = build_thermal_channel(moment_system(), moment_grid())
hierarchy = moment_hierarchy()
measured = moment_measured()

report = hierarchy_report(measured, hierarchy, channel, tol=1e-8)
for v in report.verdicts:
    print(f"  level {v.level!r}: accepted={v.accepted} residual={v.residual:.3e}")
print("  finest accepted level:", report.max_accepted_level)
print("  true mixture mean beta:", moment_true_weights().moments()["beta"][0])
print("  estimated mean beta:   ",
      report.verdicts[-1].moments["beta"][0])

print("\n== a perturbed measurement fails at the fine level only ==")
perturbed = dict(measured)
perturbed["occ11"] += 0.1
report = hierarchy_report(perturbed, hierarchy, channel, tol=1e-6)
for v in report.verdicts:
    print(f"  level {v.level!r}: accepted={v.accepted} residual={v.residual:.3e}")
print("  finest accepted level:", report.max_accepted_level)
