"""Walkthrough: the locality criterion on a three-site parity chain.

States that deviate from the vacuum only inside a bounded region pass the
criterion; each passing region is a witness.  Localized morphisms create
exactly such states, intertwiners transport charge between regions, and
the failure of Haag duality on the observable net is where the sectors
show up.
"""

import numpy as np

from sectorlab.algebra import State
from sectorlab.dhrnet import (
    dhr_check,
    haag_duality_check,
    invert_selected_state,
    localized_morphism,
    selected_state,
    solve_intertwiners,
)
from sectorlab.models import (
    SIGMA_X,
    coupled_chain_hamiltonian,
    z2_chain_net,
    z2_vacuum,
)
from sectorlab.thermal import HamiltonianSystem, gibbs_state

net = z2_chain_net(3)
vacuum = z2_vacuum(3)

print("== a single spin flip passes, witnessed by its site ==")
flip = localized_morphism(net, [1], [SIGMA_X], "flip1")
state = selected_state(flip, vacuum)
report = dhr_check(state, vacuum, net, tol=1e-10)
print("  passes:", report.passes, " witnesses:", report.witness_regions)

print("\n== a thermal state of a coupled chain fails everywhere ==")
gibbs = gibbs_state(HamiltonianSystem(coupled_chain_hamiltonian(3)), 1.0)
report = dhr_check(State(gibbs.density, "gibbs"), vacuum, net, tol=1e-6)
print("  passes:", report.passes)
for region, dist in report.distances:
    print(f"    region {region}: distance {dist:.4f}")

print("\n== the selected state determines the morphism (search) ==")
found = invert_selected_state(state, vacuum, net)
print("  found:", found.found, " region:", found.region,
      " after", found.n_tried, "candidates")

print("\n== charge transporters between the two single-site flips ==")
net2 = z2_chain_net(2)
r0 = localized_morphism(net2, [0], [SIGMA_X], "flip0")
r1 = localized_morphism(net2, [1], [SIGMA_X], "flip1")
space = solve_intertwiners(r0, r1)
print("  intertwiner space dimension:", len(space))
defect = max(np.linalg.norm(t @ r0.apply_raw(a) - r1.apply_raw(a) @ t)
             for t in space for a in net2.observable_algebra().basis)
print(f"  largest ||T rho0(A) - rho1(A) T|| over the observables: {defect:.1e}")

print("\n== Haag duality: exact for fields, defective for observables ==")
field = haag_duality_check(net2, [0], observable=False)
obs = haag_duality_check(net2, [0], observable=True)
print(f"  field net:      LHS dim {field.lhs_dim}, RHS dim {field.rhs_dim},"
      f" defect {field.defect}")
print(f"  observable net: LHS dim {obs.lhs_dim}, RHS dim {obs.rhs_dim},"
      f" defect {obs.defect}  <- sectors live here")
