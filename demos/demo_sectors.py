"""Walkthrough: superselection sectors of the two-site parity chain.

A Z2 symmetry acts on two qubits by conjugation with sigma_z x sigma_z.
The invariant (observable) algebra splits into an even and an odd block;
charge is read off a state by the central projections, and classical
charge distributions are turned back into states by the charging channel.
"""

import numpy as np

from sectorlab.channels import ProbabilityWeight, apply_cq
from sectorlab.models import z2_chain_sector_model
from sectorlab.sectors import (
    charge_space,
    charging_channel,
    estimate_charge,
    induce_charged_state,
    sector_energies,
    vacuum_label,
)
from sectorlab.models import coupled_chain_hamiltonian

model = z2_chain_sector_model(2)
decomp = model["decomposition"]
net = model["net"]

print("== sector decomposition ==")
for label, m, v in zip(decomp.labels, decomp.mult_dims, decomp.irrep_dims):
    print(f"  {label}: multiplicity space dim {m}, irrep dim {v}")
print("  reconstruction residual:",
      decomp.reconstruction_residual(net.global_rep))
print("  vacuum sits in sector:", vacuum_label(decomp, model["vacuum"]))

print("\n== charging channel: classical weights -> charged states ==")
channel = charging_channel(decomp, model["vacuum"], model["charge_morphisms"])
nu = ProbabilityWeight(channel.space, np.array([0.25, 0.75]))
state = apply_cq(channel, nu)
print("  mixed 25/75 state diagonal:", np.round(np.diag(state.density).real, 6))

back = estimate_charge(state, decomp)
print("  charge read back from the state:", back.weights)

print("\n== charged vector for the balanced distribution ==")
half = ProbabilityWeight(charge_space(decomp), np.array([0.5, 0.5]))
mults = {m.label: m for m in model["charge_morphisms"]}
report = induce_charged_state(half, mults, np.array([1, 0, 0, 0]), net.global_rep)
print("  Psi =", np.round(report.psi.real, 6))
print("  worst deviation from the mixed state on group averages:",
      report.max_deviation)

print("\n== sector energies for the coupled-chain Hamiltonian ==")
print(" ", sector_energies(decomp, coupled_chain_hamiltonian(2)))
