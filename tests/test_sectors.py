import json

import numpy as np
import pytest

from sectorlab import _linalg as la
from sectorlab import cli
from sectorlab import serialize as io
from sectorlab.algebra import (
    State,
    center,
    full_matrix_algebra,
    generate_algebra,
    vector_state,
)
from sectorlab.channels import ProbabilityWeight, apply_cq
from sectorlab.groups import (
    average,
    cyclic_group,
    cyclic_rep_from_unitary,
    tensor_power_rep,
    trivial_rep,
)
from sectorlab.models import z2_chain_sector_model
from sectorlab.sectors import (
    ChargedMultiplet,
    charging_channel,
    charge_space,
    decompose_sectors,
    estimate_charge,
    identity_multiplet,
    induce_charged_state,
    k_map,
    sector_energies,
    vacuum_label,
)

from conftest import SX, SZ, I2, kron_all, span_residual


@pytest.fixture(scope="module")
def chain2():
    return z2_chain_sector_model(2)


class TestDecomposeSectors:
    def test_trivial_group_single_sector(self):
        f = full_matrix_algebra(2)
        dec = decompose_sectors(f, trivial_rep(cyclic_group(1), 2))
        assert dec.n_sectors == 1
        assert dec.mult_dims == (2,)

    def test_z2_on_qubit(self):
        rep = cyclic_rep_from_unitary(SZ, 2)
        dec = decompose_sectors(full_matrix_algebra(2), rep)
        assert dec.n_sectors == 2
        assert dec.mult_dims == (1, 1)
        # observable algebra is diagonal: its centre is everything
        obs = dec.observable_algebra()
        assert obs.dim == 2
        assert center(obs).dim == 2

    def test_z2_chain(self, chain2):
        dec = chain2["decomposition"]
        assert dec.mult_dims == (2, 2)
        assert dec.irrep_dims == (1, 1)

    def test_non_full_field_rejected(self, tmp_path, capsys):
        # F = the diagonal algebra, Z2 by sigma_x: F^G = C1 has a
        # one-dimensional centre, not the two sectors of B(C^2)^G
        diagonal = np.diag([1.0, 0.0]).astype(complex)
        rep = cyclic_rep_from_unitary(SX, 2)
        with pytest.raises(ValueError, match="full matrix algebra"):
            decompose_sectors(generate_algebra([diagonal]), rep)
        files = {
            "field": [io.matrix_to_json(diagonal)],
            "rep": io.rep_to_json(rep),
            "state": io.state_to_json(vector_state(np.ones(2) / np.sqrt(2))),
        }
        for name, obj in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        code = cli.main([
            "sectors", "analyze", "--field", str(tmp_path / "field.json"),
            "--group", "cyclic:2", "--rep", str(tmp_path / "rep.json"),
            "--state", str(tmp_path / "state.json"),
        ])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert '{"full_dim": d}' in err

    def test_centre_identity(self, chain2):
        # centre of the observable algebra = span of the projections,
        # dimension = number of labels
        dec = chain2["decomposition"]
        obs = dec.observable_algebra()
        z = center(obs)
        assert z.dim == dec.n_sectors
        for p in dec.projections:
            assert span_residual(z.basis, p) <= 1e-9


class TestKMap:
    def test_unit_maps_to_ones(self, chain2):
        vals = k_map(np.eye(4, dtype=complex), chain2["vacuum"],
                     chain2["charge_morphisms"])
        assert np.allclose(vals, 1.0)

    def test_central_projection_indicator(self, chain2):
        dec = chain2["decomposition"]
        vals = k_map(dec.projections[1], chain2["vacuum"],
                     chain2["charge_morphisms"])
        # identity morphism keeps the vacuum in sector 0; the flip carries
        # it into sector 1
        assert np.allclose(vals, [0.0, 1.0], atol=1e-12)

    def test_invariant_sz_signs(self, chain2):
        a = kron_all(SZ, I2)
        vals = k_map(a, chain2["vacuum"], chain2["charge_morphisms"],
                     rep=chain2["net"].global_rep)
        assert np.allclose(vals, [1.0, -1.0])

    def test_algebra_preservation_enforced(self, chain2):
        hadamard = (SX + SZ) / np.sqrt(2)
        bad = ChargedMultiplet("bad", (kron_all(hadamard, I2),))
        with pytest.raises(ValueError, match="no unital"):
            k_map(np.eye(4), chain2["vacuum"],
                  [chain2["charge_morphisms"][0], bad], rep=chain2["net"].global_rep)

    def test_non_unital_multiplet_rejected(self, chain2):
        # omega_0(rho(1)) = 1/2 for psi = 1 / sqrt(2): omega_0 o rho is no state
        half = ChargedMultiplet("half", (np.eye(4) / np.sqrt(2),))
        assert k_map(np.eye(4), chain2["vacuum"], [half]) == pytest.approx([0.5])
        with pytest.raises(ValueError, match="unital"):
            k_map(np.eye(4), chain2["vacuum"], [half], rep=chain2["net"].global_rep)

    def test_central_projection_multiplet_rejected(self, chain2):
        # psi = P, the even projection, implements rho = P . P on the
        # observables and maps them into themselves, but rho(1) = P
        dec = chain2["decomposition"]
        even = ChargedMultiplet("even", (dec.projections[0],))
        with pytest.raises(ValueError, match="unital"):
            k_map(np.eye(4), chain2["vacuum"], [even], rep=chain2["net"].global_rep)

    def test_positivity(self, chain2, rng):
        for _ in range(25):
            a = la.random_hermitian(rng, 4)
            vals = k_map(a.conj().T @ a, chain2["vacuum"],
                         chain2["charge_morphisms"])
            assert vals.real.min() >= -1e-10


class TestChargingChannel:
    def test_point_mass_at_vacuum(self, chain2):
        ch = charging_channel(chain2["decomposition"], chain2["vacuum"],
                              chain2["charge_morphisms"])
        w = ProbabilityWeight(ch.space, np.array([1.0, 0.0]))
        assert np.allclose(apply_cq(ch, w).density,
                           chain2["vacuum"].density)

    def test_half_half_mixture(self, chain2):
        ch = charging_channel(chain2["decomposition"], chain2["vacuum"],
                              chain2["charge_morphisms"])
        st = apply_cq(ch, ProbabilityWeight(ch.space, np.array([0.5, 0.5])))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 0.5   # |00><00|
        expected[2, 2] = 0.5   # |10><10|
        assert np.allclose(st.density, expected)

    def test_duality_with_k_map(self, chain2, rng):
        dec = chain2["decomposition"]
        ch = charging_channel(dec, chain2["vacuum"], chain2["charge_morphisms"])
        obs = dec.observable_algebra()
        for _ in range(100):
            w = rng.dirichlet([1, 1])
            coeff = rng.standard_normal(obs.dim)
            a = np.tensordot(coeff, obs.basis, axes=(0, 0))
            lhs = np.trace(apply_cq(ch, ProbabilityWeight(ch.space, w)).density @ a)
            rhs = w @ k_map(a, chain2["vacuum"], chain2["charge_morphisms"])
            assert abs(lhs - rhs) <= 1e-12

    def test_label_order_enforced(self, chain2):
        wrong = list(reversed(chain2["charge_morphisms"]))
        with pytest.raises(ValueError):
            charging_channel(chain2["decomposition"], chain2["vacuum"], wrong)

    def test_sector_supported_fibres(self, chain2):
        dec = chain2["decomposition"]
        ch = charging_channel(dec, chain2["vacuum"], chain2["charge_morphisms"])
        for fibre, p in zip(ch.fibre_states, dec.projections):
            assert np.trace(fibre.density @ p).real == pytest.approx(1.0, abs=1e-10)
        # disjointness
        for i, fibre in enumerate(ch.fibre_states):
            for j, p in enumerate(dec.projections):
                if i != j:
                    assert abs(np.trace(fibre.density @ p)) <= 1e-10


class TestEstimateCharge:
    def test_vacuum_point_mass(self, chain2):
        nu = estimate_charge(chain2["vacuum"], chain2["decomposition"])
        assert np.allclose(nu.weights, [1.0, 0.0])
        assert vacuum_label(chain2["decomposition"], chain2["vacuum"]) == "gamma0"

    def test_round_trip(self, chain2, rng):
        dec = chain2["decomposition"]
        ch = charging_channel(dec, chain2["vacuum"], chain2["charge_morphisms"])
        for _ in range(20):
            w = rng.dirichlet([1, 1])
            nu = estimate_charge(apply_cq(ch, ProbabilityWeight(ch.space, w)), dec)
            assert np.abs(nu.weights - w).max() <= 1e-10

    def test_maximally_mixed(self, chain2):
        mixed = State(np.eye(4) / 4, "mixed")
        nu = estimate_charge(mixed, chain2["decomposition"])
        assert np.allclose(nu.weights, [0.5, 0.5])

    def test_vacuum_label_requires_support(self, chain2):
        mixed = State(np.eye(4) / 4, "mixed")
        with pytest.raises(ValueError):
            vacuum_label(chain2["decomposition"], mixed)


class TestInducedChargedState:
    def test_point_mass_returns_vacuum_vector(self, chain2):
        dec = chain2["decomposition"]
        net = chain2["net"]
        nu = ProbabilityWeight(charge_space(dec), np.array([1.0, 0.0]))
        mults = {m.label: m for m in chain2["charge_morphisms"]}
        report = induce_charged_state(nu, mults, np.array([1, 0, 0, 0]), net.global_rep)
        assert np.allclose(report.psi, [1, 0, 0, 0])
        assert report.max_deviation <= 1e-12

    def test_half_half_superposition(self, chain2):
        dec = chain2["decomposition"]
        net = chain2["net"]
        nu = ProbabilityWeight(charge_space(dec), np.array([0.5, 0.5]))
        mults = {m.label: m for m in chain2["charge_morphisms"]}
        report = induce_charged_state(nu, mults, np.array([1, 0, 0, 0]), net.global_rep)
        expected = np.zeros(4); expected[0] = expected[2] = 1 / np.sqrt(2)
        assert np.allclose(report.psi, expected)
        assert report.max_deviation <= 1e-8
        assert report.norm_deviation <= 1e-10

    @pytest.mark.parametrize("weights", [[0.5, 0.5], [0.3, 0.7], [1.0, 0.0]])
    def test_deviation_matches_matrix_unit_loop(self, chain2, rng, weights):
        # oracle: the group average of every matrix unit E_ab, one at a time
        dec, rep = chain2["decomposition"], chain2["net"].global_rep
        nu = ProbabilityWeight(charge_space(dec), np.array(weights))
        mults = {m.label: m for m in chain2["charge_morphisms"]}
        vacua = [np.array([1, 0, 0, 0], dtype=complex)]
        for _ in range(4):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            vacua.append(v / np.linalg.norm(v))
        worst = []
        for vac in vacua:
            report = induce_charged_state(nu, mults, vac, rep)
            rho0 = np.outer(vac, vac.conj())
            mixture = sum(w * mults[lab].pullback_density(rho0)
                          for lab, w in zip(dec.labels, weights) if w > 0)
            psi = report.psi
            loop = 0.0
            for a in range(4):
                for b in range(4):
                    unit = np.zeros((4, 4), dtype=complex)
                    unit[a, b] = 1.0
                    mf = average(unit, rep)
                    loop = max(loop, abs(np.trace(mixture @ mf) - psi.conj() @ mf @ psi))
            assert report.max_deviation == pytest.approx(loop, rel=0, abs=1e-14)
            assert report.n_checked == 16
            worst.append(loop)
        # the random vacua exercise non-zero deviations
        if weights != [1.0, 0.0]:
            assert max(worst) > 0.05

    def test_missing_multiplet_rejected(self, chain2):
        dec = chain2["decomposition"]
        nu = ProbabilityWeight(charge_space(dec), np.array([0.5, 0.5]))
        mults = {dec.labels[0]: identity_multiplet(dec.labels[0], 4)}
        with pytest.raises(ValueError):
            induce_charged_state(nu, mults, np.array([1, 0, 0, 0]),
                                 chain2["net"].global_rep)

    def test_implementing_relation_enforced(self, chain2):
        dec = chain2["decomposition"]
        nu = ProbabilityWeight(charge_space(dec), np.array([0.0, 1.0]))
        # site-1 projectors sum to a unital multiplet but pinch off-diagonal
        # observables: psi_0* psi_0 = P0 (x) 1 is outside span{U(g)}
        p0 = kron_all(np.diag([1.0, 0.0]).astype(complex), I2)
        p1 = kron_all(np.diag([0.0, 1.0]).astype(complex), I2)
        bad = {dec.labels[1]: ChargedMultiplet(dec.labels[1], (p0, p1))}
        with pytest.raises(ValueError, match="no unital"):
            induce_charged_state(nu, bad, np.array([1, 0, 0, 0]),
                                 chain2["net"].global_rep)


class TestMultiplets:
    def test_sector_energies(self, chain2):
        h = -kron_all(SZ, SZ)
        energies = sector_energies(chain2["decomposition"], h)
        assert energies["gamma0"] == pytest.approx(-1.0)
        assert energies["gamma1"] == pytest.approx(1.0)


class TestSectorEnergyInputs:
    """``sector_energies`` reads only finite, Hermitian, d x d Hamiltonians
    that do not mix sectors; ``sectors analyze --hamiltonian`` exits 2 on
    any other."""

    @staticmethod
    def analyze(tmp_path, capsys, h):
        model = z2_chain_sector_model(2)
        files = {
            "field": {"full_dim": 4},
            "rep": io.rep_to_json(model["net"].global_rep),
            "hamiltonian": io.matrix_to_json(h),
        }
        for name, obj in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        code = cli.main([
            "sectors", "analyze", "--field", str(tmp_path / "field.json"),
            "--group", "cyclic:2", "--rep", str(tmp_path / "rep.json"),
            "--hamiltonian", str(tmp_path / "hamiltonian.json"),
        ])
        out, err = capsys.readouterr()
        return code, out, err

    def test_one_sided_entry_rejected(self, tmp_path, capsys):
        # a lone 50 at (0, 3): eigvalsh would read one triangle and report
        # gamma0 = -35.87
        h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        h[0, 3] = 50.0
        with pytest.raises(ValueError, match="Hamiltonian must be Hermitian"):
            sector_energies(z2_chain_sector_model(2)["decomposition"], h)
        code, out, err = self.analyze(tmp_path, capsys, h)
        assert code == 2 and out == ""
        assert "Hamiltonian must be Hermitian" in err

    def test_overflowing_entry_rejected(self, tmp_path, capsys):
        # a lone 1e308 at (0, 3): both Frobenius norms of the Hermiticity
        # test overflow, and inf <= inf must not pass
        h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        h[0, 3] = 1e308
        code, out, err = self.analyze(tmp_path, capsys, h)
        assert code == 2 and out == ""
        assert "Hamiltonian must be Hermitian" in err

    def test_nan_entry_rejected(self, tmp_path, capsys):
        h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        h[1, 1] = np.nan
        with pytest.raises(ValueError, match="Hamiltonian has non-finite entries"):
            sector_energies(z2_chain_sector_model(2)["decomposition"], h)
        code, out, err = self.analyze(tmp_path, capsys, h)
        assert code == 2 and out == ""
        assert "Hamiltonian has non-finite entries" in err

    def test_wrong_shape_rejected(self, tmp_path, capsys):
        code, out, err = self.analyze(tmp_path, capsys, np.eye(2))
        assert code == 2 and out == ""
        assert "Hamiltonian must be 4 x 4, got 2 x 2" in err
        with pytest.raises(ValueError, match="Hamiltonian must be 4 x 4, got 4 x 2"):
            sector_energies(z2_chain_sector_model(2)["decomposition"], np.ones((4, 2)))

    def test_sector_mixing_rejected(self, tmp_path, capsys):
        # the sectors of sigma_z (x) sigma_z are span{|00>, |11>} and
        # span{|01>, |10>}: a coupling of |00> and |01> mixes them, one of
        # |00> and |11> does not
        h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        inside = h.copy()
        inside[0, 3] = inside[3, 0] = 50.0
        energies = sector_energies(z2_chain_sector_model(2)["decomposition"], inside)
        assert energies["gamma0"] == pytest.approx(1.5 - np.hypot(1.5, 50.0))
        h[0, 1] = h[1, 0] = 0.5
        code, out, err = self.analyze(tmp_path, capsys, h)
        assert code == 2 and out == ""
        assert "Hamiltonian mixes sectors" in err

    def test_bundled_hamiltonian_accepted(self, tmp_path, capsys):
        code, out, err = self.analyze(tmp_path, capsys, -kron_all(SZ, SZ))
        assert code == 0 and err == ""
        energies = json.loads(out)["sector_energies"]
        assert energies == {"gamma0": pytest.approx(-1.0), "gamma1": pytest.approx(1.0)}
