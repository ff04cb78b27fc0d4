"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Everything is seeded; the whole suite stays within a
desk-scale time budget.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from sectorlab import _linalg as la
from sectorlab.algebra import (
    State,
    center,
    full_matrix_algebra,
    vector_state,
)
from sectorlab.channels import (
    ProbabilityWeight,
    apply_cq,
    forward_data,
    invert_cq,
    separation_check,
)
from sectorlab.cuntz import (
    CuntzPolynomial,
    CuntzWord,
    QRat,
    canonical_endomorphism,
    fock_product_defect,
    multiply,
)
from sectorlab.dhrnet import (
    dhr_check,
    enumerate_regions,
    haag_duality_check,
    identity_morphism,
    localized_morphism,
    selected_state,
    solve_intertwiners,
)
from sectorlab.groups import (
    average,
    regular_rep,
    symmetric_group,
    tensor_power_rep,
)
from sectorlab.models import (
    SIGMA_X,
    SIGMA_Z,
    coupled_chain_hamiltonian,
    moment_grid,
    moment_hierarchy,
    moment_measured,
    moment_probes,
    moment_system,
    two_level_grid,
    two_level_system,
    z2_chain_net,
    z2_chain_sector_model,
    z2_vacuum,
)
from sectorlab.sectors import (
    charging_channel,
    charge_space,
    decompose_sectors,
    estimate_charge,
    induce_charged_state,
    k_map,
)
from sectorlab.thermal import (
    HamiltonianSystem,
    build_thermal_channel,
    gibbs_state,
    hierarchy_report,
    kms_residual,
    thermal_function,
)

from conftest import span_residual


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS", flush=True)


def test_criterion_01_sector_structure():
    with criterion(1, "sector structure (parity chains and S3 regular)"):
        onsite = z2_chain_net(2).onsite_rep
        rng = np.random.default_rng(21)
        for n in range(2, 7):
            rep = tensor_power_rep(onsite, n)
            decomp = decompose_sectors(full_matrix_algebra(2 ** n), rep)
            assert decomp.n_sectors == 2
            total = sum(m * v for m, v in
                        zip(decomp.mult_dims, decomp.irrep_dims))
            assert total == 2 ** n
            assert decomp.reconstruction_residual(rep) <= 1e-8
            # invariant elements go block diagonal with repeated blocks
            obs = decomp.observable_algebra()
            for _ in range(3):
                a = average(la.random_hermitian(rng, 2 ** n), rep)
                assert la.hs_norm(a - obs.project(a)) <= 1e-8
            if n <= 4:
                assert center(obs).dim == 2
            assert np.allclose(decomp.projections.sum(axis=0),
                               np.eye(2 ** n), atol=1e-10)

        reg = regular_rep(symmetric_group(3))
        decomp = decompose_sectors(full_matrix_algebra(6), reg)
        assert decomp.n_sectors == 3
        assert decomp.irrep_dims == (1, 1, 2)
        assert center(decomp.observable_algebra()).dim == 3
        assert decomp.reconstruction_residual(reg) <= 1e-8


def test_criterion_02_channel_duality():
    with criterion(2, "channel duality (state/observable pairings)"):
        rng = np.random.default_rng(22)

        # thermal channels: omega_rho(A) = rho(Xi(A))
        for sys, grid in [
            (two_level_system(), two_level_grid()),
            (moment_system(), moment_grid()),
        ]:
            channel = build_thermal_channel(sys, grid)
            n = channel.space.size
            for _ in range(100):
                w = ProbabilityWeight(channel.space, rng.dirichlet(np.ones(n)))
                a = la.random_hermitian(rng, sys.dim)
                a /= max(1.0, np.linalg.norm(a, 2))
                lhs = np.trace(apply_cq(channel, w).density @ a).real
                rhs = float(w.weights @ thermal_function(sys, grid, a))
                assert abs(lhs - rhs) <= 1e-12

        # charging channel: k*(nu)(A) = nu(k(A))
        model = z2_chain_sector_model(2)
        channel = charging_channel(model["decomposition"], model["vacuum"],
                                   model["charge_morphisms"])
        obs = model["decomposition"].observable_algebra()
        for _ in range(100):
            w = ProbabilityWeight(channel.space, rng.dirichlet([1, 1]))
            coeff = rng.standard_normal(obs.dim)
            a = np.tensordot(coeff, obs.basis, axes=(0, 0))
            a /= max(1.0, np.linalg.norm(a, 2))
            lhs = np.trace(apply_cq(channel, w).density @ a)
            rhs = complex(w.weights @ k_map(a, model["vacuum"],
                                            model["charge_morphisms"]))
            assert abs(lhs - rhs) <= 1e-12


def test_criterion_03_adjunction_round_trips():
    with criterion(3, "adjunction round trips (grid and charge)"):
        rng = np.random.default_rng(23)
        channel = build_thermal_channel(moment_system(), moment_grid())
        probes = [m for _, m in moment_probes()]
        assert separation_check(channel, probes).passed
        for _ in range(10):
            w0 = ProbabilityWeight(channel.space, rng.dirichlet(np.ones(11)))
            result = invert_cq(channel, probes, forward_data(channel, probes, w0))
            assert result.weight.l1_distance(w0) <= 1e-6
            assert result.kkt_residual <= 1e-10

        model = z2_chain_sector_model(2)
        decomp = model["decomposition"]
        channel = charging_channel(decomp, model["vacuum"],
                                   model["charge_morphisms"])
        for _ in range(20):
            nu = ProbabilityWeight(channel.space, rng.dirichlet([1, 1]))
            back = estimate_charge(apply_cq(channel, nu), decomp)
            assert np.abs(back.weights - nu.weights).max() <= 1e-10


def test_criterion_04_gibbs_kms():
    with criterion(4, "Gibbs/KMS identity and closed forms"):
        rng = np.random.default_rng(24)
        for d in (2, 4, 9, 16):
            h = la.random_hermitian(rng, d)
            h /= np.linalg.norm(h, 2)
            beta = float(rng.uniform(0.5, 2.0))
            sys = HamiltonianSystem(h)
            assert kms_residual(gibbs_state(sys, beta), sys, beta) <= 1e-8
        for beta in (0.5, 1.0, 2.0):
            rho = gibbs_state(two_level_system(), beta)
            val = np.trace(rho.density @ SIGMA_Z).real
            assert abs(val + np.tanh(beta)) <= 1e-12


def test_criterion_05_thermality_criterion():
    with criterion(5, "S-thermality (acceptance, rejection, monotone)"):
        channel = build_thermal_channel(moment_system(), moment_grid())
        hierarchy = moment_hierarchy()
        measured = moment_measured()

        exact = hierarchy_report(measured, hierarchy, channel, tol=1e-8)
        assert all(v.accepted for v in exact.verdicts)
        assert exact.verdicts[-1].residual <= 1e-10
        assert exact.residual_monotone

        perturbed = dict(measured)
        perturbed["occ11"] += 0.1
        report = hierarchy_report(perturbed, hierarchy, channel, tol=1e-6)
        accepted = {v.level: v.accepted for v in report.verdicts}
        assert accepted["mean-energy"]
        assert not accepted["occupations"]
        assert report.max_accepted_level == "mean-energy"
        assert report.residual_monotone


def test_criterion_06_dhr_criterion():
    with criterion(6, "locality criterion (selected states, Gibbs rejection)"):
        net = z2_chain_net(3)
        vac = z2_vacuum(3)
        bundled = [identity_morphism(net)] + [
            localized_morphism(net, [k], [SIGMA_X], f"flip{k}")
            for k in range(3)
        ]
        for morph in bundled:
            state = selected_state(morph, vac)
            report = dhr_check(state, vac, net, tol=1e-12)
            assert report.passes
            assert morph.region in report.witness_regions
            assert dict(report.distances)[morph.region] <= 1e-12

        gibbs = gibbs_state(HamiltonianSystem(coupled_chain_hamiltonian(3)), 1.0)
        report = dhr_check(State(gibbs.density, "gibbs"), vac, net, tol=1e-6)
        assert not report.passes
        assert all(d > 1e-6 for _, d in report.distances)


def test_criterion_07_intertwiners():
    with criterion(7, "intertwiner solving (transporter and disjointness)"):
        net = z2_chain_net(2)
        r0 = localized_morphism(net, [0], [SIGMA_X], "flip0")
        r1 = localized_morphism(net, [1], [SIGMA_X], "flip1")
        space = solve_intertwiners(r0, r1)
        assert space
        span = np.array(space)
        transporter = np.kron(SIGMA_X, SIGMA_X).astype(complex)
        assert span_residual(span, transporter) <= 1e-9
        obs = net.observable_algebra()
        for t in space:
            for b in obs.basis:
                assert np.linalg.norm(
                    t @ r0.apply_raw(b) - r1.apply_raw(b) @ t) <= 1e-10
        assert solve_intertwiners(identity_morphism(net), r0) == []


def test_criterion_08_conditional_expectation():
    with criterion(8, "conditional expectation (group average properties)"):
        rng = np.random.default_rng(28)
        net = z2_chain_net(2)
        rep = net.global_rep
        d = net.total_dim
        assert np.allclose(average(np.eye(d), rep), np.eye(d))
        for _ in range(100):
            f = la.random_hermitian(rng, d)
            mf = average(f, rep)
            assert np.linalg.norm(average(mf, rep) - mf) <= 1e-9
            sq = f @ f.conj().T
            assert np.linalg.eigvalsh(average(sq, rep)).min() >= -1e-10
            a = average(la.random_hermitian(rng, d), rep)
            b = average(la.random_hermitian(rng, d), rep)
            assert np.linalg.norm(average(a @ f @ b, rep) - a @ mf @ b) <= 1e-9


def test_criterion_09_cuntz_engine():
    with criterion(9, "word rewriting vs truncated Fock oracle"):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            d = int(rng.integers(2, 4))
            def part():
                return tuple(int(x) for x in
                             rng.integers(1, d + 1, size=rng.integers(0, 7)))
            a = CuntzPolynomial.word(d, part(), part())
            b = CuntzPolynomial.word(d, part(), part())
            defect, _ = fock_product_defect(a, b, 12)
            assert defect == 0.0

        for d in (1, 2, 3):
            assert canonical_endomorphism(
                CuntzPolynomial.unit(d)) == CuntzPolynomial.unit(d)

        from fractions import Fraction
        for _ in range(100):
            d = int(rng.integers(2, 4))
            terms_a, terms_b = {}, {}
            for _ in range(2):
                def wrd():
                    return CuntzWord(
                        tuple(int(x) for x in rng.integers(1, d + 1,
                                                           size=rng.integers(0, 5))),
                        tuple(int(x) for x in rng.integers(1, d + 1,
                                                           size=rng.integers(0, 5))))
                terms_a[wrd()] = QRat(Fraction(int(rng.integers(-3, 4)),
                                               int(rng.integers(1, 3))), Fraction(0))
                terms_b[wrd()] = QRat(Fraction(int(rng.integers(-3, 4)),
                                               int(rng.integers(1, 3))), Fraction(0))
            a = CuntzPolynomial.build(d, terms_a)
            b = CuntzPolynomial.build(d, terms_b)
            assert canonical_endomorphism(multiply(a, b)) == multiply(
                canonical_endomorphism(a), canonical_endomorphism(b))


def test_criterion_10_charged_vector_identity():
    with criterion(10, "charged vector reproduces the mixed charge state"):
        model = z2_chain_sector_model(2)
        decomp = model["decomposition"]
        net = model["net"]
        nu = ProbabilityWeight(charge_space(decomp), np.array([0.5, 0.5]))
        mults = {m.label: m for m in model["charge_morphisms"]}
        report = induce_charged_state(
            nu, mults, np.array([1, 0, 0, 0]), net.global_rep)
        # verified across the full field basis (m(F) for all matrix units)
        assert report.max_deviation <= 1e-8
        assert report.norm_deviation <= 1e-10

        # and explicitly across the full even-algebra basis
        channel = charging_channel(decomp, model["vacuum"],
                                   model["charge_morphisms"])
        mixed = apply_cq(channel, nu).density
        for b in decomp.observable_algebra().basis:
            lhs = np.trace(mixed @ b)
            rhs = report.psi.conj() @ (b @ report.psi)
            assert abs(lhs - rhs) <= 1e-8


def test_criterion_11_haag_duality():
    with criterion(11, "Haag duality (field exact, observable defect)"):
        for n in range(2, 6):
            net = z2_chain_net(n)
            for region in enumerate_regions(net):
                if not region:
                    continue
                report = haag_duality_check(net, region, observable=False)
                assert report.defect == 0, (n, region)

        net2 = z2_chain_net(2)
        report = haag_duality_check(net2, [0], observable=True)
        assert report.defect > 0
