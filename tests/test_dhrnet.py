import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectorlab import _linalg as la, dhrnet, groups, sectors
from sectorlab.algebra import (
    OperatorAlgebra, State, full_matrix_algebra, generate_algebra, vector_state,
)
from sectorlab.channels import (
    ClassifyingSpace, ProbabilityWeight, evaluation_matrix, verify_positive_unital,
)
from sectorlab.dhrnet import (
    LatticeNet,
    LocalizedMorphism,
    apply_morphism,
    complement_sites,
    compose_morphisms,
    dhr_check,
    embed_factor_operator,
    enumerate_regions,
    haag_duality_check,
    identity_morphism,
    invert_selected_state,
    localized_morphism,
    region_algebra,
    selected_state,
    solve_intertwiners,
)
from sectorlab.groups import (
    builtin_group,
    cyclic_rep_from_unitary,
    endomorphism_failure,
    endomorphism_residuals,
    intertwiner_space,
    isotypic_decomposition,
    regular_rep,
    tensor_power_rep,
)
from sectorlab.models import (
    coupled_chain_hamiltonian, z2_chain_net, z2_onsite_rep, z2_vacuum,
)
from sectorlab.sectors import ChargedMultiplet, induce_charged_state, k_map
from sectorlab.thermal import HamiltonianSystem, gibbs_state

from conftest import (
    SX, SY, SZ, I2, assert_observable_generators, assert_same_span, averaged_span,
    bits, dense_fixed_points, kron_all, nullspace, permutation_rep, span_residual,
)


def _assert_orthonormal_span(alg, oracle):
    rows = la.mats_to_rows(alg.basis)
    assert np.linalg.norm(rows @ rows.conj().T - np.eye(alg.dim)) <= 1e-10
    assert_same_span(rows, la.mats_to_rows(oracle.basis))


@pytest.fixture(scope="module")
def net2():
    return z2_chain_net(2)


@pytest.fixture(scope="module")
def net3():
    return z2_chain_net(3)


class TestNetGeometry:
    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            z2_chain_net(9)

    def test_complement(self, net3):
        assert complement_sites(net3, [1]) == (0, 2)
        assert complement_sites(net3, []) == (0, 1, 2)

    def test_embed_respects_site_order(self, net3):
        a = embed_factor_operator(net3, [1], SZ)
        assert np.allclose(a, kron_all(I2, SZ, I2))
        b = embed_factor_operator(net3, [0, 2], kron_all(SX, SZ))
        assert np.allclose(b, kron_all(SX, I2, SZ))

    def test_interval_enumeration(self, net3):
        regions = enumerate_regions(net3)
        assert () in regions
        assert (0, 1, 2) not in regions
        assert (0, 1) in regions and (1, 2) in regions

    def test_all_subsets_enumeration(self, net3):
        regions = enumerate_regions(net3, all_subsets=True)
        assert (0, 2) in regions
        assert len(regions) == 7  # proper subsets of 3 sites


class TestRegionAlgebras:
    def test_full_chain_field(self, net2):
        alg = region_algebra(net2, [0, 1], observable=False)
        assert alg.dim == 16

    def test_single_site_observable(self, net3):
        alg = region_algebra(net3, [0], observable=True)
        assert alg.dim == 2
        for b in alg.basis:
            assert np.allclose(b, np.diag(np.diag(b)))

    def test_empty_region_scalars(self, net3):
        assert region_algebra(net3, [], observable=True).dim == 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_isotony(self, n):
        # every region's observables against the fixed points of its field
        # algebra, F(O)^G = F(O) inter U', then isotony on every nested pair
        net = z2_chain_net(n)
        regions = enumerate_regions(net, all_subsets=True) + [net.sites]
        algs = {}
        for r in regions:
            alg = region_algebra(net, r, observable=True)
            oracle = dense_fixed_points(region_algebra(net, r), net.global_rep)
            _assert_orthonormal_span(alg, oracle)
            algs[r] = alg
        for small, big in itertools.product(regions, repeat=2):
            if set(small) <= set(big):
                for b in algs[small].basis:
                    assert span_residual(algs[big].basis, b) <= 1e-10, (small, big)

    def test_locality(self, net3):
        a1 = region_algebra(net3, [0], observable=False)
        a2 = region_algebra(net3, [2], observable=False)
        for x in a1.basis:
            for y in a2.basis:
                assert np.linalg.norm(x @ y - y @ x) <= 1e-12

    @pytest.mark.parametrize("onsite, n, dim", [
        (z2_onsite_rep(), 1, 2), (z2_onsite_rep(), 2, 8), (z2_onsite_rep(), 3, 32),
        (z2_onsite_rep(), 4, 128), (z2_onsite_rep(), 5, 512),
        (regular_rep(builtin_group("symmetric:3")), 1, 6),
        (regular_rep(builtin_group("symmetric:3")), 2, 216),
        (permutation_rep(3), 3, 122),
    ], ids=["z2-1", "z2-2", "z2-3", "z2-4", "z2-5", "s3-regular-1", "s3-regular-2",
            "s3-permutation-3"])
    def test_global_observable_algebra(self, onsite, n, dim):
        net = LatticeNet(n, onsite)
        obs = net.observable_algebra()
        assert obs.dim == dim
        oracle = dense_fixed_points(full_matrix_algebra(net.total_dim), net.global_rep)
        _assert_orthonormal_span(obs, oracle)
        for u in net.global_rep.matrices:
            assert np.linalg.norm(u @ obs.basis @ u.conj().T - obs.basis) <= 1e-10
        assert_observable_generators(obs, net.global_rep)

    def test_observables_without_full_matrix_algebra(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("observables built from the full matrix algebra")

        monkeypatch.setattr(dhrnet, "full_matrix_algebra", forbidden)
        net = z2_chain_net(3)  # a fresh net: its observable algebra is cached
        assert net.observable_algebra().dim == 32
        for r in enumerate_regions(net, all_subsets=True)[1:] + [net.sites]:
            assert region_algebra(net, r, observable=True).dim == 2 * 4 ** (len(r) - 1)


class TestDhrCheck:
    def test_vacuum_passes_everywhere(self, net3):
        vac = z2_vacuum(3)
        report = dhr_check(vac, vac, net3, tol=1e-12)
        assert report.passes
        assert len(report.witness_regions) == len(enumerate_regions(net3))

    def test_single_site_flip(self, net3):
        vac = z2_vacuum(3)
        flipped = selected_state(localized_morphism(net3, [1], [SX], "f1"), vac)
        report = dhr_check(flipped, vac, net3, tol=1e-12)
        assert report.passes
        assert (1,) in report.witness_regions
        assert (0,) not in report.witness_regions
        dist = dict(report.distances)
        assert dist[(1,)] <= 1e-12

    def test_coupled_gibbs_fails_all_regions(self, net3):
        vac = z2_vacuum(3)
        h = coupled_chain_hamiltonian(3)
        gibbs = gibbs_state(HamiltonianSystem(h), 1.0)
        report = dhr_check(State(gibbs.density, "gibbs"), vac, net3, tol=1e-6)
        assert not report.passes
        assert all(d > 1e-6 for _, d in report.distances)

    def test_all_subsets_mode(self, net3):
        vac = z2_vacuum(3)
        flipped = selected_state(localized_morphism(net3, [1], [SX], "f1"), vac)
        report = dhr_check(flipped, vac, net3, tol=1e-12, all_subsets=True)
        assert (1,) in report.witness_regions

    def test_dimension_mismatch(self, net3):
        with pytest.raises(ValueError):
            dhr_check(z2_vacuum(2), z2_vacuum(3), net3)


class TestSiteCap:
    @pytest.mark.parametrize("onsite, fits", [
        (z2_onsite_rep(), 8), (permutation_rep(3), 5),
        (groups.trivial_rep(groups.cyclic_group(2)), 8),
    ], ids=["d0=2", "d0=3", "d0=1"])
    def test_most_sites_within_the_cap(self, onsite, fits):
        # max(d0, 2) ** n_sites <= 256, compared before d0 ** n_sites is formed
        assert LatticeNet(fits, onsite).n_sites == fits
        with pytest.raises(ValueError, match=f"{fits + 1} sites exceed the cap: "
                                             f"at most {fits} sites"):
            LatticeNet(fits + 1, onsite)


class TestMorphisms:
    def test_identity_morphism(self, net2):
        m = identity_morphism(net2)
        m.validate()
        assert np.allclose(selected_state(m, z2_vacuum(2)).density,
                           z2_vacuum(2).density)

    def test_flip_validates(self, net3):
        localized_morphism(net3, [0], [SX], "f0").validate()

    def test_non_unital_rejected(self, net3):
        bad = localized_morphism(net3, [0], [np.diag([1.0, 0.0])], "proj")
        with pytest.raises(ValueError):
            bad.validate()

    def test_algebra_breaking_rejected(self, net2):
        hadamard = (SX + SZ) / np.sqrt(2)
        bad = localized_morphism(net2, [0], [hadamard], "h")
        with pytest.raises(ValueError):
            bad.validate()

    def test_apply_on_observable(self, net3):
        m = localized_morphism(net3, [0], [SX], "f0")
        a = kron_all(SZ, I2, I2)
        assert np.allclose(apply_morphism(m, a), -a)

    def test_apply_unit(self, net3):
        m = localized_morphism(net3, [0], [SX], "f0")
        assert np.allclose(apply_morphism(m, np.eye(8)), np.eye(8))

    def test_complement_support_untouched(self, net3):
        m = localized_morphism(net3, [0], [SX], "f0")
        a = kron_all(I2, SZ, SZ)
        assert np.allclose(apply_morphism(m, a), a)

    def test_apply_rejects_non_observable(self, net3):
        m = localized_morphism(net3, [0], [SX], "f0")
        with pytest.raises(ValueError):
            apply_morphism(m, kron_all(SX, I2, I2))

    def test_selected_state_marginal(self, net3):
        vac = z2_vacuum(3)
        st = selected_state(localized_morphism(net3, [1], [SX], "f1"), vac)
        marg = np.einsum("aicajc->ij", st.density.reshape(2, 2, 2, 2, 2, 2))
        assert np.allclose(marg, np.diag([0.0, 1.0]))

    def test_composition_of_disjoint_flips(self, net3):
        vac = z2_vacuum(3)
        m0 = localized_morphism(net3, [0], [SX], "f0")
        m2 = localized_morphism(net3, [2], [SX], "f2")
        composed = compose_morphisms(m0, m2)
        assert composed.region == (0, 2)
        st = selected_state(composed, vac)
        expected = np.zeros(8); expected[5] = 1.0  # |101>
        assert np.allclose(np.diag(st.density).real, expected)

    def test_no_observable_basis(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("basis, generators or sectors of an algebra built")

        for name in ("region_algebra", "full_matrix_algebra", "isotypic_decomposition"):
            monkeypatch.setattr(dhrnet, name, forbidden)
        monkeypatch.setattr(sectors, "isotypic_decomposition", forbidden)
        monkeypatch.setattr(groups, "isotypic_decomposition", forbidden)
        monkeypatch.setattr(OperatorAlgebra, "basis", property(forbidden))
        monkeypatch.setattr(OperatorAlgebra, "generators", property(forbidden))
        net = z2_chain_net(3)
        r0 = localized_morphism(net, [0], [SX], "f0")
        r1 = localized_morphism(net, [1], [SX], "f1")
        r0.validate()
        identity_morphism(net).validate()
        localized_morphism(net, net.sites, [kron_all(SX, SY, SZ)], "xyz").validate()
        hadamard = localized_morphism(net, [0], [(SX + SZ) / np.sqrt(2)], "h")
        with pytest.raises(ValueError, match="leaves the observable"):
            hadamard.validate()
        pinch = localized_morphism(net, [1], [np.diag([1, 0]), np.diag([0, 1])], "p")
        with pytest.raises(ValueError, match="not multiplicative"):
            pinch.validate()
        rep, vac = net.global_rep, z2_vacuum(3)
        assert np.allclose(k_map(np.eye(8), vac, [r0.multiplet, r1.multiplet], rep=rep), 1.0)
        nu = ProbabilityWeight(ClassifyingSpace(("f0", "h")), np.array([1.0, 0.0]))
        mults = {"f0": r0.multiplet, "h": hadamard.multiplet}
        assert induce_charged_state(nu, mults, np.eye(8)[0], rep).max_deviation <= 1e-12
        for bad in (hadamard, pinch):
            with pytest.raises(ValueError, match="no unital"):
                k_map(np.eye(8), vac, [bad.multiplet], rep=rep)
            nu = ProbabilityWeight(ClassifyingSpace((bad.label,)), np.ones(1))
            with pytest.raises(ValueError, match="no unital"):
                induce_charged_state(nu, {bad.label: bad.multiplet}, np.eye(8)[0], rep)
        assert len(solve_intertwiners(r0, r1)) == 2
        assert len(solve_intertwiners(r0, r0)) == 2  # the centre of the observables

    @pytest.mark.parametrize("n", [6, 8])
    def test_large_chains(self, n):
        net = z2_chain_net(n)
        r0 = localized_morphism(net, [0], [SX], "f0")
        r1 = localized_morphism(net, [n // 2], [SX], "f1")
        r1.validate()
        bad = localized_morphism(net, [1], [(SX + SZ) / np.sqrt(2)], "h")
        with pytest.raises(ValueError, match="leaves the observable"):
            bad.validate()
        space = solve_intertwiners(r0, r1)
        assert len(space) == 2
        t = np.array(space)
        target = embed_factor_operator(net, [0, n // 2], kron_all(SX, SX))
        assert span_residual(t, target / np.linalg.norm(target)) <= 1e-9

    def test_w_injective_on_bundled_family(self, net3):
        vac = z2_vacuum(3)
        family = [identity_morphism(net3)] + [
            localized_morphism(net3, [k], [SX], f"f{k}") for k in range(3)
        ]
        states = [selected_state(m, vac) for m in family]
        for i, s1 in enumerate(states):
            for j, s2 in enumerate(states):
                if i != j:
                    assert np.linalg.norm(s1.density - s2.density) > 0.5


def basis_validate(morph) -> bool:
    """Oracle: the basis loops of earlier versions of ``validate``, as a verdict.

    Unitality, every element of the complement's field basis fixed, every
    image of the observable basis inside its span, and multiplicativity on
    every pair of observable basis elements, each at 1e-9 (1e-9 * d).
    """
    tol = 1e-9
    net = morph.net
    d = net.total_dim
    total = sum(p @ p.conj().T for p in morph.multiplet.matrices)
    if np.linalg.norm(total - np.eye(d)) > tol * d:
        return False
    comp = region_algebra(net, complement_sites(net, morph.region))
    if any(np.linalg.norm(morph.apply_raw(b) - b) > tol for b in comp.basis):
        return False
    obs = net.observable_algebra().basis
    images = np.array([morph.apply_raw(b) for b in obs])
    if any(span_residual(obs, img) > tol for img in images):
        return False
    products = obs[:, None] @ obs[None, :]  # B_i B_j for every pair
    lhs = sum(p @ products @ p.conj().T for p in morph.multiplet.matrices)
    res = np.linalg.norm(lhs - images[:, None] @ images[None, :], axis=(2, 3))
    return bool(np.all(res <= tol))


def _localized(morph) -> bool:
    """Oracle: every psi_i commutes with the complement's field basis."""
    net = morph.net
    comp = region_algebra(net, complement_sites(net, morph.region))
    return all(np.linalg.norm(p @ b - b @ p) <= 1e-9
               for p in morph.multiplet.matrices for b in comp.basis)


def _accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


def _verdict(morph) -> bool:
    return _accepts(morph.validate)


class TestValidateAgainstBasisLoops:
    @pytest.fixture(scope="class")
    def candidates(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        return [("X", SX), ("Z", SZ), ("H", (SX + SZ) / np.sqrt(2)),
                ("S", np.diag([1, 1j])), ("Y", SY), ("Q", q), ("1", I2)]

    def _sweep(self, net, candidates):
        """Every morphism family of the sweep on ``net``, as (name, morphism)."""
        n = net.n_sites
        for region in enumerate_regions(net, all_subsets=True)[1:] + [net.sites]:
            for combo in itertools.product(candidates, repeat=len(region)):
                u = kron_all(*(m for _, m in combo))
                name = "".join(c for c, _ in combo)
                yield f"{name}@{region}", localized_morphism(net, region, [u], name)
        for s in range(n):
            for (a, u), (b, v) in itertools.combinations_with_replacement(candidates, 2):
                mult = [u / np.sqrt(2), v / np.sqrt(2)]
                yield f"({a},{b})@{s}", localized_morphism(net, [s], mult, a + b)
            # the unit half of the O2 relations, sum psi psi* = 1, by two
            # partial isometries (psi* psi = 1 cannot hold in finite dimension)
            for name, pair in (("P0,P1", [np.diag([1, 0]), np.diag([0, 1])]),
                               ("E00,E10", [np.diag([1, 0]), SX @ np.diag([1, 0])])):
                yield f"({name})@{s}", localized_morphism(net, [s], pair, name)
            for k in range(-12, -5):
                name = f"X+1e{k}Z"
                yield f"{name}@{s}", localized_morphism(net, [s], [SX + 10.0 ** k * SZ],
                                                        name)
        rest = [I2] * (n - 2)
        for name, p in (("XX", SX), ("ZZ", SZ)):
            wide = kron_all(p, p, *rest)
            mult = ChargedMultiplet(name, (wide,))
            yield f"{name}@(0,)", LocalizedMorphism(net, (0,), mult)

    @pytest.mark.parametrize("n, moved", [(2, set()), (3, set())])
    def test_same_verdicts(self, n, moved, candidates):
        # No verdict moves.  X + eps Z is Ad of a multiple of a unitary and
        # leaves the observables by eps (X A Z + Z A X): the largest such
        # residual on the orthonormal basis is sqrt(2) eps, and psi* U(g) psi
        # leaves span{U(h)} by 2 eps on every site, with no W in it.  So at
        # eps = tol both reject, also at site 0 of the 2-site chain, where a
        # check on the generators of a seeded W read 0.80 eps and accepted.
        net = z2_chain_net(n)
        rep, vac = net.global_rep, z2_vacuum(n)
        omega0 = np.eye(net.total_dim)[0]
        verdicts, differ, rejected = {}, set(), {}
        for name, morph in self._sweep(net, candidates):
            verdicts[name] = _verdict(morph)
            if verdicts[name] != basis_validate(morph):
                differ.add(name)
            if _localized(morph):
                mult = morph.multiplet
                nu = ProbabilityWeight(ClassifyingSpace((mult.label,)), np.ones(1))
                rejected[name] = (
                    not _accepts(lambda: k_map(np.eye(net.total_dim), vac, [mult], rep=rep)),
                    not _accepts(lambda: induce_charged_state(
                        nu, {mult.label: mult}, omega0, rep)))
        assert differ == moved
        assert set(verdicts.values()) == {True, False}
        assert verdicts["X+1e-12Z@0"] and not verdicts["X+1e-6Z@0"]
        assert not verdicts["XX@(0,)"] and not verdicts["ZZ@(0,)"]
        # k_map and induce_charged_state reject exactly the localized
        # multiplets that validate rejects
        assert set(rejected) == set(verdicts) - {"XX@(0,)", "ZZ@(0,)"}
        for name, (by_k_map, by_induce) in rejected.items():
            assert by_k_map == by_induce == (not verdicts[name]), name

    @pytest.mark.parametrize("n", [2, 3])
    def test_residual_reads_two_eps(self, n):
        # psi = X + eps Z: psi* U(g) psi = (-Z + 2 eps X + eps^2 Z) (x) Z..Z for
        # the flip g, whose part outside span{1, Z..Z} has HS norm 2 eps sqrt(d)
        net = z2_chain_net(n)
        for s in range(n):
            for k in range(-12, -5):
                eps = 10.0 ** k
                f = SX + eps * SZ
                local = endomorphism_residuals([f], net.global_rep, dhrnet._legs(net, 1))
                bare = endomorphism_residuals(
                    [embed_factor_operator(net, [s], f)], net.global_rep)
                assert local[0] <= 1e-15 and bare[0] <= 1e-15  # multiplicative
                assert local[1] == pytest.approx(2 * eps, rel=1e-3)
                assert bare[1] == pytest.approx(2 * eps, rel=1e-3)


def _flip_morphisms(n):
    net = z2_chain_net(n)
    return [identity_morphism(net)] + [
        localized_morphism(net, [s], [SX], f"f{s}") for s in range(n)]


def _s3_regular_morphisms():
    """Identity and Ad of a left translation, a right translation and a
    conjugation permutation on regular S3, whose observables are
    C + C + (M_2 (x) 1_2)."""
    group = builtin_group("symmetric:3")
    table, inv = group.table, group.inverses
    net = LatticeNet(1, regular_rep(group))

    def permutation(f):
        m = np.zeros((group.order, group.order))
        m[[f(h) for h in range(group.order)], range(group.order)] = 1.0
        return m

    units = [net.global_rep.matrices[1], permutation(lambda h: table[h, inv[1]]),
             permutation(lambda h: table[table[3, h], inv[3]])]
    return [identity_morphism(net)] + [
        localized_morphism(net, [0], [u], f"u{i}") for i, u in enumerate(units)]


def kronecker_solve_intertwiners(rho, sigma):
    """Oracle: the literal system T rho(B) = sigma(B) T with T in the observables.

    The observable basis spans the group averages of the matrix units; the
    unknowns are T's coefficients in it.  Rows are vectorised solutions.
    """
    net = rho.net
    d = net.total_dim
    obs = la.rows_to_mats(
        averaged_span(np.eye(d * d).reshape(d * d, d, d), net.global_rep), d)
    pairs = [(rho.apply_raw(b), sigma.apply_raw(b)) for b in obs]
    system = np.array([
        np.concatenate([(bk @ r - s @ bk).ravel() for r, s in pairs]) for bk in obs
    ]).T
    return np.array([np.tensordot(c, obs, axes=(0, 0)).ravel()
                     for c in nullspace(system)]).reshape(-1, d * d)


class TestIntertwiners:
    def test_identity_intertwines_with_itself(self, net2):
        m = identity_morphism(net2)
        space = solve_intertwiners(m, m)
        span = np.array(space)
        assert span_residual(span, np.eye(4, dtype=complex) / 2) <= 1e-9

    def test_flip_transporter(self, net2):
        r0 = localized_morphism(net2, [0], [SX], "f0")
        r1 = localized_morphism(net2, [1], [SX], "f1")
        space = solve_intertwiners(r0, r1)
        assert len(space) == 2
        span = np.array(space)
        assert span_residual(span, kron_all(SX, SX).astype(complex)) <= 1e-9
        obs = net2.observable_algebra()
        for t in space:
            assert span_residual(obs.basis, t) <= 1e-9
            for b in obs.basis:
                lhs = t @ r0.apply_raw(b)
                rhs = r1.apply_raw(b) @ t
                assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_disjoint_sectors_empty(self, net2):
        ident = identity_morphism(net2)
        r0 = localized_morphism(net2, [0], [SX], "f0")
        assert solve_intertwiners(ident, r0) == []

    @pytest.mark.parametrize("case", ["2", "3", "s3-regular-1"])
    def test_matches_kronecker_system(self, case):
        if case == "s3-regular-1":
            morphs = _s3_regular_morphisms()
        else:
            morphs = _flip_morphisms(int(case))
        net = morphs[0].net
        for m in morphs:
            m.validate()  # the precondition of solve_intertwiners
        for rho in morphs:
            for sigma in morphs:
                space = solve_intertwiners(rho, sigma)
                rows = np.reshape(space, (len(space), net.total_dim ** 2))
                assert_same_span(rows, kronecker_solve_intertwiners(rho, sigma))

    def test_different_nets_rejected(self, net2):
        # a Z2-chain flip and a Z4 shift on another net of dimension 4
        shift = np.roll(np.eye(4), 1, axis=0)
        z4_net = LatticeNet(1, cyclic_rep_from_unitary(shift, 4))
        flip = localized_morphism(net2, [0], [SX], "f0")
        shifted = localized_morphism(z4_net, [0], [shift], "s")
        for rho, sigma in ((flip, shifted), (shifted, flip)):
            with pytest.raises(ValueError, match="different nets"):
                solve_intertwiners(rho, sigma)

    def test_one_net_built_twice(self, net2):
        # nets compare by content: two builds of one chain are one net
        flip = localized_morphism(net2, [0], [SX], "f0")
        again = localized_morphism(z2_chain_net(2), [1], [SX], "f1")
        assert len(solve_intertwiners(flip, again)) == 2
        assert compose_morphisms(flip, again).region == (0, 1)

    def test_no_linear_solve(self, net3, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a linear system was solved")

        for name in ("commutant_basis", "row_space"):
            monkeypatch.setattr(la, name, forbidden)
        reg = regular_rep(builtin_group("symmetric:3"))
        assert len(intertwiner_space(reg, reg)) == 6
        r0 = localized_morphism(net3, [0], [SX], "f0")
        r1 = localized_morphism(net3, [1], [SX], "f1")
        assert len(solve_intertwiners(r0, r1)) == 2
        assert len(solve_intertwiners(identity_morphism(net3), r0)) == 0

    def test_composition_closure(self, net2):
        r0 = localized_morphism(net2, [0], [SX], "f0")
        r1 = localized_morphism(net2, [1], [SX], "f1")
        t01 = solve_intertwiners(r0, r1)
        t10 = solve_intertwiners(r1, r0)
        t00 = np.array(solve_intertwiners(r0, r0))
        for a in t01:
            for b in t10:
                prod = b @ a  # rho0 -> rho1 -> rho0
                assert span_residual(t00, prod) <= 1e-9 * max(
                    1.0, np.linalg.norm(prod))


class TestHaagDuality:
    def test_field_net_intervals(self):
        for n in (2, 3, 4):
            net = z2_chain_net(n)
            for region in enumerate_regions(net):
                if not region:
                    continue
                report = haag_duality_check(net, region, observable=False)
                assert report.passes, (n, region)
                assert report.defect == 0

    def test_observable_single_site_defect(self, net2):
        report = haag_duality_check(net2, [0], observable=True)
        assert report.defect > 0
        assert report.lhs_dim == 8 and report.rhs_dim == 2

    def test_full_chain_region(self, net2):
        report = haag_duality_check(net2, [0, 1], observable=False)
        assert report.lhs_dim == 16
        assert report.defect == 0

    @pytest.mark.parametrize("region", [(0,), (1, 2), (1, 2, 3), (0, 1, 2, 3)])
    def test_observable_five_sites_literal(self, region, monkeypatch):
        # A(O) = M_a + M_a with a = 2^(m-1), so dim A(O)'' = 2 * 4^(m-1);
        # A(O') carries the complement's parity, so dim A(O')' = 2 * 4^m
        calls = []
        original = dhrnet.commutant

        def counted(alg):
            calls.append(alg.dim)
            return original(alg)

        monkeypatch.setattr(dhrnet, "commutant", counted)
        m = len(region)
        report = haag_duality_check(z2_chain_net(5), region, observable=True)
        assert report.lhs_dim == 2 * 4 ** m
        assert report.rhs_dim == 2 * 4 ** (m - 1)
        assert len(calls) == 3  # A(O')' and both commutants of A(O)''


class TestInversionSearch:
    def test_recovers_flip(self, net3):
        vac = z2_vacuum(3)
        st = selected_state(localized_morphism(net3, [1], [SX], "f1"), vac)
        result = invert_selected_state(st, vac, net3, tol=1e-10)
        assert result.found
        assert result.region == (1,)
        assert result.distance <= 1e-10

    def test_identity_comes_back_first(self, net3):
        vac = z2_vacuum(3)
        result = invert_selected_state(vac, vac, net3, tol=1e-10)
        assert result.found and result.region == ()

    def test_gibbs_not_found(self, net2):
        vac = z2_vacuum(2)
        h = coupled_chain_hamiltonian(2)
        gibbs = gibbs_state(HamiltonianSystem(h), 1.0)
        result = invert_selected_state(State(gibbs.density), vac, net2, tol=1e-8)
        assert not result.found
        assert result.distance > 1e-3
        # no interval is a witness: only the identity was tried
        assert (result.miss, result.n_tried) == ("excluded", 1)

    def test_non_unital_word_refused(self, net3):
        # c X with c^2 = 1 + 5e-9 keeps every residual at zero and selects
        # c^2 times the flipped state, within tol = 1e-8 of it, but misses
        # unitality by 5e-9 sqrt(8) > 1e-9 * 8: validate refuses the
        # morphism, and so does the search, by the same test
        vac, omega = z2_vacuum(3), _flip_state(3, (1,))
        cx = np.sqrt(1 + 5e-9) * SX
        with pytest.raises(ValueError, match="not unital"):
            localized_morphism(net3, [1], [cx], "cX").validate()
        result = invert_selected_state(omega, vac, net3, candidates=[("cX", cx)])
        assert not result.found and result.miss == "not_found"
        result = invert_selected_state(omega, vac, net3, candidates=[("cX", cx), ("X", SX)])
        assert result.morphism.label == "X@(1,)"
        result.morphism.validate()


def _random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _flip_state(n, flips):
    vec = np.zeros(2 ** n)
    vec[sum(1 << (n - 1 - s) for s in flips)] = 1.0
    return vector_state(vec, "flipped")


class TestBasisFreeDistance:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("all_subsets", [False, True])
    def test_norm_of_projected_difference(self, n, all_subsets, rng):
        # the norm of (omega - omega0) on A(O') is the trace norm of the
        # trace-orthogonal projection of rho - rho0 onto A(O')
        net = z2_chain_net(n)
        for _ in range(3):
            omega = State(_random_density(rng, net.total_dim))
            omega0 = State(_random_density(rng, net.total_dim))
            delta = omega.density - omega0.density
            report = dhr_check(omega, omega0, net, all_subsets=all_subsets)
            assert len(report.distances) == len(enumerate_regions(net, all_subsets))
            for region, dist in report.distances:
                alg = region_algebra(net, complement_sites(net, region),
                                     observable=True)
                expected = np.linalg.svd(alg.project(delta), compute_uv=False).sum()
                assert abs(dist - expected) <= 1e-12, region

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_witnesses_are_the_regions_holding_every_flip(self, n):
        net = z2_chain_net(n)
        vac = z2_vacuum(n)
        flip_sets = [(s,) for s in range(n)] + list(itertools.combinations(range(n), 2))
        for all_subsets in (False, True):
            regions = enumerate_regions(net, all_subsets)
            for flips in flip_sets:
                report = dhr_check(_flip_state(n, flips), vac, net,
                                   all_subsets=all_subsets)
                expected = {r for r in regions if set(flips) <= set(r)}
                assert set(report.witness_regions) == expected, (flips, all_subsets)
                assert report.passes == bool(expected)

    def test_eight_sites(self):
        net = z2_chain_net(8)
        vac = z2_vacuum(8)
        omega = _flip_state(8, (2,))
        report = dhr_check(omega, vac, net)
        expected = {r for r in enumerate_regions(net) if 2 in r}
        assert set(report.witness_regions) == expected
        result = invert_selected_state(omega, vac, net)
        assert result.found and result.region == (2,)
        assert result.morphism.label == "X@(2,)"
        assert result.distance <= 1e-12

    def test_no_basis_on_the_hot_path(self, net3, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("basis of an observable algebra built")

        for name in ("region_algebra", "isotypic_decomposition", "full_matrix_algebra"):
            monkeypatch.setattr(dhrnet, name, forbidden)
        monkeypatch.setattr(LatticeNet, "observable_algebra", forbidden)
        vac = z2_vacuum(3)
        omega = _flip_state(3, (1,))
        assert dhr_check(omega, vac, net3).witness_regions == ((1,), (0, 1), (1, 2))
        assert invert_selected_state(omega, vac, net3).region == (1,)
        m = localized_morphism(net3, [0], [SX], "f0")
        assert np.allclose(apply_morphism(m, kron_all(SZ, I2, I2)), -kron_all(SZ, I2, I2))

    def test_no_library_path_reads_a_basis(self, net3, monkeypatch):
        def forbidden(self):
            raise AssertionError("basis of an algebra built")

        obs, vac = net3.observable_algebra(), z2_vacuum(3)
        omega = _flip_state(3, (1,))
        flip = ChargedMultiplet("flip", (kron_all(I2, SX, I2),))
        proj = la.project_onto_span(obs.basis, omega.density - vac.density)
        distance = np.linalg.svd(proj, compute_uv=False).sum()
        monkeypatch.setattr(OperatorAlgebra, "basis", property(forbidden))
        region_obs = region_algebra(net3, (0, 1), observable=True)
        assert region_obs.dim == 8
        region_obs.validate()
        assert np.allclose(k_map(kron_all(SZ, SZ, I2), vac, [flip], rep=net3.global_rep),
                           [-1.0])
        # the empty region's distance is the one on the global observables
        assert dhr_check(omega, vac, net3).distances[0] == (
            (), pytest.approx(distance, abs=1e-12))
        table = evaluation_matrix([vac.density, omega.density], obs)
        assert verify_positive_unital(table, obs).passed
        obs.validate()
        assert generate_algebra(obs.generators).dim == obs.dim

    def test_no_kronecker_nullspace(self, net3):
        # the library has no nullspace solve left to call
        assert not hasattr(la, "nullspace")
        reg = regular_rep(builtin_group("symmetric:3"))
        assert len(intertwiner_space(reg, reg)) == 6
        for name in ("symmetric:4", "quaternion:8"):
            dec = isotypic_decomposition(regular_rep(builtin_group(name)))
            assert dec.mult_dims == dec.irrep_dims
        for n in (3, 4):
            net = z2_chain_net(n)
            r0 = localized_morphism(net, [0], [SX], "f0")
            r1 = localized_morphism(net, [1], [SX], "f1")
            assert len(solve_intertwiners(r0, r1)) == 2
        assert net3.observable_algebra().dim == 32
        omega = _flip_state(3, (1,))
        assert invert_selected_state(omega, z2_vacuum(3), net3).region == (1,)


class TestNormalizerTest:
    def test_agrees_with_basis_images(self, net3, rng):
        # the old test: every image of the observable basis stays in its span
        obs = net3.observable_algebra()
        q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
        cands = dhrnet.default_onsite_candidates(2) + [
            ("H", (SX + SZ) / np.sqrt(2)), ("S", np.diag([1, 1j])), ("Y", SY),
            ("Q", q),
        ]
        verdicts = set()
        for region in enumerate_regions(net3, all_subsets=True)[1:]:
            for combo in itertools.product(cands, repeat=len(region)):
                u = kron_all(*(m for _, m in combo))
                morph = localized_morphism(net3, region, [u], "u")
                old = all(span_residual(obs.basis, morph.apply_raw(b)) <= 1e-9
                          for b in obs.basis)
                new = endomorphism_failure([u], net3.global_rep, dhrnet._legs(
                    net3, len(region))) is None
                assert new == old, (region, [name for name, _ in combo])
                verdicts.add(new)
        assert verdicts == {True, False}


class TestNonFiniteStates:
    def nan_state(self, n):
        rho = z2_vacuum(n).density.copy()
        rho[0, 1] = rho[1, 0] = np.nan
        return State(rho, "nan")

    def test_criteria_reject_nan(self, net3):
        vac = z2_vacuum(3)
        for omega, omega0 in ((self.nan_state(3), vac), (vac, self.nan_state(3))):
            with pytest.raises(ValueError, match="non-finite"):
                dhr_check(omega, omega0, net3)
            with pytest.raises(ValueError, match="non-finite"):
                invert_selected_state(omega, omega0, net3)


def _dense_distance(delta, net):
    """Trace norm of the dense group average of delta over a fresh global rep."""
    rep = tensor_power_rep(net.onsite_rep, net.n_sites)
    avg = sum(u @ delta @ la.dagger(u) for u in rep.matrices) / rep.group.order
    return float(np.linalg.svd(avg, compute_uv=False).sum())


def dense_invert_selected_state(omega, omega0, net, candidates=None, tol=1e-8):
    """The search as it was: every candidate embedded and multiplied at d x d
    for the normaliser test, the pullback and the distance."""
    cands = candidates if candidates is not None else dhrnet.default_onsite_candidates(
        net.onsite_dim)
    global_mats = tensor_power_rep(net.onsite_rep, net.n_sites).matrices
    group_span = la.orthonormalize_mats(global_mats)
    tried, best = 0, np.inf
    for region in enumerate_regions(net):
        if not region:
            dist = _dense_distance(omega.density - omega0.density, net)
            best, tried = min(best, dist), tried + 1
            if dist <= tol:
                return True, None, (), dist, tried
            continue
        for combo in itertools.product(cands, repeat=len(region)):
            tried += 1
            u = combo[0][1]
            for _, nxt in combo[1:]:
                u = np.kron(u, nxt)
            name = "".join(n for n, _ in combo)
            morph = localized_morphism(net, region, [u], f"{name}@{region}")
            psi = morph.multiplet.matrices[0]
            images = [psi @ ug @ la.dagger(psi) for ug in global_mats]
            if any(span_residual(group_span, img) > 1e-9 * la.hs_norm(img)
                   for img in images):
                continue
            dist = _dense_distance(omega.density - morph.multiplet.pullback_density(
                omega0.density), net)
            best = min(best, dist)
            if dist <= tol:
                return True, morph, region, dist, tried
    return False, None, None, best, tried


class TestRegionLocalInversion:
    """The search on the region's legs and in witness regions only, against
    the dense loop over every region that it replaced."""

    @staticmethod
    def assert_same_search(omega, omega0, net, candidates=None):
        got = invert_selected_state(omega, omega0, net, candidates)
        found, morph, region, dist, tried = dense_invert_selected_state(
            omega, omega0, net, candidates)
        assert (got.found, got.region) == (found, region)
        assert got.n_tried <= tried
        if found:
            assert got.miss is None
            assert abs(got.distance - dist) <= 1e-12
            if morph is not None:
                assert got.morphism.label == morph.label
                assert np.array_equal(got.morphism.multiplet.matrices[0],
                                      morph.multiplet.matrices[0])
            return
        report = dhr_check(omega, omega0, net)
        if report.passes:
            # the regions searched are a subset of the oracle's
            assert got.miss == "not_found"
            assert got.distance >= dist - 1e-12
        else:
            assert got.miss == "excluded"
            assert got.distance == min(d for _, d in report.distances)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_default_candidates(self, n):
        net, vac = z2_chain_net(n), z2_vacuum(n)
        for flips in [(s,) for s in range(n)] + [(0, n - 1)] * (n > 1):
            self.assert_same_search(_flip_state(n, flips), vac, net)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_non_normalising_candidates(self, n):
        # H and a random unitary fail the normaliser test; S and Y pass it
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        cands = [("H", (SX + SZ) / np.sqrt(2)), ("Q", q), ("S", np.diag([1, 1j])),
                 ("X", SX), ("Y", SY)]
        net, vac = z2_chain_net(n), z2_vacuum(n)
        for flips in [(s,) for s in range(n)] + [(0, n - 1)]:
            self.assert_same_search(_flip_state(n, flips), vac, net, cands)
        omega, omega0 = (State(_random_density(rng, net.total_dim)) for _ in range(2))
        for ref in (vac, omega0):
            self.assert_same_search(omega, ref, net, cands)
            self.assert_same_search(omega, ref, net)
        moved = selected_state(localized_morphism(net, [n - 1], [SY], "Y"), omega0)
        self.assert_same_search(moved, omega0, net, cands)
        assert invert_selected_state(moved, omega0, net, cands).found

    def test_not_found_searches_only_witness_regions(self):
        # (omega0 + omega0 o flip_1) / 2 holds at every interval through
        # site 1, but no single unitary gives it
        net, vac = z2_chain_net(3), z2_vacuum(3)
        omega = State((vac.density + _flip_state(3, (1,)).density) / 2)
        self.assert_same_search(omega, vac, net)
        result = invert_selected_state(omega, vac, net)
        assert result.miss == "not_found"
        # the identity, then X, Z, XZ on (1,) and 9 words on (0, 1) and (1, 2)
        assert result.n_tried == 1 + 3 + 9 + 9

    def test_provable_miss_at_the_cap(self, monkeypatch):
        net, vac = z2_chain_net(8), z2_vacuum(8)
        omega = _flip_state(8, (0, 7))
        report = dhr_check(omega, vac, net)
        assert not report.passes
        calls = []
        observable_distance = dhrnet._observable_distance

        def counted(delta, net, sites):
            calls.append(tuple(sites))
            return observable_distance(delta, net, sites)

        monkeypatch.setattr(dhrnet, "_observable_distance", counted)
        result = invert_selected_state(omega, vac, net)
        assert calls == [complement_sites(net, r) for r in enumerate_regions(net)]
        assert (result.found, result.miss, result.n_tried) == (False, "excluded", 1)
        assert result.distance == min(d for _, d in report.distances)

    def test_candidates_validated_before_the_search(self):
        net, vac = z2_chain_net(3), z2_vacuum(3)
        states = [vac, _flip_state(3, (1,)), _flip_state(3, (0, 2))]
        for bad in (np.eye(4), np.ones((2, 3))):
            cands = [("X", SX), ("B", bad)]
            for omega in states:
                with pytest.raises(ValueError, match="'B' is not a 2 x 2"):
                    invert_selected_state(omega, vac, net, cands)


@st.composite
def proper_interval_words(draw):
    """A chain of 2-5 sites, a proper interval of it and an X/Z/XZ word on it."""
    n = draw(st.integers(2, 5))
    length = draw(st.integers(1, n - 1))
    start = draw(st.integers(0, n - length))
    word = draw(st.lists(st.sampled_from(["X", "Z", "XZ"]),
                         min_size=length, max_size=length))
    return n, tuple(range(start, start + length)), word


@st.composite
def flips_at_both_ends(draw):
    """A chain of 2-5 sites and a flip set holding both end sites, which no
    proper interval holds."""
    n = draw(st.integers(2, 5))
    inner = draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2))
    return n, [0] + [s for s, f in enumerate(inner, 1) if f] + [n - 1]


class TestLocalityAdjunction:
    """Inverting a selected state gives back an equivalent morphism, and a
    state that no proper interval holds is proven to have none."""

    MATS = {"X": SX, "Z": SZ, "XZ": SX @ SZ}

    @settings(max_examples=30, deadline=None)
    @given(proper_interval_words())
    def test_inversion_finds_an_equivalent_morphism(self, case):
        n, region, word = case
        net = z2_chain_net(n)
        rho = localized_morphism(net, region, [kron_all(*(self.MATS[w] for w in word))],
                                 "".join(word))
        result = invert_selected_state(selected_state(rho, z2_vacuum(n)), z2_vacuum(n), net)
        assert result.found and result.miss is None
        assert solve_intertwiners(rho, result.morphism)

    @settings(max_examples=30, deadline=None)
    @given(flips_at_both_ends())
    def test_flips_at_both_ends_are_excluded(self, case):
        n, flips = case
        net, vac = z2_chain_net(n), z2_vacuum(n)
        result = invert_selected_state(_flip_state(n, flips), vac, net)
        assert (result.found, result.miss, result.n_tried) == (False, "excluded", 1)


def _parent_site_order(net, sites):
    rest = [s for s in net.sites if s not in sites]
    perm = list(np.argsort(list(sites) + rest))
    return np.arange(net.total_dim).reshape([net.onsite_dim] * net.n_sites) \
        .transpose(perm).reshape(-1)


class TestReordersAgainstIndexMaps:
    """Every region's reorders, bit for bit against the index-map oracle."""

    @pytest.fixture(scope="class", params=["s3-perm-3", "z2-4"])
    def net(self, request):
        if request.param == "s3-perm-3":
            return LatticeNet(3, permutation_rep(3))
        return z2_chain_net(4)

    @staticmethod
    def regions(net):
        return enumerate_regions(net, all_subsets=True) + [net.sites]

    @staticmethod
    def oracle_trace(m, net, sites):
        k = net.onsite_dim ** len(sites)
        rest = net.total_dim // k
        back = np.argsort(_parent_site_order(net, sites))
        return np.trace(m[np.ix_(back, back)].reshape(k, rest, k, rest), axis1=1, axis2=3)

    def test_embed_and_partial_trace(self, net):
        rng = np.random.default_rng(3)
        d = net.total_dim
        for region in self.regions(net):
            k = net.onsite_dim ** len(region)
            order = _parent_site_order(net, region)
            m = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            full = np.kron(m, np.eye(d // k, dtype=complex))[np.ix_(order, order)]
            assert np.array_equal(bits(embed_factor_operator(net, region, m)),
                                  bits(full)), region
            big = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert np.array_equal(bits(dhrnet._partial_trace(big, net, region)),
                                  bits(self.oracle_trace(big, net, region))), region

    @pytest.mark.parametrize("observable", [False, True])
    def test_region_algebra_unitary(self, net, observable):
        d = net.total_dim
        for region in self.regions(net)[1:]:
            k = net.onsite_dim ** len(region)
            if observable:
                rep = tensor_power_rep(net.onsite_rep, len(region))
                factor = isotypic_decomposition(rep).observable_algebra()
            else:
                factor = full_matrix_algebra(k)
            w = np.kron(factor.unitary, np.eye(d // k, dtype=complex))
            got = region_algebra(net, region, observable=observable).unitary
            assert np.array_equal(bits(got), bits(w[_parent_site_order(net, region)])), region

    def test_dhr_check_distances(self, net):
        rng = np.random.default_rng(4)
        vac, omega = (State(_random_density(rng, net.total_dim)) for _ in range(2))
        delta = omega.density - vac.density
        want = []
        for region in enumerate_regions(net, all_subsets=True):
            comp = complement_sites(net, region)
            if not comp:
                dist = float(abs(np.trace(delta)))
            else:
                reduced = self.oracle_trace(delta, net, comp)
                rep = tensor_power_rep(net.onsite_rep, len(comp))
                averaged = groups.average(reduced, rep)
                dist = float(np.linalg.svd(averaged, compute_uv=False).sum())
            want.append((region, dist))
        assert dhr_check(omega, vac, net, all_subsets=True).distances == tuple(want)


def _fill(net):
    """Run every cached path of the net once."""
    n = net.n_sites
    vac = State(np.diag(np.eye(net.total_dim)[0]).astype(complex))
    omega = _flip_state(n, (0,))
    dhr_check(omega, vac, net, all_subsets=True)
    invert_selected_state(omega, vac, net)
    for region in enumerate_regions(net, all_subsets=True)[1:] + [net.sites]:
        haag_duality_check(net, region, observable=True)
    localized_morphism(net, [0], [SX], "f0").validate()
    net.observable_algebra()


def _cached_arrays(net):
    for key, value in net._cache.items():
        if hasattr(value, "matrices"):
            yield key, value.matrices
            if "span" in vars(value):  # the rep's cached group span
                yield ("span", key[1]), value.span
        else:
            yield key, value.unitary


class TestNetCache:
    N = 3

    @pytest.fixture(scope="class")
    def nets(self):
        nets = [z2_chain_net(self.N), LatticeNet(self.N, cyclic_rep_from_unitary(SX, 2))]
        for net in nets:
            _fill(net)
        return nets

    def test_cached_arrays_are_read_only(self, nets):
        for net in nets:
            arrays = list(_cached_arrays(net))
            # a rep and an observable unitary per site count, and the global span
            assert len(arrays) == 2 * self.N + 1
            for key, a in arrays:
                assert not a.flags.writeable, key
                with pytest.raises(ValueError):
                    a.flat[0] = a.flat[0]
            assert net.onsite_rep.matrices.flags.writeable

    def test_bounded_by_the_net(self, nets):
        n = self.N
        for net in nets:
            kinds = [key[0] if isinstance(key, tuple) else key for key in net._cache]
            assert kinds.count("rep") <= n and kinds.count("obs") <= n
            assert set(kinds) == {"rep", "obs"}
            # the group span lives on the global rep, computed once
            assert net.global_rep.span is net.global_rep.span

    def test_nets_share_no_entry(self, nets):
        a, b = nets
        for (ka, x), (kb, y) in itertools.product(_cached_arrays(a), _cached_arrays(b)):
            assert not np.shares_memory(x, y), (ka, kb)
        assert not np.array_equal(a.global_rep.matrices, b.global_rep.matrices)

    def test_equal_to_a_fresh_computation(self, nets):
        for net in nets:
            for key, value in net._cache.items():
                kind = key[0] if isinstance(key, tuple) else key
                if kind == "rep":
                    fresh = tensor_power_rep(net.onsite_rep, key[1]).matrices
                    assert np.array_equal(bits(value.matrices), bits(fresh)), key
                    if "span" in vars(value):
                        rows = la.mats_to_rows(la.orthonormalize_mats(fresh))
                        assert np.array_equal(bits(value.span), bits(rows)), key
                elif kind == "obs":
                    rep = tensor_power_rep(net.onsite_rep, key[1])
                    fresh = isotypic_decomposition(rep).observable_algebra()
                    assert value.blocks == fresh.blocks, key
                    assert np.array_equal(bits(value.unitary), bits(fresh.unitary)), key
                else:
                    raise AssertionError(f"unexpected cache entry {key}")

    def test_warm_net_answers_like_a_new_one(self, nets):
        for warm in nets:
            vac = State(np.diag(np.eye(warm.total_dim)[0]).astype(complex))
            omega = _flip_state(self.N, (1,))
            for region in enumerate_regions(warm, all_subsets=True)[1:]:
                new = LatticeNet(warm.n_sites, warm.onsite_rep)
                got, want = (region_algebra(net, region, observable=True)
                             for net in (warm, new))
                assert np.array_equal(bits(got.unitary), bits(want.unitary))
            new = LatticeNet(warm.n_sites, warm.onsite_rep)
            assert dhr_check(omega, vac, warm) == dhr_check(omega, vac, new)
            new = LatticeNet(warm.n_sites, warm.onsite_rep)
            assert invert_selected_state(omega, vac, warm).distance == \
                invert_selected_state(omega, vac, new).distance
