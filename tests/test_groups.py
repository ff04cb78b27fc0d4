import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sectorlab import _linalg as la
from sectorlab import groups
from sectorlab.algebra import commutant, generate_algebra
from sectorlab.groups import (
    FiniteGroup,
    UnitaryRep,
    average,
    builtin_group,
    cyclic_group,
    cyclic_rep_from_unitary,
    intertwiner_space,
    isotypic_decomposition,
    quaternion_group,
    regular_rep,
    rep_from_matrices,
    symmetric_group,
    tensor_power_rep,
    trivial_rep,
)

from sectorlab.config import UNITARY_TOL

from conftest import (
    SX, SY, SZ, I2, assert_observable_generators, assert_same_span, bits, kron_all,
    nullspace, permutation_rep, span_residual,
)


def z2_rep():
    return cyclic_rep_from_unitary(SZ, 2)


def kronecker_intertwiners(rep1, rep2):
    """Oracle: nullspace of the stacked Kronecker system S U1(g) = U2(g) S.

    Rows are the row-major vectorisations of the solutions S (d2 x d1).
    """
    d1, d2 = rep1.dim, rep2.dim
    system = np.concatenate([
        np.kron(np.eye(d2), u1.T) - np.kron(u2, np.eye(d1))
        for u1, u2 in zip(rep1.matrices, rep2.matrices)
    ])
    return nullspace(system)


def block_slices(dec):
    """The column slice of W that each sector occupies, in label order."""
    ends = np.cumsum([m * dv for m, dv in zip(dec.mult_dims, dec.irrep_dims)])
    return [slice(end - m * dv, end) for end, m, dv in zip(ends, dec.mult_dims, dec.irrep_dims)]


class TestFiniteGroup:
    @pytest.mark.parametrize("group", [
        cyclic_group(1), cyclic_group(2), cyclic_group(7),
        symmetric_group(3), quaternion_group(),
    ])
    def test_group_laws(self, group):
        group.validate()

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            FiniteGroup(np.array([[0, 1], [0, 1]])).validate()

    def test_associativity_checked_on_every_triple_above_order_64(self):
        # an intercalate of Z_128 (rows 1 and 65, columns 6 and 70) swapped:
        # still a Latin square with identity 0 and inverses, but not a group,
        # and no triple of a 2000-triple sample need hit its few failures
        n = 128
        idx = np.arange(n)
        table = (idx[:, None] + idx[None, :]) % n
        rows, cols = np.ix_([1, 1 + n // 2], [6, 6 + n // 2])
        table[rows, cols] = table[rows, cols][::-1]
        bad = FiniteGroup(table)
        assert bad.identity == 0 and np.all(table[idx, bad.inverses] == 0)
        with pytest.raises(ValueError, match=r"associativity fails at \(\d+,\d+,\d+\)"):
            bad.validate()
        cyclic_group(n).validate()

    def test_orders_above_the_cap_rejected_before_any_table(self):
        # a table of 200000**2 entries would be built first; the child runs
        # under an address-space cap and a time limit
        child = ("from sectorlab.groups import builtin_group\n"
                 "try:\n    builtin_group('cyclic:200000')\n"
                 "except ValueError as err:\n    print(err)\n")
        cap = 1 << 30

        def limit():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                              text=True, timeout=60, preexec_fn=limit, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "group order 200000 exceeds the cap 256, the " \
                              "largest regular representation held\n"
        assert builtin_group("symmetric:5").order == 120
        builtin_group("cyclic:256").validate()
        with pytest.raises(ValueError, match="group order 257 exceeds the cap 256"):
            cyclic_group(257).validate()

    def test_conjugacy_class_counts(self):
        assert len(cyclic_group(5).conjugacy_classes()) == 5
        assert len(symmetric_group(3).conjugacy_classes()) == 3
        assert len(quaternion_group().conjugacy_classes()) == 5

    def test_builtin_lookup(self):
        assert builtin_group("cyclic:3").order == 3
        assert builtin_group("symmetric:3").order == 6
        assert builtin_group("quaternion:8").order == 8
        with pytest.raises(ValueError):
            builtin_group("lie:su2")
        # only the families that take an order sit in the table
        assert set(groups.BUILTIN_GROUPS) == {"cyclic", "symmetric"}
        assert builtin_group("quaternion").name == "quaternion:8"
        with pytest.raises(ValueError, match="only quaternion:8"):
            builtin_group("quaternion:4")
        with pytest.raises(ValueError, match="needs an order"):
            builtin_group("cyclic")


class TestRepresentations:
    def test_validation_catches_non_homomorphism(self):
        bad = rep_from_matrices(cyclic_group(2), [I2, np.diag([1, 1j])])
        with pytest.raises(ValueError):
            bad.validate()

    def test_regular_rep_is_valid(self):
        regular_rep(symmetric_group(3)).validate()

    def test_tensor_power(self):
        rep = tensor_power_rep(z2_rep(), 3)
        rep.validate()
        assert rep.dim == 8
        assert np.allclose(rep.matrices[1], kron_all(SZ, SZ, SZ))
        # the batched product is bit for bit one np.kron per group element
        w = np.exp(2j * np.pi / 3)
        for onsite in (z2_rep(), regular_rep(symmetric_group(3)), permutation_rep(3),
                       cyclic_rep_from_unitary(np.diag([1, w, w * w]), 3)):
            want = onsite.matrices
            for k in (1, 2, 3):
                got = tensor_power_rep(onsite, k).matrices
                assert np.array_equal(bits(got), bits(want)), (onsite.group.name, k)
                want = np.array([np.kron(a, b) for a, b in zip(want, onsite.matrices)])

    def test_tensor_power_of_no_sites_is_trivial(self):
        onsite = z2_rep()
        rep = tensor_power_rep(onsite, 0)
        assert rep.group is onsite.group and rep.dim == 1
        assert np.array_equal(rep.matrices, np.ones((2, 1, 1)))

    def test_tensor_power_rejects_negative_sites(self):
        with pytest.raises(ValueError, match="non-negative"):
            tensor_power_rep(z2_rep(), -1)


class TestAverage:
    def test_identity_is_fixed(self):
        assert np.allclose(average(I2, z2_rep()), I2)

    def test_sx_averages_to_zero(self):
        # (sx + sz sx sz) / 2 = 0
        assert np.allclose(average(SX, z2_rep()), 0.0)

    def test_invariant_untouched(self):
        assert np.allclose(average(SZ, z2_rep()), SZ)

    def test_conditional_expectation_properties(self, rng):
        rep = tensor_power_rep(z2_rep(), 2)
        obs = isotypic_decomposition(rep).observable_algebra()
        for _ in range(100):
            f = la.random_hermitian(rng, 4)
            mf = average(f, rep)
            # onto the observables, and idempotent
            assert span_residual(obs.basis, mf) <= 1e-9
            assert np.linalg.norm(average(mf, rep) - mf) <= 1e-9
            # positive
            sq = f @ f.conj().T
            assert np.linalg.eigvalsh(average(sq, rep)).min() >= -1e-10
            # bimodule over invariants
            a = average(la.random_hermitian(rng, 4), rep)
            b = average(la.random_hermitian(rng, 4), rep)
            res = average(a @ f @ b, rep) - a @ mf @ b
            assert np.linalg.norm(res) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            average(np.eye(3), z2_rep())

    def test_stack_matches_the_defining_sum(self, rng):
        rep = regular_rep(symmetric_group(3))
        fs = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
        direct = np.einsum("gij,ajk,glk->ail", rep.matrices, fs,
                           rep.matrices.conj()) / 6
        for f, mf in zip(fs, direct):
            assert np.abs(average(f, rep) - mf).max() <= 1e-14


class TestEndomorphismFailure:
    """One test decides whether a multiplet implements a unital
    *-endomorphism of the observables: unitality, then multiplicativity
    (the residual at g = e), then invariance (every residual)."""

    rep = tensor_power_rep(z2_rep(), 2)

    def failure(self, *mats):
        return groups.endomorphism_failure(np.array(mats), self.rep)

    def test_unitary_flip_passes(self):
        assert self.failure(kron_all(SX, I2)) is None
        assert self.failure(np.eye(4)) is None

    def test_each_check_names_itself(self):
        # 2 X keeps every residual at zero but maps 1 to 4
        assert groups.endomorphism_residuals([2 * kron_all(SX, I2)], self.rep).max() == 0
        assert "not unital" in self.failure(2 * kron_all(SX, I2))
        p0 = kron_all(np.diag([1.0, 0.0]), I2)
        assert "not multiplicative" in self.failure(p0, np.eye(4) - p0)
        assert "leaves the observable algebra" in self.failure(kron_all((SX + SZ) / np.sqrt(2), I2))

    def test_nan_fails(self):
        bad = kron_all(SX, I2)
        bad[0, 1] = np.nan
        assert self.failure(bad) is not None

    def test_factors_agree_with_the_embedded_multiplet(self):
        # psi = f (x) 1 on a 2-site chain, read on its first site's legs
        legs = (z2_rep(), z2_rep())
        kinds = set()
        for f in (SX, SZ, 2 * SX, (SX + SZ) / np.sqrt(2), np.diag([1.0, 0.0])):
            on_legs = groups.endomorphism_failure([f], self.rep, legs)
            embedded = self.failure(kron_all(f, I2))
            # the same verdict and the same failing check; values may round apart
            kind = [None if r is None else r.split(" (")[0] for r in (on_legs, embedded)]
            assert kind[0] == kind[1], f
            kinds.add(kind[0])
        assert len(kinds) == 3


class TestIsotypicDecomposition:
    def test_trivial_group_single_label(self):
        dec = isotypic_decomposition(trivial_rep(cyclic_group(1), 2))
        assert dec.labels == ("gamma0",)
        assert dec.mult_dims == (2,)
        assert dec.irrep_dims == (1,)

    def test_z2_diagonal_rep(self):
        dec = isotypic_decomposition(z2_rep())
        assert dec.n_sectors == 2
        assert dec.mult_dims == (1, 1)
        assert dec.irrep_dims == (1, 1)
        # canonical order: trivial irrep first
        chars = dec.characters()
        assert np.allclose(chars[0], [1, 1])
        assert np.allclose(chars[1], [1, -1])

    def test_z2_chain_eigenspace_oracle(self):
        rep = tensor_power_rep(z2_rep(), 2)
        dec = isotypic_decomposition(rep)
        assert dec.mult_dims == (2, 2)
        assert dec.irrep_dims == (1, 1)
        evals = np.linalg.eigvalsh(kron_all(SZ, SZ).real)
        assert sorted(np.sum(evals == v) for v in (-1, 1)) == [2, 2]
        assert dec.reconstruction_residual(rep) <= 1e-8
        # the observables U' against the nullspace of U (x) conj(U) - 1, and
        # their commutant against the group algebra U''
        obs = dec.observable_algebra()
        obs.validate()
        u = kron_all(SZ, SZ)
        assert obs.dim == nullspace(np.kron(u, u.conj()) - np.eye(16)).shape[0] == 8
        comm, group_alg = commutant(obs), generate_algebra(list(rep.matrices))
        assert comm.dim == group_alg.dim
        assert_same_span(la.mats_to_rows(comm.basis), la.mats_to_rows(group_alg.basis))

    def test_s3_regular_rep(self):
        rep = regular_rep(symmetric_group(3))
        dec = isotypic_decomposition(rep)
        assert dec.irrep_dims == (1, 1, 2)
        assert dec.mult_dims == (1, 1, 2)
        assert dec.reconstruction_residual(rep) <= 1e-8
        assert sum(m * v for m, v in zip(dec.mult_dims, dec.irrep_dims)) == 6

    def test_quaternion_regular_rep(self):
        rep = regular_rep(quaternion_group())
        dec = isotypic_decomposition(rep)
        assert sorted(dec.irrep_dims) == [1, 1, 1, 1, 2]
        assert dec.reconstruction_residual(rep) <= 1e-8

    def test_projections_partition_unity(self):
        rep = tensor_power_rep(z2_rep(), 3)
        dec = isotypic_decomposition(rep)
        assert np.allclose(dec.projections.sum(axis=0), np.eye(8), atol=1e-10)
        w = dec.unitary
        assert np.linalg.norm(w @ la.dagger(w) - np.eye(8)) <= 1e-10

    @pytest.mark.parametrize("make", [
        lambda: regular_rep(symmetric_group(3)),
        lambda: regular_rep(quaternion_group()),
        lambda: tensor_power_rep(permutation_rep(3), 2),
        lambda: tensor_power_rep(z2_rep(), 3),
        lambda: regular_rep(symmetric_group(4)),
    ], ids=["s3-regular", "q8-regular", "s3-permutation-2", "z2-3", "s4-regular"])
    def test_observable_algebra_matches_matrix_unit_loop(self, make):
        # reference: W (E_ab (x) 1_V) W* / sqrt(dim V), one matrix unit at a time
        rep = make()
        dec = isotypic_decomposition(rep)
        d, w = dec.ambient_dim, dec.unitary
        expected = []
        for sl, m, dv in zip(block_slices(dec), dec.mult_dims, dec.irrep_dims):
            for a in range(m):
                for b in range(m):
                    unit = np.zeros((m, m))
                    unit[a, b] = 1.0
                    blk = np.zeros((d, d), dtype=complex)
                    blk[sl, sl] = np.kron(unit, np.eye(dv)) / np.sqrt(dv)
                    expected.append(w @ blk @ la.dagger(w))
        obs = dec.observable_algebra()
        assert np.abs(obs.basis - np.array(expected)).max() <= 1e-14
        assert_observable_generators(obs, rep)

    def test_inequivalent_blocks_have_no_intertwiners(self):
        rep = regular_rep(symmetric_group(3))
        dec = isotypic_decomposition(rep)
        g = dec.group
        for i in range(dec.n_sectors):
            for j in range(dec.n_sectors):
                r1 = rep_from_matrices(g, dec.irreps[i])
                r2 = rep_from_matrices(g, dec.irreps[j])
                dim = len(intertwiner_space(r1, r2))
                assert dim == (1 if i == j else 0)


class TestIntertwiners:
    def test_schur_scalar_for_irreducible(self):
        sign = rep_from_matrices(cyclic_group(2), [np.eye(1), -np.eye(1)])
        space = intertwiner_space(sign, sign)
        assert len(space) == 1

    def test_disjoint_reps_empty(self):
        triv = trivial_rep(cyclic_group(2))
        sign = rep_from_matrices(cyclic_group(2), [np.eye(1), -np.eye(1)])
        assert intertwiner_space(triv, sign) == []

    def test_regular_rep_self_intertwiners(self):
        reg = regular_rep(cyclic_group(2))
        space = intertwiner_space(reg, reg)
        assert len(space) == 2
        for s in space:
            for g in range(2):
                assert np.linalg.norm(
                    s @ reg.matrices[g] - reg.matrices[g] @ s) <= 1e-10

    @pytest.mark.parametrize("name", [
        "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "symmetric:3", "quaternion:8",
    ])
    def test_matches_kronecker_nullspace(self, name):
        # the regular representation, its irreps and every mixed pair
        group = builtin_group(name)
        reg = regular_rep(group)
        reps = [reg] + [rep_from_matrices(group, irr)
                        for irr in isotypic_decomposition(reg).irreps]
        for r1 in reps:
            for r2 in reps:
                space = intertwiner_space(r1, r2)
                rows = np.reshape(space, (len(space), r2.dim * r1.dim))
                assert_same_span(rows, kronecker_intertwiners(r1, r2))
                assert np.allclose(rows @ rows.conj().T, np.eye(len(space)), atol=1e-10)
                for s in space:
                    assert max(np.linalg.norm(s @ u1 - u2 @ s) for u1, u2
                               in zip(r1.matrices, r2.matrices)) <= 1e-10

    def test_regular_s5(self):
        reg = regular_rep(symmetric_group(5))
        space = np.array(intertwiner_space(reg, reg))
        rows = space.reshape(len(space), -1)
        assert len(space) == 120
        assert np.allclose(rows @ rows.conj().T, np.eye(120), atol=1e-10)
        # U(g) e_h = e_{gh}, so S U(g) = U(g) S reads S[gh, gk] = S[h, k];
        # rows are the entries (h, k), columns the 120 solutions
        entries = space.transpose(1, 2, 0).reshape(-1, 120)
        for p in reg.group.table:
            moved = entries[(p[:, None] * 120 + p).ravel()]
            assert np.abs((moved - entries).view(float)).max() <= 1e-10

    def test_tall_system_under_memory_cap(self):
        # Regular S4 must fit under a 2.5 GB address-space cap.
        pytest.importorskip("resource")
        script = (
            "import resource\n"
            "cap = 2500 << 20\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "from sectorlab.groups import builtin_group, intertwiner_space, regular_rep\n"
            "rep = regular_rep(builtin_group('symmetric:4'))\n"
            "print(len(intertwiner_space(rep, rep)))\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "24"

    def test_group_mismatch_rejected(self):
        with pytest.raises(ValueError):
            intertwiner_space(trivial_rep(cyclic_group(2)),
                              trivial_rep(cyclic_group(3)))


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Table of G1 x G2 on the index pairs (a, b) -> a * |G2| + b."""
    t1, t2 = g1.table, g2.table
    n2 = g2.order
    table = np.array([
        [t1[a1, a2] * n2 + t2[b1, b2] for a2 in range(g1.order) for b2 in range(n2)]
        for a1 in range(g1.order) for b1 in range(n2)
    ])
    return FiniteGroup(table)


def _clock_rep():
    w = np.exp(2j * np.pi / 3)
    return cyclic_rep_from_unitary(np.diag([1, w, w * w]), 3)


def dihedral_group(n: int) -> FiniteGroup:
    """D_n on the indices k + n f for r^k s^f, with s r s = r^-1."""
    table = np.array([
        [(a + (-1) ** f * b) % n + n * ((f + g) % 2)
         for g in range(2) for b in range(n)]
        for f in range(2) for a in range(n)
    ])
    return FiniteGroup(table, name=f"dihedral:{n}")


def quaternion_spin_rep():
    """Q8's 2-dimensional irrep, in the element order of ``quaternion_group``."""
    units = [I2, 1j * SX, 1j * SY, 1j * SZ]
    return rep_from_matrices(quaternion_group(), [s * u for u in units for s in (1, -1)])


#: representations containing every irrep of their group, several with
#: non-real characters
COMPLETE_REPS = (
    [lambda n=n: regular_rep(cyclic_group(n)) for n in range(3, 13)]
    + [_clock_rep,
       lambda: regular_rep(direct_product(symmetric_group(3), cyclic_group(3))),
       lambda: regular_rep(symmetric_group(4)),
       lambda: regular_rep(quaternion_group()),
       lambda: regular_rep(dihedral_group(5))]
)

#: representations whose irreps repeat with multiplicities other than d_gamma
MULTIPLICITY_REPS = (
    [lambda n=n, k=k: tensor_power_rep(permutation_rep(n), k)
     for n in (3, 4) for k in (2, 3)]
    + [lambda k=k: tensor_power_rep(quaternion_spin_rep(), k) for k in (3, 4)]
)


class TestIsotypicProperties:
    def test_direct_product_is_a_group(self):
        group = direct_product(symmetric_group(3), cyclic_group(3))
        group.validate()
        assert len(group.conjugacy_classes()) == 9

    @settings(max_examples=40, deadline=None)
    @given(make=st.sampled_from(COMPLETE_REPS), seed=st.integers(0, 10_000))
    # regular rep of Z_8 whose K has two eigenvalues 7.5e-7 * |K| apart
    @example(make=COMPLETE_REPS[5], seed=5391)
    def test_every_irrep_resolved(self, make, seed):
        rep = make()
        dec = isotypic_decomposition(rep, seed=seed)
        group = rep.group
        assert dec.n_sectors == len(group.conjugacy_classes())
        assert sum(d * d for d in dec.irrep_dims) == group.order
        assert dec.irrep_dims[0] == 1
        assert np.allclose(dec.characters()[0], 1.0)
        assert dec.reconstruction_residual(rep) <= 1e-10

    def test_dihedral_group_is_a_group(self):
        group = dihedral_group(5)
        group.validate()
        assert len(group.conjugacy_classes()) == 4

    @settings(max_examples=30, deadline=None)
    @given(make=st.sampled_from(MULTIPLICITY_REPS), seed=st.integers(0, 10_000))
    def test_character_oracle(self, make, seed):
        rep = make()
        dec = isotypic_decomposition(rep, seed=seed)
        n = rep.group.order
        chars = dec.characters()
        # Schur orthogonality of the returned irreps
        assert np.allclose(chars.conj() @ chars.T, n * np.eye(dec.n_sectors), atol=1e-9)
        # multiplicities from the character of the whole representation
        total = np.trace(rep.matrices, axis1=1, axis2=2)
        assert np.allclose(chars.conj() @ total / n, dec.mult_dims, atol=1e-9)
        assert sum(m * v for m, v in zip(dec.mult_dims, dec.irrep_dims)) == rep.dim
        assert dec.reconstruction_residual(rep) <= 1e-10


class TestIsotypicWithoutSolves:
    def test_no_commutant_or_intertwiner_solve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the decomposition solved a linear system")

        monkeypatch.setattr(la, "commutant_basis", forbidden)
        monkeypatch.setattr(groups, "_intertwiners", forbidden)
        for rep in (regular_rep(symmetric_group(4)), regular_rep(quaternion_group()),
                    tensor_power_rep(z2_rep(), 4)):
            dec = isotypic_decomposition(rep)
            assert dec.reconstruction_residual(rep) <= 1e-10

    def test_regular_s5(self):
        rep = regular_rep(symmetric_group(5))
        dec = isotypic_decomposition(rep)
        assert dec.irrep_dims == (1, 1, 4, 4, 5, 5, 6)
        assert dec.mult_dims == dec.irrep_dims
        assert dec.reconstruction_residual(rep) <= 1e-10

    def test_eight_site_parity(self):
        rep = tensor_power_rep(z2_rep(), 8)
        dec = isotypic_decomposition(rep)
        assert dec.mult_dims == (128, 128)
        assert dec.irrep_dims == (1, 1)
        assert dec.reconstruction_residual(rep) <= 1e-10


def dense_reconstruction_residual(dec, rep):
    """Oracle: max_g ||U(g) - W B(g) W*||_F, with B(g) the direct sum of
    1_mult (x) irrep(g) formed as one d x d matrix."""
    w, res = dec.unitary, 0.0
    for g in range(rep.group.order):
        b = np.zeros_like(w)
        for sl, m, irr in zip(block_slices(dec), dec.mult_dims, dec.irreps):
            b[sl, sl] = np.kron(np.eye(m), irr[g])
        res = max(res, float(np.linalg.norm(rep.matrices[g] - w @ b @ la.dagger(w))))
    return res


class TestReconstructionResidual:
    """The larger of ||W W* - 1||_F and max_g ||U(g) W - W B(g)||_F,
    against the dense formula."""

    PERTURBED = pytest.mark.parametrize("make", [
        lambda: tensor_power_rep(z2_rep(), 3),
        lambda: regular_rep(symmetric_group(4)),
        lambda: tensor_power_rep(permutation_rep(3), 2),
        lambda: tensor_power_rep(quaternion_spin_rep(), 3),
    ], ids=["z2-3", "s4-regular", "s3-permutation-2", "q8-spin-3"])

    @pytest.mark.parametrize("make", COMPLETE_REPS + MULTIPLICITY_REPS)
    def test_agrees_with_the_dense_formula(self, make):
        rep = make()
        dec = isotypic_decomposition(rep)
        new, dense = dec.reconstruction_residual(rep), dense_reconstruction_residual(dec, rep)
        assert new <= 1e-12 and abs(new - dense) <= 1e-13

    @PERTURBED
    def test_a_moved_phase_or_swapped_columns_shows_by_both_routes(self, make):
        rep = make()
        dec = isotypic_decomposition(rep)
        # the last irrep at a non-identity element, its phase moved by 1e-6
        g = (rep.group.identity + 1) % rep.group.order
        moved = dec.irreps[-1].copy()
        moved[g] *= np.exp(1e-6j)
        w = dec.unitary.copy()
        w[:, [0, -1]] = w[:, [-1, 0]]  # the first and the last sector's columns
        for bad, floor in ((dataclasses.replace(dec, irreps=dec.irreps[:-1] + (moved,)), 9e-7),
                           (dataclasses.replace(dec, unitary=w), 0.5)):
            new, dense = bad.reconstruction_residual(rep), dense_reconstruction_residual(bad, rep)
            assert new >= floor and dense >= floor
            assert abs(new - dense) <= 1e-13 * max(1.0, dense)

    @PERTURBED
    def test_a_non_unitary_intertwiner_shows_by_both_routes(self, make):
        # each W below still intertwines U with the block representation,
        # so only the unitarity of W can tell it from a decomposition
        rep = make()
        dec = isotypic_decomposition(rep)
        sl = block_slices(dec)[-1]
        dv = dec.irrep_dims[-1]
        scaled, doubled = dec.unitary.copy(), dec.unitary.copy()
        scaled[:, sl] *= 1.5  # one sector's columns scaled
        doubled[:, sl.start:sl.start + dv] = doubled[:, sl.stop - dv:sl.stop]  # a copy twice
        if dec.mult_dims[-1] == 1:
            doubled[:, sl] = 0.0  # a sector with one copy is dropped instead
        for w in (scaled, doubled, np.zeros_like(dec.unitary)):
            bad = dataclasses.replace(dec, unitary=w)
            new, dense = bad.reconstruction_residual(rep), dense_reconstruction_residual(bad, rep)
            assert new >= 0.5 and dense >= 0.5


def dense_homomorphism_defects(rep):
    """Oracle: ||U(g) U(h) - U(gh)||_F for every pair (g, h), by dense products."""
    m, t, n = rep.matrices, rep.group.table, rep.group.order
    return np.array([[la.hs_norm(m[g] @ m[h] - m[t[g, h]]) for h in range(n)] for g in range(n)])


def dense_verdict(rep):
    """The dense all-pairs check's message: its first failing pair, or None."""
    bad = np.argwhere(~(dense_homomorphism_defects(rep) <= UNITARY_TOL * rep.dim))
    return None if len(bad) == 0 else "not a homomorphism at ({},{})".format(*bad[0])


class TestMonomialValidate:
    """A monomial rep's homomorphism law, checked by index, gives the dense
    check's verdict and first failing pair."""

    REPS = {
        "cyclic6-regular": lambda: regular_rep(cyclic_group(6)),
        "s3-regular": lambda: regular_rep(symmetric_group(3)),
        "q8-spin-2": lambda: tensor_power_rep(quaternion_spin_rep(), 2),
        "clock": _clock_rep,
    }

    @pytest.mark.parametrize("factor", [0.99, 1.01])
    @pytest.mark.parametrize("name", list(REPS))
    def test_a_moved_phase_at_the_cut(self, name, factor):
        rep = self.REPS[name]()
        cut = UNITARY_TOL * rep.dim

        def moved(angle):
            mats = rep.matrices.copy()
            mats[1, 0, np.flatnonzero(mats[1, 0])] *= np.exp(1j * angle)
            return UnitaryRep(rep.group, mats)

        # the largest defect is linear in the angle: scale it to factor * cut
        probe = 1e-6
        angle = factor * cut * probe / dense_homomorphism_defects(moved(probe)).max()
        bad = moved(angle)
        assert bad.monomial is not None
        assert dense_homomorphism_defects(bad).max() / cut == pytest.approx(factor, rel=1e-3)
        want = dense_verdict(bad)
        assert (want is None) == (factor < 1)
        if want is None:
            bad.validate()
        else:
            with pytest.raises(ValueError, match=re.escape(want)):
                bad.validate()

    @pytest.mark.parametrize("name", list(REPS))
    def test_two_columns_swapped(self, name):
        rep = self.REPS[name]()
        mats = rep.matrices.copy()
        mats[1][:, [0, 1]] = mats[1][:, [1, 0]]
        bad = UnitaryRep(rep.group, mats)
        assert bad.monomial is not None
        want = dense_verdict(bad)
        assert want is not None
        with pytest.raises(ValueError, match=re.escape(want)):
            bad.validate()

    def test_non_monomial_keeps_the_dense_check(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        rep = regular_rep(symmetric_group(3))
        mats = q @ rep.matrices @ la.dagger(q)
        mats[1] = mats[1] @ np.diag(np.exp(1j * np.array([0, 0, 0, 0, 0, 2e-9])))
        bad = UnitaryRep(rep.group, mats)
        assert bad.monomial is None
        want = dense_verdict(bad)
        assert want is not None
        with pytest.raises(ValueError, match=re.escape(want)):
            bad.validate()


def _dense_average(f, rep):
    out = np.zeros_like(f)
    for u in rep.matrices:
        out += u @ f @ la.dagger(u)
    return out / rep.group.order


def _phased_rep(rep, rng):
    """D U(g) D* for a random diagonal unitary D: monomial, random phases."""
    phases = np.exp(2j * np.pi * rng.random(rep.dim))
    return rep_from_matrices(rep.group, phases[:, None] * rep.matrices * phases.conj())


class TestIndexKernels:
    """Monomial reps act by gathers; every result matches the dense product."""

    #: entries real 0 or +-1: the gathers copy values, so results are bit-equal
    REAL = {
        "permutation S3": lambda: permutation_rep(3),
        "regular S4": lambda: regular_rep(symmetric_group(4)),
        "regular S5": lambda: regular_rep(symmetric_group(5)),  # several batches
        "sigma_z chain, 3 sites": lambda: tensor_power_rep(z2_rep(), 3),
        "sigma_z chain, 8 sites": lambda: tensor_power_rep(z2_rep(), 8),
    }

    def complex_reps(self, rng):
        w = np.exp(2j * np.pi / 3)
        return {
            "clock:3": cyclic_rep_from_unitary(np.diag([1, w, w * w]), 3),
            "quaternion spin^2": tensor_power_rep(quaternion_spin_rep(), 2),
            "random phases, regular Q8": _phased_rep(regular_rep(quaternion_group()), rng),
            "random phases, sigma_z^5": _phased_rep(tensor_power_rep(z2_rep(), 5), rng),
        }

    def kernels(self, rep, rng):
        d = rep.dim
        f = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        e = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
        dense = [_dense_average(f, rep), rep.matrices @ e]
        indexed = [average(f, rep), rep.images(e)]
        if rep.monomial is not None:
            dense.append(np.array([u @ f @ la.dagger(u) for u in rep.matrices]))
            indexed.append(rep._conjugates_by_index(slice(None), f))
        return dense, indexed

    @pytest.mark.parametrize("name", list(REAL))
    def test_real_entries_bit_equal(self, name, rng):
        rep = self.REAL[name]()
        assert rep.monomial is not None
        for want, got in zip(*self.kernels(rep, rng)):
            assert np.array_equal(bits(got), bits(want)), name

    def test_complex_phases_within_rounding(self, rng):
        for name, rep in self.complex_reps(rng).items():
            rep.validate()
            assert rep.monomial is not None, name
            for want, got in zip(*self.kernels(rep, rng)):
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), name

    def test_non_monomial_keeps_the_dense_products(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a non-monomial rep was acted on by index")

        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        reg = regular_rep(symmetric_group(3))
        tiny = reg.matrices.copy()
        tiny[1, 0, 5] = 1e-300  # one entry off the permutation pattern
        reps = [rep_from_matrices(reg.group, q @ reg.matrices @ la.dagger(q)),
                rep_from_matrices(reg.group, tiny)]
        monkeypatch.setattr(groups.UnitaryRep, "_conjugates_by_index", forbidden)
        for rep in reps:
            assert rep.monomial is None
            for want, got in zip(*self.kernels(rep, rng)):
                assert np.array_equal(bits(got), bits(want))


def _parent_character_sort_key(irrep):
    """The sort key as it was: one np.trace per group element."""
    chars = [np.trace(u) for u in irrep]
    return tuple((-round(float(c.real), 9), -round(float(c.imag), 9)) for c in chars)


class TestCharacterSortKey:
    BUILTIN = ["cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
               "symmetric:1", "symmetric:2", "symmetric:3", "symmetric:4", "symmetric:5",
               "quaternion:8"]

    def assert_same_keys(self, rep, seeds):
        for seed in seeds:
            dec = isotypic_decomposition(rep, seed=seed)
            for irrep in dec.irreps:
                assert groups._character_sort_key(irrep) == _parent_character_sort_key(irrep)

    @pytest.mark.parametrize("name", BUILTIN)
    def test_regular_reps_of_the_builtin_groups(self, name):
        self.assert_same_keys(regular_rep(builtin_group(name)), range(3))

    def test_character_oracle_inputs(self):
        for make in MULTIPLICITY_REPS:
            self.assert_same_keys(make(), range(3))
