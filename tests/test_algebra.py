import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sectorlab import _linalg as la
from sectorlab.algebra import (
    CentralProjectionError,
    DimensionCapError,
    GenerationError,
    OperatorAlgebra,
    State,
    center,
    commutant,
    full_matrix_algebra,
    generate_algebra,
    minimal_central_projections,
    scalar_algebra,
    state_distance_mod,
    vector_state,
)

from sectorlab.dhrnet import LatticeNet, haag_duality_check, region_algebra
from sectorlab.groups import (
    average, builtin_group, fixed_point_algebra, regular_rep, tensor_power_rep,
)
from sectorlab.models import z2_chain_net, z2_flip_morphism, z2_onsite_rep, z2_vacuum
from sectorlab.sectors import decompose_sectors, identity_multiplet, k_map

from conftest import (
    SX, SZ, I2, assert_same_span, kron_all, peak_mb, permutation_rep, span_residual,
)


def closure_dim_bruteforce(generators, include_unit=True):
    """Independent oracle: iterate products, measure span rank by SVD."""
    if not generators:
        return 1 if include_unit else 0
    d = generators[0].shape[0]
    mats = [np.asarray(g, dtype=complex) for g in generators]
    mats += [m.conj().T for m in mats]
    if include_unit:
        mats.append(np.eye(d, dtype=complex))

    def rank(ms):
        stack = np.array([m.reshape(-1) for m in ms])
        s = np.linalg.svd(stack, compute_uv=False)
        return int(np.sum(s > 1e-9 * s[0]))

    r = rank(mats)
    while True:
        prods = [a @ b for a in mats for b in mats]
        mats = mats + prods
        r2 = rank(mats)
        if r2 == r:
            return r
        r = r2
        # keep the list bounded: an SVD basis spans the same space
        stack = np.array([m.reshape(-1) for m in mats])
        _, s, vh = np.linalg.svd(stack, full_matrices=False)
        keep = vh[: int(np.sum(s > 1e-9 * s[0]))]
        mats = [row.reshape(d, d) for row in keep]


def commutant_entrywise(basis, d):
    """Independent oracle: defining equations on matrix units, no kron."""
    rows = []
    for b in basis:
        for i in range(d):
            for j in range(d):
                row = np.zeros(d * d, dtype=complex)
                for k in range(d):
                    row[i * d + k] += b[k, j]
                    row[k * d + j] -= b[i, k]
                rows.append(row)
    _, s, vh = np.linalg.svd(np.array(rows))
    rank = int(np.sum(s > 1e-9 * max(s[0], 1.0)))
    return vh[rank:].conj()


def block_algebra(blocks, seed):
    """Basis and two generators of V (+_i M_k (x) 1_m) V* for a seeded unitary V.

    ``blocks`` lists (k, m) pairs; two generic elements generate the algebra.
    """
    rng = np.random.default_rng(seed)
    d = sum(k * m for k, m in blocks)
    v, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    basis, gens = [], [np.zeros((d, d), dtype=complex) for _ in range(2)]
    off = 0
    for k, m in blocks:
        sl = slice(off, off + k * m)
        for a in range(k):
            for b in range(k):
                blk = np.zeros((d, d), dtype=complex)
                blk[sl, sl] = np.kron(np.outer(np.eye(k)[a], np.eye(k)[b]), np.eye(m))
                basis.append(v @ blk @ v.conj().T / np.sqrt(m))
        for g in gens:
            x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            blk = np.zeros((d, d), dtype=complex)
            blk[sl, sl] = np.kron(x, np.eye(m))
            g += v @ blk @ v.conj().T
        off += k * m
    return d, np.array(basis), tuple(gens)


class TestGenerateAlgebra:
    def test_empty_generators_give_scalars(self):
        alg = generate_algebra([])
        assert alg.dim == 1
        assert alg.contains(np.eye(1))

    def test_paulis_generate_full_m2(self):
        expected = closure_dim_bruteforce([SX, SZ])
        alg = generate_algebra([SX, SZ])
        assert expected == 4
        assert alg.dim == expected
        alg.validate()

    def test_diagonal_generator(self):
        expected = closure_dim_bruteforce([np.diag([1.0, -1.0]).astype(complex)])
        alg = generate_algebra([np.diag([1.0, -1.0]).astype(complex)])
        assert alg.dim == expected == 2

    def test_zz_span(self):
        zz = kron_all(SZ, SZ)
        assert generate_algebra([zz]).dim == closure_dim_bruteforce([zz]) == 2

    def test_near_unit_generates_scalars(self):
        # the seed's second singular value, about 2.4e-10, is under the span
        # rank cut (1e-9 times sigma_max, about 2.4e-9), so the span of
        # {near, 1, near*} is C1 and so is S''
        near = np.diag([1.0, 1.0 + 3e-10]).astype(complex)
        alg = generate_algebra([near])
        assert alg.dim == 1
        assert alg.contains(np.eye(2))

    @pytest.mark.parametrize("gens", [
        [np.diag([1.0, 1.0 + 5e-9]).astype(complex)],
        [np.diag([1.0, 2.0]).astype(complex), 1e-5 * SX],
        [np.diag([1.0, 2.0]).astype(complex), 1e-8 * SX],
        [np.diag([0.0, 5e-9, 1.0]).astype(complex)],
        [np.diag([0.0, 2e-8, 1.0]).astype(complex)],
        [np.diag([2.4e-5, 1.0], 1).astype(complex)],
        [np.diag([1e-8, 1.0], 1).astype(complex)],
        [la.random_hermitian(np.random.default_rng(0), 3),
         1e4 * la.random_hermitian(np.random.default_rng(1), 3)],
    ], ids=["near-unit", "small-x-1e-5", "small-x-1e-8", "split-5e-9",
            "split-2e-8", "shift-2.4e-5", "shift-1e-8", "scale-1e4"])
    def test_small_generator_parts_are_kept(self, gens):
        # each small part is above the span rank cut.  A split within one
        # generator (diagonals) or a commutator of the size of a small
        # weight (shifts) falls under the Gram null cut unless the first
        # solve refines its null space at the span cut; the Gram's null
        # vectors, off by up to eps / 1e-12, would also make the second
        # solve split the scalars of S' (shift-2.4e-5).  Without unit-norm
        # seed directions the refined cut is too fine for the rounding of
        # a generator 1e4 times larger (scale-1e4)
        alg = generate_algebra(gens)
        assert alg.dim == closure_dim_bruteforce(gens)
        assert all(alg.contains(g) for g in gens)

    def test_generator_outside_result_raises(self, monkeypatch):
        # a commutant solve that loses structure must not yield an algebra
        # that misses its own generator
        real = la.commutant_basis
        monkeypatch.setattr(
            la, "commutant_basis",
            lambda mats, d: real(mats[:1], d))
        with pytest.raises(GenerationError):
            generate_algebra([SX, SZ])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            generate_algebra([np.ones((2, 3))])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            generate_algebra([SX, np.eye(3)])

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            generate_algebra([np.eye(300)])


class TestCommutant:
    def test_full_algebra_has_scalar_commutant(self):
        assert commutant(full_matrix_algebra(2)).dim == 1

    def test_scalars_have_full_commutant(self):
        assert commutant(scalar_algebra(2)).dim == 4

    def test_zz_commutant_dimension(self):
        alg = generate_algebra([kron_all(SZ, SZ)])
        assert commutant(alg).dim == 8

    @pytest.mark.parametrize("gens, dim", [
        ([la.random_hermitian(np.random.default_rng(0), 3),
          1e4 * la.random_hermitian(np.random.default_rng(1), 3)], 1),
        ([np.diag([1.0, 2.0]).astype(complex), 1e-7 * SX], 1),
        ([SX, np.zeros((2, 2), dtype=complex), SZ], 1),
        ([SZ, 1e-10 * SX], 2),
    ], ids=["scale-1e4", "small-x-1e-7", "zero", "below-span-cut-1e-10"])
    def test_recorded_generators_at_any_scale(self, gens, dim):
        # the first three generate the full matrix algebra, however far
        # apart their norms; unscaled, the Gram null cut follows the largest
        # and the commutant lost even the unit (scale-1e4) or kept the
        # diagonal of the small-x pair.  generate_algebra drops the 1e-10
        # part at the span cut, so the commutant must drop it too, or the
        # commutative diagonal algebra gets a trivial centre
        d = gens[0].shape[0]
        alg = generate_algebra(gens)
        comm = commutant(alg)
        assert comm.dim == dim
        assert comm.contains(np.eye(d))
        assert center(alg).dim == dim
        assert center(comm).dim == dim

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_entrywise_oracle(self, d, rng):
        h = la.random_hermitian(rng, d)
        p = np.diag((np.arange(d) < d // 2).astype(complex))
        alg = generate_algebra([h @ p + p @ h])
        comm = commutant(alg)
        oracle_rows = commutant_entrywise(alg.basis, d)
        assert comm.dim == oracle_rows.shape[0]
        oracle = la.rows_to_mats(oracle_rows, d)
        assert_same_span(la.mats_to_rows(comm.basis),
                         la.mats_to_rows(la.orthonormalize_mats(oracle)))

    def test_double_commutant_property(self, rng):
        for d, n_gens in [(2, 1), (3, 2), (4, 1), (4, 2)]:
            gens = [la.random_hermitian(rng, d) for _ in range(n_gens)]
            alg = generate_algebra(gens)
            double = commutant(commutant(alg))
            assert double.dim == alg.dim
            for b in double.basis:
                assert span_residual(alg.basis, b) <= 1e-8


BLOCK_LISTS = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3
).filter(lambda bl: sum(k * m for k, m in bl) <= 6)


@settings(max_examples=40, deadline=None)
@given(blocks=BLOCK_LISTS, seed=st.integers(0, 10_000), use_gens=st.booleans())
@example(blocks=[(1, 2), (1, 2)], seed=0, use_gens=False)
@example(blocks=[(2, 1), (2, 1), (1, 2)], seed=1, use_gens=True)
@example(blocks=[(1, 5)], seed=2, use_gens=False)
@example(blocks=[(1, 5)], seed=2, use_gens=True)
@example(blocks=[(5, 1)], seed=3, use_gens=False)
@example(blocks=[(5, 1)], seed=3, use_gens=True)
@example(blocks=[(3, 2)], seed=4, use_gens=False)
def test_structure_of_block_algebras(blocks, seed, use_gens):
    """generate_algebra, commutant, center and central projections of
    V(+ M_k (x) 1_m)V*.

    The two generic generators must generate the whole algebra.  The rest
    is checked against the entrywise commutant oracle (dimension and span)
    and the block structure (centre dimension and projection ranks), on
    the data found from the basis and on those of the generated algebra;
    the commutant basis must be orthonormal.
    """
    d, basis, gens = block_algebra(blocks, seed)
    generated = generate_algebra(gens)
    assert generated.dim == sum(k * k for k, _ in blocks)
    assert_same_span(la.mats_to_rows(generated.basis), la.mats_to_rows(basis))
    alg = generated if use_gens else OperatorAlgebra(d, basis)
    comm = commutant(alg)
    oracle = la.rows_to_mats(commutant_entrywise(basis, d), d)
    assert comm.dim == oracle.shape[0] == sum(m * m for _, m in blocks)
    assert_same_span(la.mats_to_rows(comm.basis), la.mats_to_rows(oracle))
    rows = la.mats_to_rows(comm.basis)
    assert np.allclose(rows @ rows.conj().T, np.eye(comm.dim), atol=1e-12)
    assert center(alg).dim == len(blocks)
    projs = minimal_central_projections(alg)
    assert sorted(int(round(np.trace(p).real)) for p in projs) == sorted(
        k * m for k, m in blocks)
    assert np.allclose(sum(projs), np.eye(d), atol=1e-10)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_full_matrix_algebra_matrix_unit_order(d):
    basis = full_matrix_algebra(d).basis
    assert basis.shape == (d * d, d, d)
    for a in range(d):
        for b in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[a, b] = 1.0
            assert np.array_equal(basis[a * d + b], unit)


class TestCenter:
    def test_center_of_full_algebra(self):
        assert center(full_matrix_algebra(2)).dim == 1

    def test_block_diagonal_center(self):
        # M2 + M3 embedded block-diagonally in d=5
        b2 = np.array([[1, 2], [3, 5]], dtype=complex)
        b3 = np.array([[1, 2, 0], [0, 3, 4], [5, 0, 6]], dtype=complex)
        gens = []
        for blk, off in ((b2, 0), (b3, 2)):
            g = np.zeros((5, 5), dtype=complex)
            g[off:off + blk.shape[0], off:off + blk.shape[0]] = blk
            gens.append(g)
        alg = generate_algebra(gens)
        assert alg.dim == 4 + 9
        assert center(alg).dim == 2

    def test_center_counts_sectors(self):
        comm = commutant(generate_algebra([kron_all(SZ, SZ)]))
        assert center(comm).dim == 2

    @pytest.mark.parametrize("seed", [2, 3])
    def test_rank_from_singular_values(self, seed):
        # Thresholded Gram-Schmidt on these projected commutant stacks
        # accepts a residual of about 1e-9, normalises its noise into a
        # spurious fifth direction and reports dimension 5.  The singular
        # values are 1, 1, 1, 1, then below 1e-14.
        blocks = [(1, 2), (3, 3), (5, 1), (2, 4)]
        d, basis, _ = block_algebra(blocks, seed)
        alg = OperatorAlgebra(d, basis)
        z = center(alg)
        assert z.dim == 4
        for a in z.basis:
            assert all(np.linalg.norm(a @ b - b @ a) <= 1e-10 for b in basis)
        ranks = sorted(int(round(np.trace(p).real))
                       for p in minimal_central_projections(alg))
        assert ranks == [2, 5, 8, 9]

    def test_center_is_commutative_and_unital(self):
        comm = commutant(generate_algebra([kron_all(SZ, SZ)]))
        z = center(comm)
        for a in z.basis:
            for b in z.basis:
                assert np.linalg.norm(a @ b - b @ a) <= 1e-12
        assert z.contains(np.eye(4))


class TestMinimalCentralProjections:
    def test_full_matrix_algebra(self):
        projs = minimal_central_projections(full_matrix_algebra(3))
        assert len(projs) == 1
        assert np.allclose(projs[0], np.eye(3))

    def test_diagonal_algebra(self):
        alg = generate_algebra([np.diag([1.0, -1.0]).astype(complex)])
        projs = minimal_central_projections(alg)
        assert len(projs) == 2
        assert np.allclose(projs[0], np.diag([1.0, 0.0]))
        assert np.allclose(projs[1], np.diag([0.0, 1.0]))

    def test_zz_eigenspace_projections(self):
        comm = commutant(generate_algebra([kron_all(SZ, SZ)]))
        projs = minimal_central_projections(comm)
        assert len(projs) == 2
        # eigenspace oracle: span{|00>,|11>} and span{|01>,|10>}
        even = np.zeros((4, 4)); even[0, 0] = even[3, 3] = 1
        odd = np.eye(4) - even
        assert any(np.allclose(p, even, atol=1e-9) for p in projs)
        assert any(np.allclose(p, odd, atol=1e-9) for p in projs)

    def test_ambiguous_gap_exhausts_retries(self):
        # every generic element of this span splits its spectrum inside the
        # ambiguity band (between 1e-12 and the 1e-8 grouping gap), so the
        # copies cannot be resolved on any seed
        basis = np.array([np.eye(2) / np.sqrt(2), 1e-10 * np.diag([1.0, -1.0])], dtype=complex)
        with pytest.raises(CentralProjectionError):
            OperatorAlgebra(2, basis)

    def test_one_dimensional_algebra_is_the_scalars(self):
        # every seed would draw a multiple of the one element, so no retry
        # could split it; a one-dimensional unital algebra is C1
        near = np.diag([1.0, 1.0 + 3e-10]).astype(complex)
        alg = OperatorAlgebra(2, (near / la.hs_norm(near))[None], contains_unit=True)
        projs = minimal_central_projections(alg)
        assert len(projs) == 1 and np.allclose(projs[0], np.eye(2))
        with pytest.raises(ValueError, match="spans no"):
            OperatorAlgebra(2, np.diag([1.0, 0.0]).astype(complex)[None])

    def test_partition_of_unity(self, rng):
        h = la.random_hermitian(rng, 4)
        alg = generate_algebra([h @ h])
        projs = minimal_central_projections(alg)
        total = sum(projs)
        assert np.allclose(total, np.eye(4), atol=1e-10)
        for i, p in enumerate(projs):
            assert np.linalg.norm(p - p.conj().T) <= 1e-10
            for j, q in enumerate(projs):
                target = p if i == j else np.zeros_like(p)
                assert np.linalg.norm(p @ q - target) <= 1e-10


class TestStates:
    def test_state_validation(self):
        State(np.eye(2) / 2).validate()
        with pytest.raises(ValueError):
            State(np.diag([2.0, -1.0])).validate()
        with pytest.raises(ValueError):
            State(np.diag([0.7, 0.7])).validate()

    def test_validate_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            State(np.array([[0.5, np.nan], [np.nan, 0.5]])).validate()
        with pytest.raises(ValueError, match="non-finite"):
            State(np.diag([np.inf, 0.0])).validate()

    def test_distance_zero_on_equal_states(self):
        s = vector_state([1, 0])
        assert state_distance_mod(s, s, full_matrix_algebra(2)) == 0.0

    def test_distance_zero_modulo_scalars(self):
        s0, s1 = vector_state([1, 0]), vector_state([0, 1])
        assert state_distance_mod(s0, s1, scalar_algebra(2)) <= 1e-15

    def test_distance_on_diagonal_algebra(self):
        s0, s1 = vector_state([1, 0]), vector_state([0, 1])
        diag = generate_algebra([SZ])
        # trace norm of the projection onto the span of the basis
        proj = la.project_onto_span(diag.basis, s0.density - s1.density)
        expected = np.linalg.svd(proj, compute_uv=False).sum()
        assert expected == pytest.approx(2.0)
        assert state_distance_mod(s0, s1, diag) == pytest.approx(expected)

    def test_distance_does_not_depend_on_the_unitary(self):
        # W is fixed only up to a unitary on each block's copy index, which
        # moves the matrix units but not the algebra
        net, vac = z2_chain_net(3), z2_vacuum(3)
        obs = net.observable_algebra()
        flip = kron_all(I2, SX, I2)
        flipped = State(flip @ vac.density @ flip)
        rng, d = np.random.default_rng(0), obs.ambient_dim
        cols = []
        for w, k, n in obs.block_columns():
            u, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
            cols.append(np.einsum("xin,ij->xjn", w.reshape(d, k, n), u).reshape(d, k * n))
        rotated = OperatorAlgebra.from_blocks(np.concatenate(cols, axis=1), obs.blocks)
        assert all(rotated.contains(g) and obs.contains(h)
                   for g, h in zip(obs.generators, rotated.generators))
        for sub in (obs, rotated):
            assert state_distance_mod(flipped, vac, sub) == pytest.approx(2.0, abs=1e-12)

    def test_pseudo_metric_properties(self, rng):
        sub = generate_algebra([SZ])
        states = []
        for _ in range(3):
            h = la.random_hermitian(rng, 2)
            rho = h @ h.conj().T
            states.append(State(rho / np.trace(rho).real))
        a, b, c = states
        dab = state_distance_mod(a, b, sub)
        dba = state_distance_mod(b, a, sub)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab <= state_distance_mod(a, c, sub) + state_distance_mod(c, b, sub) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            state_distance_mod(vector_state([1, 0]), vector_state([1, 0, 0]),
                               scalar_algebra(2))


# ---------------------------------------------------------------------------
# closed forms on Wedderburn data against dense solves on the basis
# ---------------------------------------------------------------------------


def _random_data(blocks, seed):
    """Data of V (+ M_k (x) 1_n) V* for a seeded unitary V."""
    rng = np.random.default_rng(seed)
    d = sum(k * n for k, n in blocks)
    v, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return OperatorAlgebra.from_blocks(v, blocks)


def assert_closed_forms(alg, rng):
    """Every closed form of ``alg`` against a dense oracle on its basis.

    Commutants by the entrywise defining equations up to d = 8 and by
    ``la.commutant_basis`` above; the centre as the commutant of A and A'
    together; the generators by the commutant they have.
    """
    d, basis = alg.ambient_dim, alg.basis
    rows = la.mats_to_rows(basis)
    assert basis.shape == (alg.dim, d, d)
    assert np.allclose(rows @ rows.conj().T, np.eye(alg.dim), atol=1e-10)
    if d <= 8:
        oracle = la.orthonormalize_mats(la.rows_to_mats(commutant_entrywise(basis, d), d))
    else:
        oracle = la.commutant_basis(basis, d)
    comm = commutant(alg)
    assert comm.dim == len(oracle)
    assert_same_span(la.mats_to_rows(comm.basis), la.mats_to_rows(oracle))
    z_oracle = la.commutant_basis(np.concatenate([basis, oracle]), d)
    z = center(alg)
    assert z.dim == len(z_oracle) == len(alg.blocks)
    assert_same_span(la.mats_to_rows(z.basis), la.mats_to_rows(z_oracle))
    projs = minimal_central_projections(alg)
    assert len(projs) == z.dim
    assert np.linalg.norm(sum(projs) - np.eye(d)) <= 1e-9
    for i, p in enumerate(projs):
        assert span_residual(z_oracle, p) <= 1e-9
        for j, q in enumerate(projs):
            assert np.linalg.norm(p @ q - (p if i == j else 0)) <= 1e-9
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert np.linalg.norm(alg.project(m) - la.project_onto_span(basis, m)) <= 1e-9
    inside = np.tensordot(rng.standard_normal(alg.dim), basis, axes=(0, 0))
    assert alg.contains(inside)
    assert alg.contains(np.eye(d))
    assert alg.contains(m) == (alg.dim == d * d)
    gens = list(alg.generators) + [g.conj().T for g in alg.generators]
    assert all(abs(la.hs_norm(g) - 1.0) <= 1e-12 for g in alg.generators)
    assert_same_span(la.mats_to_rows(la.commutant_basis(gens, d)), la.mats_to_rows(oracle))


DATA_BLOCKS = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4
).filter(lambda bl: sum(k * n for k, n in bl) <= 32)


class TestClosedForms:
    @settings(max_examples=30, deadline=None)
    @given(blocks=DATA_BLOCKS, seed=st.integers(0, 10_000))
    @example(blocks=[(4, 3), (3, 4), (2, 2), (2, 2)], seed=0)
    @example(blocks=[(1, 1)], seed=1)
    def test_random_data(self, blocks, seed):
        alg = _random_data(blocks, seed)
        assert_closed_forms(alg, np.random.default_rng(seed))
        # the same algebra found again from its basis alone
        again = OperatorAlgebra(alg.ambient_dim, alg.basis)
        assert sorted(again.blocks) == sorted(alg.blocks)
        assert_closed_forms(again, np.random.default_rng(seed))

    @pytest.mark.parametrize("n, region, observable", [
        (2, (0,), False), (3, (0, 2), True), (4, (1, 2), True), (4, (3,), False),
        (5, (0, 1), True), (5, (2,), False), (3, (), True),
    ])
    def test_region_algebras(self, n, region, observable, rng):
        assert_closed_forms(region_algebra(z2_chain_net(n), region, observable), rng)

    @pytest.mark.parametrize("onsite, n", [
        (z2_onsite_rep(), 5), (regular_rep(builtin_group("symmetric:3")), 1),
        (regular_rep(builtin_group("quaternion:8")), 1),
        (regular_rep(builtin_group("symmetric:4")), 1), (permutation_rep(3), 3),
    ], ids=["z2-5", "s3-regular", "q8-regular", "s4-regular", "s3-permutation-3"])
    def test_observable_algebras(self, onsite, n, rng):
        assert_closed_forms(LatticeNet(n, onsite).observable_algebra(), rng)

    def test_no_commutant_solve(self, monkeypatch, rng):
        d, basis, _ = block_algebra([(2, 1), (1, 2), (2, 2)], 0)
        algs = [OperatorAlgebra(d, basis), _random_data([(3, 2), (1, 5)], 0),
                full_matrix_algebra(5), scalar_algebra(4)]

        def forbidden(*args, **kwargs):
            raise AssertionError("a commutant was solved")

        monkeypatch.setattr(la, "commutant_basis", forbidden)
        for alg in algs:
            assert commutant(commutant(alg)).dim == alg.dim
            assert center(alg).dim == len(minimal_central_projections(alg))

    def test_basis_of_no_algebra_is_rejected(self):
        # span{1, X, Z} is not closed under products: its copies link into
        # M_2, whose dimension is 4
        basis = la.orthonormalize_mats(np.array([I2, SX, SZ]))
        with pytest.raises(ValueError, match="spans no"):
            OperatorAlgebra(2, basis)
        with pytest.raises(ValueError, match="unital"):
            OperatorAlgebra(2, [np.eye(2) / np.sqrt(2)], contains_unit=False)


class TestNoBasisAtScale:
    # none may build a basis of B(C^d): 4 GiB at d = 128, 64 GiB at d = 256
    def test_commutant_of_full_matrix_algebra_256(self):
        comm, peak = peak_mb(lambda: commutant(full_matrix_algebra(256)))
        assert comm.dim == 1 and peak < 64

    def test_decompose_sectors_on_full_matrix_algebra_128(self):
        rep = tensor_power_rep(z2_onsite_rep(), 7)
        dec, peak = peak_mb(lambda: decompose_sectors(full_matrix_algebra(128), rep))
        assert dec.mult_dims == (64, 64)
        assert peak < 64

    def test_haag_duality_on_eight_sites(self):
        net = z2_chain_net(8)

        def both():
            return (haag_duality_check(net, (3, 4), observable=True),
                    haag_duality_check(net, (0, 1, 2), observable=False))
        (obs, field), peak = peak_mb(both)
        assert (obs.lhs_dim, obs.rhs_dim) == (2 * 4 ** 2, 2 * 4)
        assert field.passes and field.lhs_dim == 4 ** 3
        assert peak < 64

    @pytest.mark.parametrize("region, blocks", [(None, [(128, 1)] * 2), ((1,), [(1, 128)] * 2)],
                             ids=["full", "1"])
    def test_fixed_point_algebra_on_eight_sites(self, region, blocks):
        net = z2_chain_net(8)
        f = full_matrix_algebra(256) if region is None else region_algebra(net, region)
        fixed, peak = peak_mb(lambda: fixed_point_algebra(f, net.global_rep))
        assert sorted(fixed.blocks) == blocks and peak < 64

    def test_k_map_and_state_distance_on_eight_sites(self):
        net, vac = z2_chain_net(8), z2_vacuum(8)
        obs = net.observable_algebra()
        flipped = State(np.roll(vac.density, (32, 32), axis=(0, 1)))  # site 2 flipped
        morphisms = [identity_multiplet("id", 256), z2_flip_morphism(net, 2).multiplet]
        sz2 = kron_all(np.eye(4), SZ, np.eye(32))

        def both():
            return (k_map(sz2, vac, morphisms, rep=net.global_rep),
                    state_distance_mod(flipped, vac, obs))
        (vals, dist), peak = peak_mb(both)
        assert np.allclose(vals, [1.0, -1.0]) and peak < 64
        # the group average is the trace-preserving projection onto the observables
        proj = average(flipped.density - vac.density, net.global_rep)
        assert dist == pytest.approx(np.linalg.svd(proj, compute_uv=False).sum(), abs=1e-12)
        assert dist == pytest.approx(2.0, abs=1e-12)
