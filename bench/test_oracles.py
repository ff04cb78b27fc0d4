"""Each oracle against a brute-force computation of its own.

    python3 -m pytest bench -q
"""

import itertools

import numpy as np
import pytest

import oracles as orc


def null_dim(a: np.ndarray) -> int:
    s = np.linalg.svd(a, compute_uv=False)
    return a.shape[1] - int(np.sum(s > 1e-9 * max(1.0, s[0])))


def commutant_dim(mats, d: int) -> int:
    eye = np.eye(d)
    blocks = [np.kron(m, eye) - np.kron(eye, m.T) for m in mats]
    return null_dim(np.vstack(blocks))


def span_dim(mats) -> int:
    rows = np.array([m.reshape(-1) for m in mats])
    return int(np.linalg.matrix_rank(rows, tol=1e-9))


def pauli_strings(sites, n: int, even_only: bool):
    """Pauli strings supported on ``sites``; the even ones commute with parity."""
    out = []
    for labels in itertools.product("IXYZ", repeat=len(sites)):
        if even_only and sum(ch in "XY" for ch in labels) % 2:
            continue
        word = ["I"] * n
        for s, ch in zip(sites, labels):
            word[s] = ch
        out.append(orc.pauli_matrix("".join(word)))
    return out


def test_nnls_accepts_exact_mixture_and_rejects_inversion():
    energies = np.array([0.0, 0.5, 1.3, 2.0])
    betas = np.array([0.3, 1.0, 2.5])
    pops = orc.gibbs_populations(energies, betas)
    state = np.array([0.2, 0.5, 0.3]) @ pops
    assert orc.nnls_residual(pops.T, state) < 1e-12
    assert orc.nnls_residual(pops.T, state[::-1]) > 1e-3


def test_gibbs_density_matches_boltzmann_weights():
    e = np.array([0.0, 1.0, 3.0])
    rho = orc.gibbs_density(np.diag(e).astype(complex), 0.7)
    assert np.allclose(np.diag(rho).real, orc.gibbs_populations(e, np.array([0.7]))[0])


@pytest.mark.parametrize("all_subsets", [False, True])
@pytest.mark.parametrize("flips", [(1,), (0,), (0, 2), ()])
def test_witness_rule_against_even_pauli_strings(flips, all_subsets):
    n = 3
    rho = orc.basis_density([1 if s in flips else 0 for s in range(n)])
    rho0 = orc.basis_density([0] * n)
    assert orc.flipped_sites(rho, n) == tuple(flips)
    brute = set()
    for region in orc.chain_regions(n, all_subsets):
        comp = [s for s in range(n) if s not in region]
        obs = pauli_strings(comp, n, even_only=True)
        if all(abs(np.trace((rho - rho0) @ b)) < 1e-12 for b in obs):
            brute.add(region)
    assert orc.expected_witnesses(flips, n, all_subsets) == brute


def test_chain_regions():
    assert len(orc.chain_regions(4)) == 1 + 4 + 3 + 2
    assert len(orc.chain_regions(4, all_subsets=True)) == 2 ** 4 - 1


def test_inversion_region():
    assert orc.expected_inversion_region((1,), 3) == (1,)
    assert orc.expected_inversion_region((0, 2), 3) is None
    assert orc.expected_inversion_region((1, 2), 4) == (1, 2)


@pytest.mark.parametrize("observable", [False, True])
@pytest.mark.parametrize("m", [1, 2])
def test_haag_dims_against_direct_commutants(m, observable):
    n, d = 3, 8
    region = list(range(m))
    comp = list(range(m, n))
    a_comp = pauli_strings(comp, n, observable)
    a_reg = pauli_strings(region, n, observable)
    lhs = commutant_dim(a_comp, d)
    rhs = span_dim(a_reg)  # A(O)'' = A(O) in finite dimension
    assert (lhs, rhs) == orc.haag_dims(n, m, observable)


def test_even_part_is_the_parity_average():
    x = orc.pauli_matrix("XZI")
    assert np.allclose(orc.even_part(x, 3), 0)
    z = orc.pauli_matrix("ZZI")
    assert np.allclose(orc.even_part(z, 3), z)


@pytest.mark.parametrize("table,classes", [
    (orc.permutation_table(3), 3), (orc.permutation_table(4), 5),
    (orc.quaternion_table(), 5), (orc.cyclic_table(6), 6)])
def test_conjugacy_classes(table, classes):
    assert orc.conjugacy_class_count(table) == classes


def test_irrep_dims_tables():
    tables = {"cyclic:2": orc.cyclic_table(2), "symmetric:3": orc.permutation_table(3),
              "quaternion:8": orc.quaternion_table(), "symmetric:4": orc.permutation_table(4)}
    for name, dims in orc.IRREP_DIMS.items():
        assert sum(v * v for v in dims) == tables[name].shape[0]
        assert len(dims) == orc.conjugacy_class_count(tables[name])


def test_block_algebra_dimensions():
    rng = np.random.default_rng(0)
    blocks = [(2, 1), (1, 2), (2, 2)]
    d, basis, gens = orc.block_algebra(blocks, rng)
    assert d == 8 and basis.shape[0] == sum(k * k for k, _ in blocks)
    gram = np.einsum("aij,bij->ab", basis.conj(), basis)
    assert np.allclose(gram, np.eye(basis.shape[0]))
    assert commutant_dim(list(basis), d) == sum(m * m for _, m in blocks)
    assert commutant_dim(list(gens) + [g.conj().T for g in gens], d) == sum(m * m for _, m in blocks)


def test_pauli_algebra_dim_against_products():
    # Pauli strings commute or anticommute, so every word in the generators
    # is a phase times the ordered product of a subset of them.
    for words in (["XII", "IZI"], ["XXI", "ZZI", "IXX"], ["XYZ", "ZZZ", "XII", "IIY"]):
        mats = [orc.pauli_matrix(w) for w in words]
        prods = []
        for subset in itertools.product((0, 1), repeat=len(mats)):
            m = np.eye(8, dtype=complex)
            for use, p in zip(subset, mats):
                if use:
                    m = m @ p
            prods.append(m)
        assert span_dim(prods) == orc.pauli_algebra_dim(words)


def test_fock_action_relations():
    v = {(1, 2): 1}
    assert orc.act_letters([(1, True), (1, False)], v) == v  # psi_1* psi_1 = 1
    assert orc.act_letters([(2, True), (1, False)], v) == {}  # psi_2* psi_1 = 0
    full = [((i,), (i,), 1) for i in (1, 2)]  # sum psi_i psi_i* = 1 off the vacuum
    assert orc.act(full, v) == v and orc.act(full, {(): 1}) == {}


def test_fock_dense_agrees_with_action_below_the_edge():
    terms = [((1,), (2, 1), 0.5), ((), (1,), 2.0)]
    dense = orc.fock_dense(terms, 2, 4)
    index = {s: k for k, s in enumerate(
        s for n in range(5) for s in itertools.product((1, 2), repeat=n))}
    for s in itertools.product((1, 2), repeat=2):
        col = dense[:, index[s]]
        want = np.zeros_like(col)
        for t, c in orc.act(terms, {s: 1}).items():
            want[index[t]] += c
        assert np.allclose(col, want)
    assert dense.shape[0] == orc.fock_dimension(2, 4)


def test_gauge_fock_is_a_representation_of_the_unitary_group():
    rng = np.random.default_rng(1)
    g, h = orc.random_unitary(rng, 2), orc.random_unitary(rng, 2)
    v = {(1, 2, 2): 1.0, (2,): 0.5j}
    assert orc.vec_distance(orc.gauge_fock(g, orc.gauge_fock(h, v)),
                            orc.gauge_fock(g @ h, v)) < 1e-12
