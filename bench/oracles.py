"""Independent oracles for the benchmark's output checks.

Nothing here imports sectorlab: every expected value is computed from
first principles (closed forms, numpy/scipy, or plain Python) so that a
check never compares the library with itself.  The scipy oracles import
scipy.linalg and scipy.optimize on first use, so the benchmark's set-up
loads only what sectorlab itself loads.
"""

from __future__ import annotations

import itertools

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# thermality: nonnegative least squares with the normalisation row
# ---------------------------------------------------------------------------


def nnls_residual(design: np.ndarray, data: np.ndarray) -> float:
    """Residual of min ||[M; 1] x - [data; 1]|| over x >= 0 (Lawson-Hanson)."""
    from scipy.optimize import nnls

    m = np.asarray(design, dtype=float)
    aug = np.vstack([m, np.ones(m.shape[1])])
    rhs = np.concatenate([np.asarray(data, dtype=float), [1.0]])
    _, res = nnls(aug, rhs, maxiter=50 * aug.shape[1])
    return float(res)


def gibbs_density(h: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta H) / Z by the matrix exponential (no eigendecomposition)."""
    from scipy.linalg import expm

    shift = float(np.min(np.real(np.diag(h))))
    e = expm(-beta * (np.asarray(h, dtype=complex) - shift * np.eye(h.shape[0])))
    return e / np.trace(e).real


def gibbs_populations(energies: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Row j: Boltzmann weights of a diagonal Hamiltonian at betas[j]."""
    e = np.asarray(energies, dtype=float)
    w = np.exp(-np.outer(betas, e - e.min()))
    return w / w.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Z2 spin chains
# ---------------------------------------------------------------------------


def site_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for s in range(n_sites):
        out = np.kron(out, op if s == site else np.eye(2, dtype=complex))
    return out


def parity(n_sites: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for _ in range(n_sites):
        out = np.kron(out, SIGMA_Z)
    return out


def basis_density(bits) -> np.ndarray:
    """|b><b| for the computational basis string ``bits`` (site 0 first)."""
    idx = int("".join(str(int(b)) for b in bits), 2)
    rho = np.zeros((2 ** len(bits),) * 2, dtype=complex)
    rho[idx, idx] = 1.0
    return rho


def flipped_sites(rho: np.ndarray, n_sites: int) -> tuple[int, ...]:
    """Sites with <Z_j> = -1, read off by evaluating <Z_j> directly.

    Raises when the state is not a computational basis product state, for
    which the witness rule below would not apply.
    """
    out = []
    for j in range(n_sites):
        z = float(np.trace(rho @ site_operator(SIGMA_Z, j, n_sites)).real)
        if abs(abs(z) - 1.0) > 1e-12:
            raise ValueError(f"<Z_{j}> = {z}: not a basis product state")
        if z < 0:
            out.append(j)
    return tuple(out)


def chain_intervals(n_sites: int) -> list[tuple[int, ...]]:
    """The empty region and every proper contiguous interval of the chain."""
    out = [()]
    for length in range(1, n_sites):
        for start in range(n_sites - length + 1):
            out.append(tuple(range(start, start + length)))
    return out


def chain_regions(n_sites: int, all_subsets: bool = False) -> list[tuple[int, ...]]:
    """Candidate regions: proper intervals, or every proper subset."""
    if not all_subsets:
        return chain_intervals(n_sites)
    return [c for r in range(n_sites) for c in itertools.combinations(range(n_sites), r)]


def expected_witnesses(flips, n_sites: int, all_subsets: bool = False) -> set[tuple[int, ...]]:
    """Regions O with omega = omega_0 on the observables of O'.

    A Z_j with j outside O is an observable of O' on which a flipped site
    reads -1 instead of +1; if O holds every flip, the two product states
    agree on the whole complement.
    """
    return {r for r in chain_regions(n_sites, all_subsets) if set(flips) <= set(r)}


def expected_inversion_region(flips, n_sites: int):
    """Smallest interval holding every flip, or None when it is the chain."""
    if not flips:
        return ()
    lo, hi = min(flips), max(flips)
    if hi - lo + 1 >= n_sites:
        return None
    return tuple(range(lo, hi + 1))


def even_part(x: np.ndarray, n_sites: int) -> np.ndarray:
    """Projection onto the parity-invariant (observable) operators."""
    p = parity(n_sites)
    return (x + p @ x @ p) / 2


def haag_dims(n_sites: int, m: int, observable: bool) -> tuple[int, int]:
    """(dim A(O')', dim A(O)'') for an m-site region with non-empty O'."""
    if not 0 < m < n_sites:
        raise ValueError("closed forms need 0 < m < n_sites")
    if observable:
        return 2 * 4 ** m, 2 * 4 ** (m - 1)
    return 4 ** m, 4 ** m


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------


def conjugacy_class_count(table: np.ndarray) -> int:
    """Number of classes, from the multiplication table alone."""
    t = np.asarray(table)
    n = t.shape[0]
    ident = next(e for e in range(n) if np.array_equal(t[e], np.arange(n)))
    inv = [int(np.nonzero(t[g] == ident)[0][0]) for g in range(n)]
    seen: set[int] = set()
    count = 0
    for g in range(n):
        if g in seen:
            continue
        seen |= {int(t[t[h, g], inv[h]]) for h in range(n)}
        count += 1
    return count


def cyclic_table(n: int) -> np.ndarray:
    i = np.arange(n)
    return (i[:, None] + i[None, :]) % n


def permutation_table(n: int) -> np.ndarray:
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[q[k]] for k in range(n))] for q in perms]
                     for p in perms])


def quaternion_table() -> np.ndarray:
    units = [np.eye(2), 1j * SIGMA_X, np.array([[0, 1], [-1, 0]]), 1j * SIGMA_Z]
    elems = [s * u for u in units for s in (1, -1)]
    return np.array([[next(k for k, c in enumerate(elems) if np.allclose(a @ b, c))
                      for b in elems] for a in elems])


#: irrep dimensions of the small groups, from their character tables
IRREP_DIMS = {
    "cyclic:2": (1, 1),
    "symmetric:3": (1, 1, 2),
    "quaternion:8": (1, 1, 1, 1, 2),
    "symmetric:4": (1, 1, 2, 3, 3),
}


# ---------------------------------------------------------------------------
# block algebras and Pauli strings
# ---------------------------------------------------------------------------


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def block_algebra(blocks, rng: np.random.Generator):
    """Basis and two generators of V (+_i M_k (x) 1_m) V* for a random V.

    Returns (d, basis stack, generators).  Two generic elements generate
    the algebra.
    """
    d = sum(k * m for k, m in blocks)
    v = random_unitary(rng, d)
    basis, gens = [], [np.zeros((d, d), dtype=complex) for _ in range(2)]
    off = 0
    for k, m in blocks:
        sl = slice(off, off + k * m)
        for a in range(k):
            for b in range(k):
                e = np.zeros((k, k))
                e[a, b] = 1.0
                blk = np.zeros((d, d), dtype=complex)
                blk[sl, sl] = np.kron(e, np.eye(m)) / np.sqrt(m)
                basis.append(v @ blk @ v.conj().T)
        for g in gens:
            x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            blk = np.zeros((d, d), dtype=complex)
            blk[sl, sl] = np.kron(x, np.eye(m))
            g += v @ blk @ v.conj().T
        off += k * m
    return d, np.array(basis), tuple(gens)


PAULI = {"I": np.eye(2, dtype=complex), "X": SIGMA_X,
         "Y": np.array([[0, -1j], [1j, 0]]), "Z": SIGMA_Z}


def pauli_matrix(word: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for ch in word:
        out = np.kron(out, PAULI[ch])
    return out


def gf2_rank(rows) -> int:
    rows = [int(r) for r in rows]
    rank = 0
    for bit in reversed(range(max((r.bit_length() for r in rows), default=0))):
        pivot = next((r for r in rows if r >> bit & 1), None)
        if pivot is None:
            continue
        rows = [r ^ pivot if r >> bit & 1 else r for r in rows if r != pivot]
        rank += 1
    return rank


def pauli_algebra_dim(words) -> int:
    """dim of the unital algebra generated by Pauli strings: 2^(GF(2) rank).

    Products of Pauli strings are Pauli strings up to phase, and distinct
    strings are linearly independent, so the algebra is spanned by the
    subgroup the (x|z) bit vectors generate.
    """
    vecs = []
    for w in words:
        v = 0
        for ch in w:
            x = ch in "XY"
            z = ch in "ZY"
            v = (v << 2) | (x << 1) | z
        vecs.append(v)
    return 2 ** gf2_rank(vecs)


# ---------------------------------------------------------------------------
# Cuntz words on the Fock space over C^d
# ---------------------------------------------------------------------------
# A polynomial is given as a list of (mu, nu, coefficient) triples meaning
# sum c psi_mu psi_nu*; psi_i prepends the letter i to a string and psi_i*
# strips a leading i.  A Fock vector is a dict {string: coefficient}.


def act(terms, vec: dict) -> dict:
    out: dict = {}
    for s, a in vec.items():
        for mu, nu, c in terms:
            if s[:len(nu)] == nu:
                t = mu + s[len(nu):]
                out[t] = out.get(t, 0) + c * a
    return out


def act_letters(letters, vec: dict) -> dict:
    """Apply a product of generators, given left to right as (i, star)."""
    for i, star in reversed(letters):
        if star:
            vec = {s[1:]: a for s, a in vec.items() if s and s[0] == i}
        else:
            vec = {(i,) + s: a for s, a in vec.items()}
    return vec


def gauge_fock(g: np.ndarray, vec: dict) -> dict:
    """Second quantisation of g on a Fock vector.

    e_(j1..jl) -> sum g[i1,j1]..g[il,jl] e_(i1..il): psi_j -> sum_i g_ij psi_i.
    """
    m = np.asarray(g, dtype=complex)
    d = m.shape[0]
    image = {j + 1: [(i + 1, complex(m[i, j])) for i in range(d) if m[i, j] != 0]
             for j in range(d)}
    out: dict = {}
    for s, a in vec.items():
        parts = [((), complex(a))]
        for j in s:
            parts = [(t + (i,), b * c) for t, b in parts for i, c in image[j]]
        for t, b in parts:
            out[t] = out.get(t, 0) + b
    return out


def vec_distance(u: dict, v: dict) -> float:
    keys = set(u) | set(v)
    return max((abs(complex(u.get(k, 0)) - complex(v.get(k, 0))) for k in keys),
               default=0.0)


def vec_norm(u: dict) -> float:
    return max((abs(complex(a)) for a in u.values()), default=0.0)


def strings(d: int, length: int):
    return list(itertools.product(range(1, d + 1), repeat=length))


def fock_dense(terms, d: int, level: int) -> np.ndarray:
    """Dense matrix of sum c psi_mu psi_nu* on strings of length <= level.

    A word acts on nu+t only when both nu+t and mu+t fit under the level.
    """
    index = {s: k for k, s in enumerate(
        s for n in range(level + 1) for s in itertools.product(range(1, d + 1), repeat=n))}
    out = np.zeros((len(index), len(index)), dtype=complex)
    for mu, nu, c in terms:
        for n in range(level - max(len(mu), len(nu)) + 1):
            for t in itertools.product(range(1, d + 1), repeat=n):
                out[index[mu + t], index[nu + t]] += complex(c)
    return out


def fock_dimension(d: int, level: int) -> int:
    return sum(d ** n for n in range(level + 1))

