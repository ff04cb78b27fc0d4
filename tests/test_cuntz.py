import functools
import itertools
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from fractions import Fraction

from sectorlab import cuntz
from sectorlab.cuntz import (
    CuntzPolynomial,
    CuntzWord,
    ExpressionError,
    QRat,
    _contract_full_sums,
    canonical_endomorphism,
    fock_dimension,
    fock_product_defect,
    gauge_act,
    gauge_defect,
    multiply,
    parse_expression,
)

P = CuntzPolynomial


def random_word(rng, d, max_len=4):
    def part():
        return tuple(int(x) for x in rng.integers(1, d + 1,
                                                  size=rng.integers(0, max_len + 1)))
    return CuntzWord(part(), part())


def random_poly(rng, d, n_terms=2, max_len=4, exact=True):
    terms = {}
    for _ in range(n_terms):
        w = random_word(rng, d, max_len)
        if exact:
            c = QRat(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
                     Fraction(int(rng.integers(-2, 3)), 1))
        else:
            c = complex(rng.standard_normal(), rng.standard_normal())
        terms[w] = c
    return P.build(d, terms)


@functools.lru_cache(maxsize=None)
def fock_generators(d, level):
    """The number n of index strings of length <= level, ordered by length
    and then lexicographically, and the maps s_i and s_i* on them as index
    arrays: entry k is the string that string k goes to, or -1 for 0.
    s_i prepends the letter i (annihilating a string at the top length),
    s_i* strips a matching first letter."""
    strings = [s for n in range(level + 1)
               for s in itertools.product(range(1, d + 1), repeat=n)]
    index = {s: k for k, s in enumerate(strings)}
    create, strip = {}, {}
    for i in range(1, d + 1):
        create[i] = np.array([index[(i,) + s] if len(s) < level else -1
                              for s in strings])
        strip[i] = np.array([index[s[1:]] if s[:1] == (i,) else -1
                             for s in strings])
    return len(strings), create, strip


def fock_matrix(p, level):
    """Oracle: the sparse matrix of ``p`` on index strings of length <= level.

    Each word s_mu s_nu* is the composition s_mu1 ... s_muk s_nul* ... s_nu1*
    of the generators' maps, from the definition alone.  As matrix products
    psi_i* psi_j = delta_ij holds below the top level (the truncation edge)
    and sum_i psi_i psi_i* = 1 - |empty><empty| (the Fock vacuum edge).
    """
    if level < p.max_word_length():
        raise ValueError(f"truncation level {level} below the longest word")
    n, create, strip = fock_generators(p.d, level)
    rows, cols, vals = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0, complex)]
    for w, c in p.terms.items():
        image = np.arange(n)
        for i in w.nu:
            image = np.where(image >= 0, strip[i][image], -1)
        for i in reversed(w.mu):
            image = np.where(image >= 0, create[i][image], -1)
        hit = np.flatnonzero(image >= 0)
        rows.append(image[hit])
        cols.append(hit)
        vals.append(np.full(hit.size, complex(c)))
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n), dtype=complex)


class TestRelations:
    def test_isometry_relation(self):
        s1, s2 = P.generator(2, 1), P.generator(2, 2)
        assert multiply(s1.adjoint(), s1) == P.unit(2)
        assert multiply(s1.adjoint(), s2).is_zero()

    def test_prefix_contraction(self):
        w1 = P.word(2, (1,), (2,))
        w2 = P.word(2, (2,), (1,))
        assert multiply(w1, w2) == P.word(2, (1,), (1,))

    def test_completeness_sum_is_unit(self):
        total = P.word(2, (1,), (1,)) + P.word(2, (2,), (2,))
        assert total == P.unit(2)

    def test_partial_sum_not_contracted(self):
        partial = P.word(3, (1,), (1,)) + P.word(3, (2,), (2,))
        assert partial.n_terms == 2

    def test_unequal_coefficients_not_contracted(self):
        mixed = P.word(2, (1,), (1,)).scale(2) + P.word(2, (2,), (2,))
        assert mixed.n_terms == 2

    def test_nested_contraction(self):
        # children of children collapse all the way to 1
        terms = {}
        for i in (1, 2):
            for j in (1, 2):
                terms[CuntzWord((i, j), (i, j))] = 1
        assert P.build(2, terms) == P.unit(2)

    def test_family_whose_kid_cancels_in_the_same_pass(self):
        # merging the s1s1* family cancels s1 s1*, a kid of the family
        # under 1; the next pass reads that family again
        kids_first = {CuntzWord((1, 1), (1, 1)): -1, CuntzWord((1, 2), (1, 2)): -1,
                      CuntzWord((1,), (1,)): 1, CuntzWord((2,), (2,)): 1}
        assert P.build(2, kids_first) == P.word(2, (2,), (2,))
        assert P.build(1, {CuntzWord((1, 1), (1, 1)): -1,
                           CuntzWord((1,), (1,)): 1}).is_zero()


def family_rich_terms(rng, d):
    """A term map with complete families under random parents, two deep at
    random, the parents' own families complete too at random, and a few
    stray words; small integer coefficients, so equal ones are common."""
    def coeff():
        return QRat.of(int(rng.choice([-2, -1, 1, 2])))

    terms = {}
    for _ in range(int(rng.integers(1, 4))):
        base = random_word(rng, d, 1)
        x = int(rng.integers(1, d + 1))
        if rng.integers(0, 2):
            c = coeff()
            for i in range(1, d + 1):
                terms[CuntzWord(base.mu + (i,), base.nu + (i,))] = c
        c = coeff()
        for tail in itertools.product(range(1, d + 1), repeat=int(rng.integers(1, 3))):
            terms[CuntzWord(base.mu + (x,) + tail, base.nu + (x,) + tail)] = c
    for _ in range(int(rng.integers(0, 4))):
        terms[random_word(rng, d, 3)] = coeff()
    return terms


def shuffled(rng, terms):
    items = list(terms.items())
    return dict(items[i] for i in rng.permutation(len(items)))


class TestContractionOrder:
    FOUND = {CuntzWord((1,), (1,)): 1, CuntzWord((2,), (2,)): 1,
             CuntzWord((1, 1), (1, 1)): 2, CuntzWord((1, 2), (1, 2)): 2}

    def test_every_order_of_a_family_and_its_parents_family(self):
        # both families qualify; the deeper one is contracted first
        forms = [P.build(2, dict(order)) for order in itertools.permutations(self.FOUND.items())]
        assert len(forms) == 24
        assert {str(p) for p in forms} == {"3 s1 s1* + s2 s2*"}
        assert all(p == forms[0] for p in forms)

    def test_random_family_rich_maps(self, rng):
        for _ in range(300):
            d = int(rng.integers(1, 4))
            terms = family_rich_terms(rng, d)
            first = P.build(d, dict(terms))
            for _ in range(4):
                again = P.build(d, shuffled(rng, terms))
                assert again == first and str(again) == str(first)

    def test_normal_form_agrees_with_the_fock_oracle(self, rng):
        # contracting c (sum_i psi_{mu i} psi_{nu i}*) to c psi_mu psi_nu*
        # changes the element by c psi_mu (1 - sum_i psi_i psi_i*) psi_nu*,
        # which on the Fock space is c |mu><nu|: it acts only on the string
        # nu, shorter than the longest word L of the map.  So the map and its
        # normal form agree on every column of a string of length >= L
        for _ in range(60):
            d = int(rng.integers(1, 4))
            terms = family_rich_terms(rng, d)
            raw = P(d, dict(terms), True)
            nf = P.build(d, dict(terms))
            top = raw.max_word_length()
            level = 2 * top + 1
            long_cols = fock_dimension(d, top - 1) if top else 0
            diff = fock_matrix(raw, level) - fock_matrix(nf, level)
            assert abs(diff[:, long_cols:]).max() == 0


class TestZeroFamily:
    """A raw polynomial whose complete family has zero coefficients merges
    into a parent it never held: the result is zero, with no KeyError."""

    @pytest.mark.parametrize("exact", [True, False])
    def test_product_and_sum(self, exact):
        zero = QRat.of(0) if exact else 0j
        raw = P(2, {CuntzWord((1,), (1,)): zero, CuntzWord((2,), (2,)): zero}, exact)
        for out in (multiply(raw, P.unit(2)), raw + P.zero(2)):
            assert out.is_zero() and out.exact == exact


class TestAlgebraLaws:
    def test_associativity_exact(self, rng):
        # confluence: the normal form cannot depend on association order
        for _ in range(1000):
            d = int(rng.integers(2, 4))
            a, b, c = (random_poly(rng, d) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_adjoint_antimultiplicative(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 4))
            a, b = random_poly(rng, d), random_poly(rng, d)
            assert multiply(a, b).adjoint() == multiply(b.adjoint(), a.adjoint())

    def test_adjoint_involutive(self, rng):
        for _ in range(50):
            a = random_poly(rng, 2)
            assert a.adjoint().adjoint() == a

    def test_distributivity(self, rng):
        for _ in range(50):
            a, b, c = (random_poly(rng, 2) for _ in range(3))
            assert multiply(a, b + c) == multiply(a, b) + multiply(a, c)

    def test_exactness_preserved(self):
        a = P.word(2, (1,), ()).scale(Fraction(1, 3))
        b = P.word(2, (), (1,)).scale(Fraction(3, 7))
        prod = multiply(a, b)
        assert prod.exact
        assert prod.coefficient((1,), (1,)) == QRat(Fraction(1, 7), Fraction(0))
        # annihilator-first order contracts to the unit word instead
        swapped = multiply(b, a)
        assert swapped.coefficient((), ()) == QRat(Fraction(1, 7), Fraction(0))

    def test_float_contagion(self):
        a = P.word(2, (1,), ()).scale(0.5)
        assert not a.exact
        assert not multiply(a, P.unit(2)).exact


class TestCanonicalEndomorphism:
    def test_unital(self):
        for d in (1, 2, 3):
            assert canonical_endomorphism(P.unit(d)) == P.unit(d)

    def test_shift_on_generator(self):
        out = canonical_endomorphism(P.generator(2, 1))
        assert out.n_terms == 2
        assert out.coefficient((1, 1), (1,)) == QRat(Fraction(1), Fraction(0))
        assert out.coefficient((2, 1), (2,)) == QRat(Fraction(1), Fraction(0))

    def test_multiplicative(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 4))
            a, b = random_poly(rng, d), random_poly(rng, d)
            assert canonical_endomorphism(multiply(a, b)) == multiply(
                canonical_endomorphism(a), canonical_endomorphism(b))


class TestGaugeAction:
    def test_identity_gauge(self, rng):
        p = random_poly(rng, 2)
        assert gauge_act(np.eye(2, dtype=int), p) == p

    def test_sign_gauge_grading(self):
        g = np.diag([1, -1])
        odd = P.word(2, (1,), (2,))
        even = P.word(2, (1,), (1,))
        assert gauge_act(g, odd) == odd.scale(-1)
        assert gauge_act(g, even) == even

    def test_completeness_sum_invariant(self):
        theta = 0.37
        g = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        assert gauge_defect(g, P.unit(2)) == 0.0
        total = P.word(2, (1,), (1,)) + P.word(2, (2,), (2,))
        assert gauge_defect(g, total) == 0.0  # already 1 in normal form

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            gauge_act(np.array([[1, 1], [0, 1]]), P.unit(2))

    def test_commutes_with_star_and_product(self, rng):
        theta = 1.1
        g = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        for _ in range(25):
            a = random_poly(rng, 2, exact=False)
            b = random_poly(rng, 2, exact=False)
            ga, gb = gauge_act(g, a), gauge_act(g, b)
            diff1 = gauge_act(g, a.adjoint()) - ga.adjoint()
            diff2 = gauge_act(g, multiply(a, b)) - multiply(ga, gb)
            for poly in (diff1, diff2):
                assert all(abs(complex(c)) <= 1e-10 for c in poly.terms.values())


def sparse_product_defect(p, q, level):
    """The defect from sparse products of the Fock oracle, on the safe columns."""
    safe = level - p.max_word_length() - q.max_word_length()
    if safe < 0:
        return 0.0, 0
    n_safe = fock_dimension(p.d, safe)
    diff = (fock_matrix(p, level) @ fock_matrix(q, level)
            - fock_matrix(multiply(p, q), level))[:, :n_safe]
    return float(abs(diff).max()), n_safe


class TestFockRepresentation:
    def test_unit_is_identity(self):
        for d, level in ((2, 3), (3, 2)):
            m = fock_matrix(P.unit(d), level).toarray()
            assert np.array_equal(m, np.eye(fock_dimension(d, level)))

    def test_isometry_relation_exact(self):
        s1 = P.generator(2, 1)
        m = fock_matrix(s1, 4)
        rel = (m.conj().T @ m).toarray()
        # psi*psi = 1 holds except on the dropped top level
        n_inner = fock_dimension(2, 3)
        assert np.array_equal(rel[:n_inner, :n_inner], np.eye(n_inner))

    def test_completeness_on_truncated_space(self):
        # matrix products give 1 - |empty><empty| (the Fock vacuum edge);
        # the word-level normal form contracts the same sum to 1 exactly
        total = sum(
            (fock_matrix(P.generator(2, i), 3) @
             fock_matrix(P.generator(2, i), 3).conj().T).toarray()
            for i in (1, 2)
        )
        expected = np.eye(fock_dimension(2, 3))
        expected[0, 0] = 0.0
        assert np.array_equal(total, expected)

    def test_projection_word(self):
        m = fock_matrix(P.word(2, (1,), (1,)), 1).toarray().real
        assert np.array_equal(np.diag(m), [0.0, 1.0, 0.0])

    def test_level_too_small_rejected(self):
        with pytest.raises(ValueError):
            fock_matrix(P.word(2, (1, 2, 1), ()), 2)

    def test_product_consistency_random_words(self, rng):
        for _ in range(300):
            d = int(rng.integers(2, 4))
            def part():
                return tuple(int(x) for x in rng.integers(
                    1, d + 1, size=rng.integers(0, 7)))
            a, b = P.word(d, part(), part()), P.word(d, part(), part())
            defect, n_safe = fock_product_defect(a, b, 12)
            assert defect == 0.0

    def test_product_consistency_polynomials(self, rng):
        for _ in range(40):
            a = random_poly(rng, 2, n_terms=3, max_len=3)
            b = random_poly(rng, 2, n_terms=3, max_len=3)
            defect, n_safe = fock_product_defect(a, b, 9)
            assert n_safe > 0
            assert defect <= 1e-12

    def test_full_sum_contraction_differs_at_the_vacuum_only(self):
        # the normal form contracts s1 s1* + s2 s2* to 1; on the Fock space
        # that sum is 1 - |empty><empty|
        p = parse_expression("s1 + s2", 2)
        q = parse_expression("s1* + s2*", 2)
        assert fock_product_defect(p, q, 4) == (1.0, 7)
        for level in (4, 6, 8):
            defect, n_safe = fock_product_defect(p, q, level)
            diff = (fock_matrix(p, level) @ fock_matrix(q, level)
                    - fock_matrix(multiply(p, q), level)).toarray()[:, :n_safe]
            assert defect == 1.0 and n_safe == fock_dimension(2, level - 2)
            assert np.abs(diff[:, 0]).max() == 1.0
            assert not diff[:, 1:].any()

    def test_inner_full_sum_differs_on_the_suffix_column(self):
        # s1 (s1 s1* + s2 s2*) s2* -> s1 s2*: the difference is |1><2|
        p = parse_expression("s1 s1 + s1 s2", 2)
        q = parse_expression("s1* s2* + s2* s2*", 2)
        defect, n_safe = fock_product_defect(p, q, 6)
        diff = (fock_matrix(p, 6) @ fock_matrix(q, 6)
                - fock_matrix(multiply(p, q), 6)).toarray()[:, :n_safe]
        assert defect == 1.0
        rows, cols = np.nonzero(diff)
        assert list(zip(rows, cols)) == [(1, 2)]  # strings "1" and "2"

    def test_product_consistency_polynomials_full_depth(self, rng):
        # the sparse path at the full oracle depth (d <= 3, length <= 6, L = 12)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            a = random_poly(rng, d, n_terms=2, max_len=6)
            b = random_poly(rng, d, n_terms=2, max_len=6)
            defect, _ = fock_product_defect(a, b, 12)
            assert defect <= 1e-12

    def test_defect_matches_the_sparse_oracle(self, rng):
        # levels one below, at and two above the safe edge: no safe column,
        # the vacuum alone, and many
        seen = set()
        for d in (1, 2, 3):
            for exact in (True, False):
                for _ in range(6):
                    p = random_poly(rng, d, n_terms=int(rng.integers(2, 5)), max_len=3,
                                    exact=exact)
                    q = random_poly(rng, d, n_terms=int(rng.integers(2, 5)), max_len=3,
                                    exact=exact)
                    edge = p.max_word_length() + q.max_word_length()
                    for level in (edge - 1, edge, edge + 2):
                        defect, n_safe = fock_product_defect(p, q, level)
                        want, want_n = sparse_product_defect(p, q, level)
                        assert n_safe == want_n
                        assert abs(defect - want) <= 1e-12 * max(1.0, want)
                        seen.add(min(n_safe, 2))
        assert seen == {0, 1, 2}

    def test_defect_path_leaves_scipy_unloaded(self):
        code = (
            "import sys\n"
            "from sectorlab.cuntz import fock_product_defect, parse_expression\n"
            "p = parse_expression('s1 + 1/2 s2 s1* + 0.25 s2', 2)\n"
            "q = parse_expression('s1* s2 + 3 s2* + s1 s1*', 2)\n"
            "assert p.n_terms > 1 and q.n_terms > 1\n"
            "fock_product_defect(p, q, 7)\n"
            "print('scipy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]


class TestGaugeInvariantEmbedding:
    """Worked example: gauge-invariant words represented on the truncated
    Fock space intertwine the canonical endomorphism with conjugation by
    the represented isometries."""

    LEVEL = 9

    def invariant_words(self):
        # parity gauge diag(1,-1): words with an even number of 2-letters
        words = []
        for mu in [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]:
            for nu in [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]:
                if (mu.count(2) + nu.count(2)) % 2 == 0 and (mu or nu):
                    words.append(P.word(2, mu, nu))
        return words

    def test_words_are_gauge_invariant(self):
        g = np.diag([1, -1])
        for w in self.invariant_words():
            assert gauge_act(g, w) == w

    def test_intertwining_relation(self):
        level = self.LEVEL
        psi = [fock_matrix(P.generator(2, i), level) for i in (1, 2)]
        n_checked = 0
        for c in self.invariant_words():
            image = fock_matrix(c, level)
            lhs = fock_matrix(canonical_endomorphism(c), level)
            rhs = sum(p @ image @ p.conj().T for p in psi)
            safe = fock_dimension(2, level - c.max_word_length() - 2)
            diff = (lhs - rhs).tocoo()
            mask = diff.col < safe
            worst = np.abs(diff.data[mask]).max() if (diff.nnz and mask.any()) else 0.0
            assert worst <= 1e-12
            n_checked += 1
        assert n_checked > 20


class TestExpressionGrammar:
    def test_example_expression(self):
        assert str(parse_expression("s1* s2 s2* s1", 2)) == "0"

    def test_completeness_sum(self):
        assert str(parse_expression("s1 s1* + s2 s2*", 2)) == "1"

    def test_scalars_and_parentheses(self):
        p = parse_expression("2 (s1 + s2) s1*", 2)
        assert p.coefficient((1,), (1,)) == QRat(Fraction(2), Fraction(0))
        assert p.coefficient((2,), (1,)) == QRat(Fraction(2), Fraction(0))

    def test_rational_and_imaginary_literals(self):
        p = parse_expression("1/2 s1 + 3i s2", 2)
        assert p.exact
        assert p.coefficient((1,), ()) == QRat(Fraction(1, 2), Fraction(0))
        assert p.coefficient((2,), ()) == QRat(Fraction(0), Fraction(3))

    def test_float_literal_switches_mode(self):
        assert not parse_expression("0.5 s1", 2).exact

    def test_subtraction(self):
        p = parse_expression("s1 - s1", 2)
        assert p.is_zero()

    def test_bad_generator_index(self):
        with pytest.raises(ExpressionError):
            parse_expression("s3", 2)

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionError):
            parse_expression("(s1", 2)

    def test_round_trip_canonical_text(self, rng):
        for _ in range(20):
            p = random_poly(rng, 2, n_terms=3, max_len=2)
            again = parse_expression(str(p), 2)
            assert again == p


# ---------------------------------------------------------------------------
# the kernels against the pairwise QRat and complex loops they replace
# ---------------------------------------------------------------------------


def _word_product(w1, w2):
    """psi_mu1 psi_nu1* . psi_mu2 psi_nu2*; None when the overlap mismatches."""
    k = min(len(w1.nu), len(w2.mu))
    if w1.nu[:k] != w2.mu[:k]:
        return None
    if len(w1.nu) <= len(w2.mu):
        return CuntzWord(w1.mu + w2.mu[len(w1.nu):], w2.nu)
    return CuntzWord(w1.mu, w2.nu + w1.nu[len(w2.mu):])


def reference_multiply(p, q):
    """Product by pairwise QRat (or complex) arithmetic, term by term."""
    exact = p.exact and q.exact
    out = {}
    for w1, c1 in p._coerced_terms(exact).items():
        for w2, c2 in q._coerced_terms(exact).items():
            w = _word_product(w1, w2)
            if w is None:
                continue
            c = c1 * c2
            if w in out:
                merged = out[w] + c
                if merged:
                    out[w] = merged
                else:
                    del out[w]
            elif c:
                out[w] = c
    return P(p.d, _contract_full_sums(p.d, out), exact)


def letter_by_letter_gauge_act(g, p, exact):
    """Gauge image expanded letter by letter: (((c g) g) ...) per image."""
    def entry(j, i):
        v = g[j - 1, i - 1]
        return QRat.of(v) if exact else complex(v)

    out = {}
    letters = range(1, p.d + 1)
    for w, c in (p.terms if exact else p._coerced_terms(False)).items():
        images = [((), (), c)]
        for letter in w.mu:
            images = [(mu + (j,), nu, coeff * entry(j, letter))
                      for mu, nu, coeff in images for j in letters if entry(j, letter)]
        for letter in w.nu:
            images = [(mu, nu + (j,), coeff * entry(j, letter).conjugate())
                      for mu, nu, coeff in images for j in letters if entry(j, letter)]
        for mu, nu, coeff in images:
            word = CuntzWord(mu, nu)
            if word in out:
                merged = out[word] + coeff
                if merged:
                    out[word] = merged
                else:
                    del out[word]
            elif coeff:
                out[word] = coeff
    return P(p.d, _contract_full_sums(p.d, out), exact)


def reference_gauge_act(g, p, exact):
    """Gauge image with the kernel's association, as a plain loop.

    Exact images are letter by letter (association is immaterial).  A
    floating image is c times the left-to-right product of the mu entries,
    times the left-to-right product of the conjugated nu entries.
    """
    if exact:
        return letter_by_letter_gauge_act(g, p, True)

    def images(s, conj):
        out = [((), 1)]
        for letter in s:
            nxt = []
            for m, z in out:
                for j in range(1, p.d + 1):
                    e = complex(g[j - 1, letter - 1])
                    if e:
                        nxt.append((m + (j,), z * (e.conjugate() if conj else e)))
            out = nxt
        return out

    out = {}
    for w, c in p.terms.items():
        for m, zm in images(w.mu, False):
            for n, zn in images(w.nu, True):
                coeff = complex(c) * zm * zn
                word = CuntzWord(m, n)
                if word in out:
                    merged = out[word] + coeff
                    if merged:
                        out[word] = merged
                    else:
                        del out[word]
                elif coeff:
                    out[word] = coeff
    return P(p.d, _contract_full_sums(p.d, out), False)


def reference_sigma(p):
    out = P.zero(p.d)
    for i in range(1, p.d + 1):
        gen = P.generator(p.d, i)
        out = out + multiply(multiply(gen, p), gen.adjoint())
    return out


def profile_poly(rng, d, n_terms, max_len, exact=True):
    """Seeded terms whose (|mu|, |nu|) run through every pair up to max_len,
    longest first, with small Gaussian-rational or normal complex coefficients."""
    pairs = sorted(((a, b) for a in range(max_len + 1) for b in range(max_len + 1)),
                   key=lambda ab: (-(ab[0] + ab[1]), ab))
    terms = {}
    for t in range(n_terms):
        a, b = pairs[t % len(pairs)]
        w = CuntzWord(tuple(int(x) for x in rng.integers(1, d + 1, a)),
                      tuple(int(x) for x in rng.integers(1, d + 1, b)))
        if exact:
            c = QRat(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))),
                     Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 4))))
        else:
            c = complex(rng.standard_normal(), rng.standard_normal())
        if c:
            terms[w] = c
    return P.build(d, terms)


def float_bits(p):
    return [(w, complex(c).real.hex(), complex(c).imag.hex()) for w, c in p.terms.items()]


F = Fraction
ROTATION = np.array([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]], dtype=object)
GAUSSIAN = np.array([[QRat(F(3, 5), F(0)), QRat(F(0), F(4, 5))],
                     [QRat(F(0), F(4, 5)), QRat(F(3, 5), F(0))]], dtype=object)


def signed_permutation(rng, d):
    g = np.zeros((d, d), dtype=int)
    g[rng.permutation(d), np.arange(d)] = rng.choice([-1, 1], d)
    return g


def exact_gauges(rng, d):
    gs = [np.eye(d, dtype=int), signed_permutation(rng, d), signed_permutation(rng, d)]
    if d == 1:
        gs.append(np.array([[QRat(F(0), F(1))]], dtype=object))
    if d == 2:
        gs += [ROTATION, GAUSSIAN]
    return gs


class TestExactKernels:
    def test_multiply_matches_pairwise_reference(self, rng):
        for d in (1, 2, 3):
            for _ in range(12):
                p = profile_poly(rng, d, int(rng.integers(1, 16)), 3)
                q = profile_poly(rng, d, int(rng.integers(1, 16)), 3)
                got = multiply(p, q)
                want = reference_multiply(p, q)
                assert got.exact and got == want
                assert list(got.terms) == list(want.terms)
                assert str(got) == str(want)
                cube = multiply(got, p)
                assert cube == reference_multiply(want, p)

    def test_gauge_matches_letter_by_letter_reference(self, rng):
        for d in (1, 2, 3):
            for g in exact_gauges(rng, d):
                for _ in range(3):
                    p = profile_poly(rng, d, 16, 2 if d == 3 else 3)
                    got = gauge_act(g, p)
                    want = reference_gauge_act(g, p, True)
                    assert got.exact and got == want
                    assert list(got.terms) == list(want.terms)
                    assert str(got) == str(want)

    def test_heavy_rotation_matches_reference(self, rng):
        p = profile_poly(rng, 2, 32, 4)
        assert gauge_act(ROTATION, p) == reference_gauge_act(ROTATION, p, True)

    def test_gauge_composition_is_exact(self, rng):
        # alpha_g alpha_h = alpha_{gh}: psi_i -> sum_k (g h)_ki psi_k
        for d in (1, 2, 3):
            gs = exact_gauges(rng, d)
            as_qrat = np.vectorize(QRat.of, otypes=[object])
            for g in gs:
                for h in gs:
                    p = profile_poly(rng, d, 8, 2)
                    gh = as_qrat(g) @ as_qrat(h)
                    assert gauge_act(g, gauge_act(h, p)) == gauge_act(gh, p)

    def test_float_coefficients_bit_identical(self, rng):
        for d in (1, 2, 3):
            for _ in range(6):
                p = profile_poly(rng, d, 12, 3, exact=False)
                q = profile_poly(rng, d, 12, 3, exact=bool(rng.integers(0, 2)))
                assert float_bits(multiply(p, q)) == float_bits(reference_multiply(p, q))
                assert float_bits(multiply(q, p)) == float_bits(reference_multiply(q, p))
                u = np.linalg.qr(rng.standard_normal((d, d))
                                 + 1j * rng.standard_normal((d, d)))[0]
                for g, pp in ((u, p), (u, q), (signed_permutation(rng, d), p)):
                    got = gauge_act(g, pp)
                    assert not got.exact
                    assert float_bits(got) == float_bits(reference_gauge_act(g, pp, False))
                    # the letter-by-letter association differs by rounding only
                    old = letter_by_letter_gauge_act(g, pp, False)
                    assert set(got.terms) == set(old.terms)
                    for w, c in old.terms.items():
                        assert abs(got.terms[w] - c) <= 1e-15 * max(1.0, abs(c))

    def test_sigma_is_the_sum_of_products(self, rng):
        for d in (1, 2, 3):
            for _ in range(10):
                p = profile_poly(rng, d, int(rng.integers(0, 20)), 3,
                                 exact=bool(rng.integers(0, 2)))
                assert canonical_endomorphism(p) == reference_sigma(p)

    def test_sigma_on_terms_not_in_normal_form(self):
        one, half = QRat(F(1), F(0)), QRat(F(1, 2), F(0))
        # s1 s1* + s2 s2* and a full family under s1 s2*, held uncontracted
        raw = {CuntzWord((1,), (1,)): one, CuntzWord((2,), (2,)): one,
               CuntzWord((1, 1), (2, 1)): half, CuntzWord((1, 2), (2, 2)): half,
               CuntzWord((2,), ()): one}
        for d, terms in ((2, raw), (1, {CuntzWord((1, 1), (1,)): one,
                                        CuntzWord((), ()): half})):
            p = P(d, dict(terms), True)
            assert canonical_endomorphism(p) == reference_sigma(p)
            assert canonical_endomorphism(p) == canonical_endomorphism(P.build(d, terms))


def assert_same_output(got, want):
    assert got.exact == want.exact and got == want and str(got) == str(want)
    assert list(got.terms) == list(want.terms)
    if not got.exact:
        assert float_bits(got) == float_bits(want)


def assert_matches_reference(p, q):
    assert_same_output(multiply(p, q), reference_multiply(p, q))


def random_coeff(rng, exact):
    if exact:
        return QRat(F(int(rng.integers(1, 6)), int(rng.integers(1, 4))),
                    F(int(rng.integers(-2, 3))))
    return complex(rng.standard_normal(), rng.standard_normal())


class TestPrefixIndex:
    """multiply visits only the prefix-matching pairs; its terms come in the
    order, and with the float bits, of the all-pairs loop."""

    def test_nested_prefix_right_factors(self, rng):
        # creation strings s1, s1 s1, s1 s1 s1 (listed longest first) against
        # annihilation strings shorter, equal, longer and off the chain
        right = [((1, 1, 1), ()), ((1,), (2,)), ((1, 1), ()), ((1,), ()), ((2, 1), (1,)),
                 ((1, 1), (2, 2))]
        left = [((), nu) for nu in ((), (1,), (1, 1), (1, 1, 1), (1, 1, 1, 1), (1, 2), (2,))]
        left.append(((2,), (1, 1)))
        for exact in (True, False):
            for _ in range(5):
                p = P.build(2, {CuntzWord(*w): random_coeff(rng, exact) for w in left})
                q = P.build(2, {CuntzWord(*w): random_coeff(rng, exact)
                                for w in right[::int(rng.choice([-1, 1]))]})
                assert_matches_reference(p, q)
                assert_matches_reference(q, p)
                assert_matches_reference(q.adjoint(), p.adjoint())

    def test_one_letter(self, rng):
        # d = 1: every pair of strings is prefix-comparable
        for exact in (True, False):
            for _ in range(10):
                p = profile_poly(rng, 1, int(rng.integers(1, 12)), 3, exact)
                q = profile_poly(rng, 1, int(rng.integers(1, 12)), 3, exact)
                assert_matches_reference(p, q)

    def test_unit_word_on_either_side(self, rng):
        for d in (1, 2, 3):
            for exact in (True, False):
                p = profile_poly(rng, d, 10, 2, exact)
                q = profile_poly(rng, d, 10, 2, exact)
                unit_first = P.build(d, {CuntzWord((), ()): random_coeff(rng, exact), **p.terms})
                unit_last = P.build(d, {**q.terms, CuntzWord((), ()): random_coeff(rng, exact)})
                for a, b in ((unit_first, unit_last), (unit_last, unit_first),
                             (P.unit(d), q), (q, P.unit(d))):
                    assert_matches_reference(a, b)


class TestGaugeMatrixChecks:
    def test_near_unitary_rational_rejected(self):
        g = np.array([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5) + F(1, 10 ** 12)]], dtype=object)
        # the floating test at 1e-10 d would accept it
        gc = np.asarray(g, dtype=complex)
        assert np.linalg.norm(gc.conj().T @ gc - np.eye(2)) <= 1e-10
        with pytest.raises(ValueError, match="not unitary"):
            gauge_act(g, P.generator(2, 1))

    def test_object_array_of_floats_is_floating(self, rng):
        g = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=object)
        p = profile_poly(rng, 2, 8, 2)
        got = gauge_act(g, p)
        assert not got.exact
        assert float_bits(got) == float_bits(gauge_act(g.astype(float), p))

    def test_gaussian_rational_object_array_is_exact(self, rng):
        p = profile_poly(rng, 2, 8, 2)
        got = gauge_act(GAUSSIAN, p)
        assert got.exact
        assert got == reference_gauge_act(GAUSSIAN, p, True)
        assert gauge_act(GAUSSIAN, P.generator(2, 1)) == P.build(
            2, {CuntzWord((1,), ()): QRat(F(3, 5), F(0)),
                CuntzWord((2,), ()): QRat(F(0), F(4, 5))})

    def test_non_finite_gauge_rejected(self):
        for bad in (np.nan, np.inf):
            g = np.array([[1.0, 0.0], [0.0, bad]])
            with pytest.raises(ValueError, match="non-finite"):
                gauge_act(g, P.generator(2, 1))

    def test_defect_of_non_finite_coefficient_is_inf(self):
        g = np.diag([1.0, -1.0])
        for bad in (complex(np.nan, 0.0), complex(0.0, np.inf)):
            p = P.build(2, {CuntzWord((1,), (2,)): bad, CuntzWord((), ()): 1.0})
            assert gauge_defect(g, p) == np.inf
        assert gauge_defect(g, P.word(2, (1,), (2,))) == 2.0


class TestNoPairwiseFractionArithmetic:
    """Exact kernels accumulate integer numerators: no QRat product per image."""

    @pytest.fixture
    def qrat_products(self, monkeypatch):
        calls = [0]
        original = QRat.__mul__

        def counted(self, other):
            calls[0] += 1
            return original(self, other)

        monkeypatch.setattr(QRat, "__mul__", counted)
        return calls

    def test_multiply_and_sigma(self, rng, qrat_products):
        p, q = profile_poly(rng, 3, 24, 3), profile_poly(rng, 3, 24, 3)
        assert multiply(multiply(p, q), p).n_terms > 0
        canonical_endomorphism(p)
        assert qrat_products[0] == 0

    def test_gauge_act(self, rng, qrat_products):
        for d, g in ((2, ROTATION), (2, GAUSSIAN), (3, signed_permutation(rng, 3))):
            for n_terms in (1, 32):
                qrat_products[0] = 0
                gauge_act(g, profile_poly(rng, d, n_terms, 3))
                assert qrat_products[0] <= d ** 3


class TestOneAccumulationPath:
    """Floating products and gauge images run the numerator kernels too:
    each ends in the one call that builds coefficients from numerators."""

    @pytest.fixture
    def accumulations(self, monkeypatch):
        calls = [0]
        original = cuntz._from_numerators

        def counted(*args):
            calls[0] += 1
            return original(*args)

        def coerced(*args):
            raise AssertionError("a kernel coerced the terms pairwise")

        monkeypatch.setattr(cuntz, "_from_numerators", counted)
        monkeypatch.setattr(P, "_coerced_terms", coerced)
        return calls

    def test_floating_multiply(self, rng, accumulations):
        p = profile_poly(rng, 2, 8, 2, exact=False)
        for q in (profile_poly(rng, 2, 8, 2, exact=False), profile_poly(rng, 2, 8, 2)):
            for a, b in ((p, q), (q, p)):
                accumulations[0] = 0
                assert not multiply(a, b).exact
                assert accumulations[0] > 0

    def test_floating_gauge_act(self, rng, accumulations):
        u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        for g, p in ((u, profile_poly(rng, 2, 8, 2)),
                     (u, profile_poly(rng, 2, 8, 2, exact=False)),
                     (ROTATION, profile_poly(rng, 2, 8, 2, exact=False))):
            accumulations[0] = 0
            assert not gauge_act(g, p).exact
            assert accumulations[0] > 0


def cancelling_parent(d, c):
    """A complete family under s1 s1* with coefficient c, and the parent
    with -c: the merge cancels the parent to zero."""
    terms = {CuntzWord((1, i), (1, i)): c for i in range(1, d + 1)}
    terms[CuntzWord((1,), (1,))] = -c
    return terms


def chained_families(d, c):
    """A complete family under s1 s1* and the other kids of the unit's
    family, all with c: the new parent s1 s1* completes its own family."""
    terms = {CuntzWord((1, i), (1, i)): c for i in range(1, d + 1)}
    terms.update({CuntzWord((i,), (i,)): c for i in range(2, d + 1)})
    return terms


class TestContractionOnNumerators:
    """The kernels contract their numerator pairs before any coefficient is
    built; outputs equal the value-level references in ==, term order,
    text and float bits."""

    def test_constructed_merges(self):
        for d in (1, 2, 3):
            for exact in (True, False):
                c = QRat(F(1, 2), F(-1, 3)) if exact else complex(0.5, -1 / 3)
                cancel = P(d, cancelling_parent(d, c), exact)
                chain = P(d, chained_families(d, c), exact)
                assert multiply(P.unit(d), cancel).is_zero()
                assert multiply(chain, P.unit(d)) == P.unit(d).scale(c)
                assert gauge_act(np.eye(d, dtype=int), chain) == P.unit(d).scale(c)

    def test_parity_sweep_on_family_rich_outputs(self, rng):
        for d in (1, 2, 3):
            letters = range(1, d + 1)
            for exact in (True, False):
                coerce = (lambda c: c) if exact else complex
                for _ in range(25):
                    terms = family_rich_terms(rng, d)
                    c = coerce(QRat.of(int(rng.choice([-2, -1, 1, 2]))))
                    terms.update(cancelling_parent(d, c) if rng.integers(0, 2)
                                 else chained_families(d, c))
                    raw = P(d, {w: coerce(v) for w, v in shuffled(rng, terms).items()}, exact)
                    words = [P.unit(d), P.generator(d, int(rng.choice(letters))),
                             P.generator(d, int(rng.choice(letters))).adjoint(),
                             P.build(d, {random_word(rng, d, 2): coerce(QRat.of(1))})]
                    for x in words:
                        assert_same_output(multiply(x, raw), reference_multiply(x, raw))
                        assert_same_output(multiply(raw, x), reference_multiply(raw, x))
                    gauges = exact_gauges(rng, d)
                    if not exact:
                        gauges.append(np.linalg.qr(rng.standard_normal((d, d))
                                                   + 1j * rng.standard_normal((d, d)))[0])
                    for g in gauges:
                        assert_same_output(gauge_act(g, raw), reference_gauge_act(g, raw, exact))


class TestFloatPairContraction:
    """Floating numerator pairs merge exactly when their complex
    coefficients are equal: a NaN part differs even from the same NaN
    object, 0.0 equals -0.0, and inf equals inf.  Each family is checked
    against the contraction of its complex coefficients."""

    @staticmethod
    def families(d):
        """(kid pairs, parent pair or None) for the family under s1 s2*."""
        nan, inf = float("nan"), float("inf")
        one_pair = [nan, 1.0]
        yield [one_pair] * d, None  # one list, so one NaN object, in every kid
        yield [[nan, 1.0] for _ in range(d)], None  # one NaN object, distinct lists
        yield [[float("nan"), 1.0] for _ in range(d)], None  # distinct NaN objects
        yield [[1.0, nan] for _ in range(d)], [2.0, 0.0]
        yield [[1.0, -0.0 if i % 2 else 0.0] for i in range(d)], None
        yield [[-0.0 if i % 2 else 0.0, 2.0] for i in range(d)], [0.0, -2.0]
        yield [[-0.0 if i % 2 else 0.0, 2.0] for i in range(d)], [-0.0, 1.0]
        yield [[inf, -1.0] for _ in range(d)], None
        yield [[inf, -1.0] for _ in range(d)], [-inf, 1.0]
        yield [[inf, 0.0] for _ in range(d - 1)] + [[-inf, 0.0]], None

    def test_families_merge_as_complex_values_do(self):
        parent_word = ((1,), (2,))
        for d in (1, 2, 3):
            for kids, parent in self.families(d):
                items = [(((1, i), (2, i)), pair) for i, pair in zip(range(1, d + 1), kids)]
                orders = [items]
                if parent is not None:
                    orders = [[(parent_word, parent)] + items, items + [(parent_word, parent)]]
                for order in orders:
                    values = {CuntzWord(*w): complex(*pair) for w, pair in order}
                    want = _contract_full_sums(d, values)
                    got = cuntz._from_numerators(d, dict(order), 1, False)
                    assert list(got) == list(want)
                    assert [(z.real.hex(), z.imag.hex()) for z in got.values()] == \
                        [(z.real.hex(), z.imag.hex()) for z in want.values()]


class TestOneCoefficientPerDistinctValue:
    """An exact kernel builds one Fraction per distinct nonzero numerator and
    one QRat per distinct coefficient of its contracted output."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = {"Fraction": 0, "QRat": 0}
        new, init = Fraction.__new__, QRat.__init__

        def counted_new(cls, *args, **kwargs):
            counts["Fraction"] += 1
            return new(cls, *args, **kwargs)

        def counted_init(self, *args):
            counts["QRat"] += 1
            init(self, *args)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
        monkeypatch.setattr(QRat, "__init__", counted_init)
        return counts

    @staticmethod
    def check(counts, run):
        counts.update(Fraction=0, QRat=0)
        out = run()
        coeffs = set(out.terms.values())
        parts = {x for c in coeffs for x in (c.re, c.im) if x}
        assert out.exact
        assert counts["Fraction"] <= len(parts)
        assert counts["QRat"] <= len(coeffs)
        return out.n_terms - len(coeffs)

    def test_multiply_and_gauge_act(self, rng, built):
        as_qrat = np.vectorize(QRat.of, otypes=[object])
        for d in (1, 2, 3):
            p = P.build(d, {random_word(rng, d, 3): QRat.of(int(rng.choice([-1, 1, 2])))
                            for _ in range(12)})
            q = P.build(d, family_rich_terms(rng, d))
            r = profile_poly(rng, d, 24, 3)
            # small integer coefficients repeat, so one build per word is
            # too many there
            assert self.check(built, lambda: multiply(p, q)) > 0
            assert self.check(built, lambda: multiply(q, p)) > 0
            self.check(built, lambda: multiply(r, p))
            for g in exact_gauges(rng, d):
                # entries as QRat, so that reading g builds no Fraction
                g = as_qrat(g)
                assert self.check(built, lambda: gauge_act(g, p)) > 0
        heavy, rotation = profile_poly(rng, 2, 32, 4), as_qrat(ROTATION)
        assert self.check(built, lambda: gauge_act(rotation, heavy)) > 0


class TestDimension:
    @pytest.mark.parametrize("d", [0, -1, -3])
    def test_every_constructor_rejects_d_below_one(self, d):
        for make in (lambda: P.unit(d), lambda: P.zero(d), lambda: P(d, {}, True),
                     lambda: P.build(d, {}), lambda: P.word(d, (), ()),
                     lambda: parse_expression("2 + 1/2", d)):
            with pytest.raises(ValueError, match="at least 1"):
                make()
        with pytest.raises(ValueError):
            P.generator(d, 1)
