"""`words` workload: exact Cuntz word arithmetic.

Pure-Python dictionary arithmetic with no BLAS: products and powers, the
canonical endomorphism, gauge actions and the Fock product defect, on a
ladder of word lengths and term counts.  Every output is checked on the
Fock space the benchmark builds itself (oracles.act, oracles.fock_dense).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import oracles as orc
from common import Op, require
from sectorlab import cuntz

NOMINAL_ROUND_S = 0.7
COPIES = 4

#: exact rational unitary (a Pythagorean rotation)
ROTATION = np.array([[Fraction(3, 5), Fraction(-4, 5)],
                     [Fraction(4, 5), Fraction(3, 5)]], dtype=object)


def random_poly(rng, d: int, terms: int, max_len: int, exact: bool = True):
    """Seeded letters and coefficients on a fixed profile of word lengths.

    Lengths (|mu|, |nu|) run through every pair up to ``max_len``, longest
    first, so the cost of an operation hardly depends on the seed.
    """
    pairs = sorted(((a, b) for a in range(max_len + 1) for b in range(max_len + 1)),
                   key=lambda ab: (-(ab[0] + ab[1]), ab))
    raw = {}
    j = 0
    while len(raw) < terms:
        # one draw per batch of terms, two to three times faster than
        # drawing letter by letter
        lengths = [pairs[(j + t) % len(pairs)] for t in range(terms - len(raw))]
        j += len(lengths)
        letters = iter(rng.integers(1, d + 1, sum(a + b for a, b in lengths)).tolist())
        if exact:
            # sign, |re| numerator, re denominator, im numerator, im denominator
            coeffs = rng.integers([0, 1, 1, -2, 1], [2, 6, 5, 3, 4], (len(lengths), 5)).tolist()
        else:
            coeffs = rng.standard_normal((len(lengths), 2)).tolist()
        for (a, b), c in zip(lengths, coeffs):
            word = cuntz.CuntzWord(tuple(next(letters) for _ in range(a)),
                                   tuple(next(letters) for _ in range(b)))
            if word in raw:
                continue
            if exact:
                raw[word] = cuntz.QRat(Fraction((2 * c[0] - 1) * c[1], c[2]),
                                       Fraction(c[3], c[4]))
            else:
                raw[word] = complex(*c)
    return cuntz.CuntzPolynomial.build(d, raw)


def terms_of(p):
    return [(w.mu, w.nu, complex(c)) for w, c in p.terms.items()]


def columns(rng, d: int, length: int, limit: int = 8):
    """A seeded sample of basis strings of one length."""
    strs = orc.strings(d, length)
    if len(strs) <= limit:
        return strs
    return [strs[i] for i in sorted(rng.choice(len(strs), limit, replace=False))]


def agree(got: dict, want: dict, what: str) -> None:
    scale = max(1.0, orc.vec_norm(want))
    require(orc.vec_distance(got, want) <= 1e-9 * scale, f"{what}: Fock columns differ")


def power_slot(d: int, terms: int, max_len: int, power: int, exact: bool = True):
    def make(rng, k):
        p = random_poly(rng, d, terms, max_len, exact)
        tp = terms_of(p)
        # past this length the Cuntz normal form and the Fock action agree
        cols = columns(rng, d, power * p.max_word_length() + 1)

        def call():
            r = p
            for _ in range(power - 1):
                r = cuntz.multiply(r, p)
            return r

        def check(r):
            tr = terms_of(r)
            for s in cols:
                want = {s: 1}
                for _ in range(power):
                    want = orc.act(tp, want)
                agree(orc.act(tr, {s: 1}), want, f"p^{power}")
        return Op("multiply", call, check)
    return make


def canonical_slot(d: int, terms: int, max_len: int):
    def make(rng, k):
        p = random_poly(rng, d, terms, max_len)
        tp = terms_of(p)
        cols = columns(rng, d, p.max_word_length() + 2)

        def check(r):
            tr = terms_of(r)
            for s in cols:
                # sigma(p) = sum_i psi_i p psi_i*: strip s[0], apply p, put it back
                want = orc.act_letters([(s[0], False)], orc.act(tp, {s[1:]: 1}))
                agree(orc.act(tr, {s: 1}), want, "sigma(p)")
        return Op("canonical_endomorphism", lambda: cuntz.canonical_endomorphism(p), check)
    return make


def gauge_slot(d: int, terms: int, max_len: int, kind: str):
    def make(rng, k):
        if kind == "rotation":
            g = ROTATION
        elif kind == "signed_permutation":
            g = np.zeros((d, d), dtype=int)
            g[rng.permutation(d), np.arange(d)] = rng.choice([-1, 1], d)
        else:
            g = orc.random_unitary(rng, d)
        p = random_poly(rng, d, terms, max_len)
        tp = terms_of(p)
        cols = columns(rng, d, p.max_word_length() + 1, limit=4)

        def check(r):
            require(r.exact == (kind != "unitary"), "exactness of the gauge image")
            tr = terms_of(r)
            for s in cols:
                # F(alpha_g(p)) G = G F(p), with G the second quantisation of g
                want = orc.gauge_fock(g, orc.act(tp, {s: 1}))
                agree(orc.act(tr, orc.gauge_fock(g, {s: 1})), want, f"gauge ({kind})")
        return Op("gauge_act", lambda: cuntz.gauge_act(g, p), check)
    return make


def defect_slot(d: int, terms: int, max_len: int, level: int):
    def make(rng, k):
        if terms == 1:
            p = cuntz.CuntzPolynomial.word(d, *_word(rng, d, max_len))
            q = cuntz.CuntzPolynomial.word(d, *_word(rng, d, max_len))
        else:
            p = random_poly(rng, d, terms, max_len)
            q = random_poly(rng, d, terms, max_len)
        pq = cuntz.multiply(p, q)  # input preparation, not timed

        def check(out):
            defect, n_safe = out
            safe = level - p.max_word_length() - q.max_word_length()
            want_n = orc.fock_dimension(d, safe) if safe >= 0 else 0
            require(n_safe == want_n, f"{n_safe} safe columns, expected {want_n}")
            if want_n == 0:
                return
            fp, fq, fpq = (orc.fock_dense(terms_of(x), d, level) for x in (p, q, pq))
            want = float(np.abs(fp @ fq[:, :want_n] - fpq[:, :want_n]).max())
            require(abs(defect - want) <= 1e-9 * max(1.0, want),
                    f"defect {defect} != dense {want}")
        return Op("fock_product_defect", lambda: cuntz.fock_product_defect(p, q, level), check)
    return make


def _word(rng, d: int, max_len: int):
    mu = [int(x) for x in rng.integers(1, d + 1, rng.integers(1, max_len + 1))]
    nu = [int(x) for x in rng.integers(1, d + 1, rng.integers(1, max_len + 1))]
    return mu, nu


def prepare(seed: int):
    return {}


def slots(ctx):
    """One heavy gauge image, then the light slots in four seeded copies.

    As in the thermal workload, the heavy slot's cost is ``op_tail_s``.
    """
    light = [
        power_slot(2, 12, 3, 3),
        canonical_slot(2, 64, 4),
        gauge_slot(3, 48, 3, "signed_permutation"),
        defect_slot(2, 1, 3, 8),
        power_slot(2, 24, 3, 2),
        gauge_slot(2, 16, 3, "rotation"),
        canonical_slot(3, 64, 3),
        power_slot(3, 24, 3, 2),
        gauge_slot(2, 32, 3, "unitary"),
        defect_slot(2, 8, 2, 8),
        power_slot(2, 12, 3, 3, exact=False),
        gauge_slot(3, 16, 2, "unitary"),
        canonical_slot(3, 32, 2),
    ]
    return [gauge_slot(2, 32, 4, "rotation")] + light * COPIES
