"""Exact word arithmetic in the algebra of d isometries.

Elements are finite combinations of normal-form words: a creation string
followed by an annihilation string, psi_mu psi_nu*.  Multiplication
contracts by prefix matching (psi_i* psi_j = delta_ij); the completeness
relation sum_i psi_i psi_i* = 1 is applied as a one-directional
simplification that collapses a literal full sum with equal coefficients
into its parent word, deepest sums first.  This gives normal forms
without general rewriting machinery; a normal form is a function of the
term map (not of its order), but not a canonical form for the underlying
algebra element: 1 + 2 s1 s1* and 3 s1 s1* + s2 s2* are one element.

Coefficients stay exact complex rationals as long as every input is
rational; any float input switches the polynomial to floating mode.
Both modes share the kernels (products, the gauge action): they write
the inputs as numerator pairs over one common denominator (Gaussian
integers when exact, float parts over 1 when not) and accumulate pairs
per output word.  The full-sum contraction then runs on those pairs,
which is sound because one denominator serves every word, and only the
words that survive it get a coefficient: one Fraction per distinct
numerator and one QRat per distinct pair when exact.  A product visits
only the pairs of terms that contract, found through an index of the
right factor's creation strings and their prefixes.  The canonical
endomorphism is a relabelling of words and does no arithmetic.

A truncated Fock representation serves as the independent oracle for
the rewriting rules: on index strings of length <= level, s_i prepends
the letter i (annihilating strings at the top length) and s_i* strips a
matching first letter.  :func:`fock_product_defect` composes its index
maps with numpy alone.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _linalg as la
from .errors import ExpressionError


@dataclass(frozen=True)
class QRat:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(value) -> "QRat":
        if isinstance(value, QRat):
            return value
        if isinstance(value, (int, Fraction, numbers.Integral)):
            return QRat(Fraction(int(value) if isinstance(value, numbers.Integral)
                                 else value), Fraction(0))
        raise TypeError(f"not exactly representable: {value!r}")

    def __add__(self, other: "QRat") -> "QRat":
        return QRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QRat") -> "QRat":
        return QRat(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "QRat") -> "QRat":
        return QRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "QRat":
        return QRat(-self.re, -self.im)

    def conjugate(self) -> "QRat":
        return QRat(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


QRAT_ONE = QRat(Fraction(1), Fraction(0))


class CuntzWord(NamedTuple):
    """Normal-form word psi_mu psi_nu*; letters are 1..d."""

    mu: tuple[int, ...]
    nu: tuple[int, ...]

    def sort_key(self):
        return (len(self.mu), self.mu, len(self.nu), self.nu)

    def adjoint(self) -> "CuntzWord":
        return CuntzWord(self.nu, self.mu)

    def max_length(self) -> int:
        return max(len(self.mu), len(self.nu))


UNIT_WORD = CuntzWord((), ())


def _is_exact_scalar(c) -> bool:
    return isinstance(c, (Fraction, QRat, numbers.Integral))


def _value_sum(old, c):
    return c if old is None else old + c


def _pair_differs(a, b) -> bool:
    """``a != b`` for numerator pairs (or a None ``a``) as for their complex
    coefficients: part by part, so that a NaN part differs even from itself
    (a list or tuple comparison would call one NaN object equal to itself)."""
    return a is None or a[0] != b[0] or a[1] != b[1]


def _pair_sum(old, c):
    """old + c for numerator pairs (c when old is None); None when zero."""
    if old is None:
        return c if c[0] or c[1] else None
    re = old[0] + c[0]
    im = old[1] + c[1]
    return [re, im] if re or im else None


def _contract_full_sums(d: int, terms: dict, differ=operator.ne, add=_value_sum) -> dict:
    """Collapse every literal complete sum psi_{mu i} psi_{nu i}* with equal
    coefficients into its parent word psi_mu psi_nu*, deepest families first.

    The parent of a word is unique, so the families of one depth are
    disjoint, and merging one changes only its parent, two letters shorter:
    after the families of depth n, only those of depth n - 2 can gain or
    lose kids.  One pass from the deepest families up is therefore complete,
    and its result depends only on the term map, not on its order:
    s1 s1* + s2 s2* + 2 s1 s1 s1* s1* + 2 s1 s2 s2* s1* gives
    3 s1 s1* + s2 s2* however its terms are ordered.

    Keys are CuntzWords or plain (mu, nu) tuples.  Values take part only
    through two functions of (old, c), old a value or None for a word not
    in the map: ``differ`` is true unless old is a coefficient equal to
    c, and ``add`` returns old + c (c when old is None), falsy exactly
    when zero.  The defaults serve QRat and complex values; the kernels
    contract their numerator pairs with :func:`_pair_differs` and
    :func:`_pair_sum`.
    """
    # parents as plain (mu, nu) tuples, which hash and compare equal to the
    # CuntzWord keys; a CuntzWord is made only for a family that merges
    counts: dict[tuple, int] = {}
    for mu, nu in terms:
        if mu and nu and mu[-1] == nu[-1]:
            parent = (mu[:-1], nu[:-1])
            counts[parent] = counts.get(parent, 0) + 1
    # parents whose family may be complete, by depth len(mu) + len(nu)
    pending: dict[int, list[tuple]] = {}
    for (mu, nu), n in counts.items():
        if n == d:
            pending.setdefault(len(mu) + len(nu), []).append((mu, nu))
    if not pending:
        return terms
    letters = range(1, d + 1)
    get = terms.get
    for depth in range(max(pending), -1, -1):
        for mu, nu in pending.pop(depth, ()):
            kids = [(mu + (i,), nu + (i,)) for i in letters]
            c = get(kids[0])
            if c is None or any(differ(get(w), c) for w in kids[1:]):
                continue
            for w in kids:
                del terms[w]
            parent = tuple.__new__(CuntzWord, (mu, nu))
            old = get(parent)
            merged = add(old, c)
            if merged:
                terms[parent] = merged
            elif old is not None:
                del terms[parent]
            if old is None and mu and nu and mu[-1] == nu[-1]:
                # a new kid may complete its own parent's family
                pending.setdefault(depth - 2, []).append((mu[:-1], nu[:-1]))
    return terms


@dataclass(frozen=True, eq=False)
class CuntzPolynomial:
    """Finite combination of normal-form words with dimension d.

    ``exact`` records whether coefficients are exact complex rationals
    (QRat) or floating complex numbers.  Instances are immutable; all
    arithmetic returns new polynomials in normal form.
    """

    d: int
    terms: dict
    exact: bool

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be at least 1")

    @staticmethod
    def build(d: int, raw_terms: dict) -> "CuntzPolynomial":
        """Normalize a word -> coefficient mapping into a polynomial."""
        exact = all(_is_exact_scalar(c) for c in raw_terms.values())
        terms: dict[CuntzWord, object] = {}
        for w, c in raw_terms.items():
            word = w if isinstance(w, CuntzWord) else CuntzWord(tuple(w[0]), tuple(w[1]))
            for letter in word.mu + word.nu:
                if not 1 <= letter <= d:
                    raise ValueError(f"letter {letter} outside 1..{d}")
            coeff = QRat.of(c) if exact else complex(c)
            if word in terms:
                coeff = terms[word] + coeff
            if coeff:
                terms[word] = coeff
            elif word in terms:
                del terms[word]
        return CuntzPolynomial(d, _contract_full_sums(d, terms), exact)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(d: int) -> "CuntzPolynomial":
        return CuntzPolynomial(d, {}, True)

    @staticmethod
    def unit(d: int) -> "CuntzPolynomial":
        return CuntzPolynomial(d, {UNIT_WORD: QRAT_ONE}, True)

    @staticmethod
    def generator(d: int, i: int) -> "CuntzPolynomial":
        """The isometry psi_i."""
        if not 1 <= i <= d:
            raise ValueError(f"generator index {i} outside 1..{d}")
        return CuntzPolynomial(d, {CuntzWord((i,), ()): QRAT_ONE}, True)

    @staticmethod
    def word(d: int, mu, nu, coeff=1) -> "CuntzPolynomial":
        return CuntzPolynomial.build(d, {CuntzWord(tuple(mu), tuple(nu)): coeff})

    # -- structure ---------------------------------------------------------

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def max_word_length(self) -> int:
        return max((w.max_length() for w in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[CuntzWord, object]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def coefficient(self, mu, nu):
        return self.terms.get(CuntzWord(tuple(mu), tuple(nu)), 0)

    def __eq__(self, other) -> bool:
        """Exact equality of coefficient maps (same mode, same terms)."""
        if not isinstance(other, CuntzPolynomial):
            return NotImplemented
        if self.d != other.d or set(self.terms) != set(other.terms):
            return False
        for w, c in self.terms.items():
            if self.exact == other.exact:
                if c != other.terms[w]:
                    return False
            elif complex(c) != complex(other.terms[w]):
                return False
        return True

    # -- arithmetic ---------------------------------------------------------

    def _coerced_terms(self, exact: bool) -> dict:
        if exact or not self.exact:
            return dict(self.terms)
        return {w: complex(c) for w, c in self.terms.items()}

    def __add__(self, other: "CuntzPolynomial") -> "CuntzPolynomial":
        if self.d != other.d:
            raise ValueError("polynomials have different dimensions")
        exact = self.exact and other.exact
        out = self._coerced_terms(exact)
        for w, c in other._coerced_terms(exact).items():
            merged = out[w] + c if w in out else c
            if merged:
                out[w] = merged
            elif w in out:
                del out[w]
        return CuntzPolynomial(self.d, _contract_full_sums(self.d, out), exact)

    def __neg__(self) -> "CuntzPolynomial":
        return CuntzPolynomial(self.d, {w: -c for w, c in self.terms.items()},
                               self.exact)

    def __sub__(self, other: "CuntzPolynomial") -> "CuntzPolynomial":
        return self + (-other)

    def scale(self, scalar) -> "CuntzPolynomial":
        if not self.terms:
            return self
        exact = self.exact and _is_exact_scalar(scalar)
        if exact:
            s = QRat.of(scalar)
            terms = {w: c * s for w, c in self.terms.items()}
        else:
            s = complex(scalar)
            terms = {w: complex(c) * s for w, c in self.terms.items()}
        terms = {w: c for w, c in terms.items() if c}
        return CuntzPolynomial(self.d, terms, exact)

    def __mul__(self, other):
        if isinstance(other, CuntzPolynomial):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def adjoint(self) -> "CuntzPolynomial":
        terms = {
            w.adjoint(): (c.conjugate() if self.exact else complex(c).conjugate())
            for w, c in self.terms.items()
        }
        return CuntzPolynomial(self.d, _contract_full_sums(self.d, terms),
                               self.exact)

    def __str__(self) -> str:
        return format_polynomial(self)


def _numerators(terms: dict, exact: bool) -> tuple[list, int]:
    """Coefficients as numerator pairs over one common denominator.

    Returns ([(key, re, im), ...], den) in the order of ``terms``: each
    coefficient is (re + im i) / den: Gaussian integers over the lcm of the
    denominators when exact, else float parts over den = 1.
    """
    if not exact:
        return [(key, z.real, z.imag)
                for key, z in zip(terms, map(complex, terms.values()))], 1
    coeffs = [QRat.of(c) for c in terms.values()]
    den = math.lcm(*(c.re.denominator for c in coeffs),
                   *(c.im.denominator for c in coeffs))
    return [
        (key, c.re.numerator * (den // c.re.denominator),
         c.im.numerator * (den // c.im.denominator))
        for key, c in zip(terms, coeffs)
    ], den


_ZERO = Fraction(0)


def _from_numerators(d: int, out: dict, den: int, exact: bool) -> dict:
    """Accumulated numerators over ``den`` as contracted terms.

    ``out`` maps plain (mu, nu) tuples to [re, im].  Every word shares
    ``den``, so two pairs are equal exactly when their coefficients are, and
    a merge adds pairs part by part: the contraction runs on the pairs, and
    only the words that survive it become CuntzWords with coefficients, in
    the order of ``out``.  An exact output builds one Fraction per distinct
    nonzero numerator and one QRat per distinct pair.  A floating (0, 0)
    pair, which only underflow makes, is dropped before the contraction.
    """
    new = tuple.__new__
    if not exact:
        out = {w: pair for w, pair in out.items() if pair[0] or pair[1]}
        out = _contract_full_sums(d, out, _pair_differs, _pair_sum)
        return {new(CuntzWord, w): complex(re, im) for w, (re, im) in out.items()}
    out = _contract_full_sums(d, out, _pair_differs, _pair_sum)
    parts = {0: _ZERO}
    coeffs: dict[tuple, QRat] = {}
    terms = {}
    for w, (re, im) in out.items():
        c = coeffs.get((re, im))
        if c is None:
            x = parts.get(re)
            if x is None:
                x = parts[re] = Fraction(re, den)
            y = parts.get(im)
            if y is None:
                y = parts[im] = Fraction(im, den)
            c = coeffs[re, im] = QRat(x, y)
        terms[new(CuntzWord, w)] = c
    return terms


class _PrefixMatches(dict):
    """The terms of q that a left annihilation string nu contracts with.

    psi_nu* psi_mu2 is non-zero iff one string is a prefix of the other:
    mu2 = nu[:k] for some k <= |nu|, or mu2 extends nu.  q's positions are
    indexed once by exact mu2 and by every proper prefix of mu2.  ``self[nu]``
    (built on first use) lists the matching terms in q's order as
    (mu tail, nu of the product, re, im): psi_mu1 psi_nu* times such a term
    is psi_{mu1 + tail} psi_{nu of the product}*.
    """

    def __init__(self, qn: list):
        super().__init__()
        self.qn = qn
        self.by_mu: dict = {}
        self.by_prefix: dict = {}
        for pos, ((mu, _), _, _) in enumerate(qn):
            self.by_mu.setdefault(mu, []).append(pos)
            for k in range(len(mu)):
                self.by_prefix.setdefault(mu[:k], []).append(pos)

    def __missing__(self, nu: tuple) -> list:
        positions = list(self.by_prefix.get(nu, ()))
        for k in range(len(nu) + 1):
            positions += self.by_mu.get(nu[:k], ())
        n = len(nu)
        hits = []
        for pos in sorted(positions):
            (mu2, nu2), c, e = self.qn[pos]
            if len(mu2) >= n:
                hits.append((mu2[n:], nu2, c, e))
            else:
                hits.append(((), nu2 + nu[len(mu2):], c, e))
        self[nu] = hits
        return hits


def multiply(p: CuntzPolynomial, q: CuntzPolynomial) -> CuntzPolynomial:
    """Product in normal form: prefix contraction term by term.

    Each term of p meets only the terms of q whose creation string is
    prefix-comparable with its annihilation string (:class:`_PrefixMatches`),
    in q's order.  Numerator pairs accumulate per output word over the
    product of the two common denominators; a floating pair is CPython's
    complex product.  A word that cancels and comes back is re-inserted at
    the end, so the order of the terms is the order of pairwise
    accumulation.
    """
    if p.d != q.d:
        raise ValueError("polynomials have different dimensions")
    exact = p.exact and q.exact
    pn, pden = _numerators(p.terms, exact)
    qn, qden = _numerators(q.terms, exact)
    matches = _PrefixMatches(qn)
    acc: dict[tuple, list] = {}
    get = acc.get
    for (mu1, nu1), a, b in pn:
        for tail, nu, c, e in matches[nu1]:
            w = (mu1 + tail, nu)
            re = a * c - b * e
            im = a * e + b * c
            cur = get(w)
            if cur is None:
                acc[w] = [re, im]
            else:
                re = cur[0] + re
                im = cur[1] + im
                if re or im:
                    cur[0] = re
                    cur[1] = im
                else:
                    del acc[w]
    return CuntzPolynomial(p.d, _from_numerators(p.d, acc, pden * qden, exact), exact)


def canonical_endomorphism(p: CuntzPolynomial) -> CuntzPolynomial:
    """sigma(C) = sum_i psi_i C psi_i*; unital and multiplicative.

    In closed form psi_mu psi_nu* -> sum_i psi_{i mu} psi_{i nu}*, with the
    unit word kept as it is (sum_i psi_i psi_i* is 1 in normal form).
    """
    out: dict[CuntzWord, object] = {}
    new = tuple.__new__
    for i in range(1, p.d + 1):
        for (mu, nu), c in p.terms.items():
            if (mu or nu) and c:
                out[new(CuntzWord, ((i,) + mu, (i,) + nu))] = c
    unit = p.terms.get(UNIT_WORD)
    if unit:
        out[UNIT_WORD] = unit
    return CuntzPolynomial(p.d, _contract_full_sums(p.d, out), p.exact)


def _matrix_is_exact(g: np.ndarray) -> bool:
    return all(_is_exact_scalar(v) for v in g.flat)


def _expand(s: tuple[int, ...], memo: dict, cols: dict) -> list:
    """Images (letters, re, im) of the string ``s`` under the column table.

    Each string extends the memoised expansion of its prefix by one letter.
    """
    images = memo.get(s)
    if images is None:
        images = [
            (m + (j,), a * x - b * y, a * y + b * x)
            for m, a, b in _expand(s[:-1], memo, cols)
            for j, x, y in cols[s[-1]]
        ]
        memo[s] = images
    return images


def _gauge(entry: dict, gden: int, p: CuntzPolynomial, exact: bool) -> CuntzPolynomial:
    """Gauge image for g = G / gden, ``entry[j, i]`` = G_ji as (re, im).

    p's coefficients are written over one denominator Q; each mu string is
    expanded under G and each nu string under conj(G) once (memoised by
    prefix); numerators accumulate over Q gden^Lmax, Lmax the longest
    |mu| + |nu|, and contracted as in :func:`_from_numerators`.  An image is
    c (prod of mu entries) (prod of conjugated nu entries), left to right.
    """
    letters = range(1, p.d + 1)
    mu_cols = {i: [(j, *entry[j, i]) for j in letters if any(entry[j, i])]
               for i in letters}
    nu_cols = {i: [(j, x, -y) for j, x, y in mu_cols[i]] for i in letters}
    mu_memo: dict = {(): [((), 1, 0)]}
    nu_memo: dict = {(): [((), 1, 0)]}
    terms, den = _numerators(p.terms, exact)
    lmax = max((len(w.mu) + len(w.nu) for w, _, _ in terms), default=0)
    acc: dict[tuple, list] = {}
    get = acc.get
    for w, a, b in terms:
        scale = gden ** (lmax - len(w.mu) - len(w.nu))
        a *= scale
        b *= scale
        nus = _expand(w.nu, nu_memo, nu_cols)
        for m, x, y in _expand(w.mu, mu_memo, mu_cols):
            ca, cb = a * x - b * y, a * y + b * x
            for n, u, v in nus:
                # accumulated as in multiply
                key = (m, n)
                re = ca * u - cb * v
                im = ca * v + cb * u
                cur = get(key)
                if cur is None:
                    acc[key] = [re, im]
                else:
                    re = cur[0] + re
                    im = cur[1] + im
                    if re or im:
                        cur[0] = re
                        cur[1] = im
                    else:
                        del acc[key]
    return CuntzPolynomial(p.d, _from_numerators(p.d, acc, den * gden ** lmax, exact),
                           exact)


def gauge_act(g: np.ndarray, p: CuntzPolynomial) -> CuntzPolynomial:
    """The gauge automorphism psi_i -> sum_j g_ji psi_j, extended to words.

    ``g`` must be unitary.  It is exact when every entry is an integer,
    ``Fraction`` or ``QRat`` (whatever the array's dtype); an exact g must
    satisfy g* g = 1 exactly.  Any other g is checked in floating point and
    must be finite.  The image is exact when both g and p are.

    Both modes run :func:`_gauge`: exact work writes g = G / D with
    Gaussian-integer G, floating work passes g's float parts over D = 1.
    """
    g = np.asarray(g)
    d = p.d
    if g.shape != (d, d):
        raise ValueError("gauge matrix must be d x d")
    letters = range(1, d + 1)
    cells = {(j, i): g[j - 1, i - 1] for i in letters for j in letters}
    if _matrix_is_exact(g):
        gn, gden = _numerators(cells, True)
        entry = {key: (re, im) for key, re, im in gn}
        for i in letters:
            for k in letters:
                # (g* g)_ik D^2 = sum_j conj(G_ji) G_jk
                re = im = 0
                for j in letters:
                    a, b = entry[j, i]
                    c, e = entry[j, k]
                    re += a * c + b * e
                    im += a * e - b * c
                if re != (gden * gden if i == k else 0) or im:
                    raise ValueError("gauge matrix is not unitary")
        if p.exact:
            return _gauge(entry, gden, p, True)
    else:
        gc = np.asarray(g, dtype=complex)
        if not np.isfinite(gc).all():
            raise ValueError("gauge matrix has non-finite entries")
        if np.linalg.norm(la.dagger(gc) @ gc - np.eye(d)) > 1e-10 * d:
            raise ValueError("gauge matrix is not unitary")
    gn, _ = _numerators(cells, False)
    return _gauge({key: (re, im) for key, re, im in gn}, 1, p, False)


def gauge_defect(g: np.ndarray, p: CuntzPolynomial) -> float:
    """max coefficient deviation between p and its gauge image.

    ``inf`` when a coefficient of p or of its image is not finite.
    """
    q = gauge_act(g, p)
    worst = 0.0
    for w in set(p.terms) | set(q.terms):
        a = complex(p.terms.get(w, 0))
        b = complex(q.terms.get(w, 0))
        if not (cmath.isfinite(a) and cmath.isfinite(b)):
            return math.inf
        worst = max(worst, abs(a - b))
    return worst


# ---------------------------------------------------------------------------
# truncated Fock representation (the oracle)
# ---------------------------------------------------------------------------


def fock_dimension(d: int, level: int) -> int:
    """Number of index strings of length <= level."""
    if d == 1:
        return level + 1
    return (d ** (level + 1) - 1) // (d - 1)


def _string_offsets(d: int, level: int) -> np.ndarray:
    return np.concatenate([[0], np.cumsum([d ** l for l in range(level + 1)])])


_TAILS_CACHE: dict[int, np.ndarray] = {}


def _tails(span: int) -> np.ndarray:
    """Read-only arange cache for the word index maps."""
    cached = _TAILS_CACHE.get(span)
    if cached is None:
        cached = np.arange(span, dtype=np.int64)
        cached.setflags(write=False)
        _TAILS_CACHE[span] = cached
    return cached


def _word_index_map(
    d: int, offsets: np.ndarray, level: int, w: CuntzWord, top: int
) -> tuple[np.ndarray, np.ndarray]:
    """Columns and rows of the 0/1 Fock matrix of a single word, on the
    columns of strings of length <= top."""
    mu_idx = 0
    for letter in w.mu:
        mu_idx = mu_idx * d + (letter - 1)
    nu_idx = 0
    for letter in w.nu:
        nu_idx = nu_idx * d + (letter - 1)
    cols_list, rows_list = [], []
    for t in range(min(level - w.max_length(), top - len(w.nu)) + 1):
        tails = _tails(d ** t)
        cols_list.append(offsets[len(w.nu) + t] + nu_idx * d ** t + tails)
        rows_list.append(offsets[len(w.mu) + t] + mu_idx * d ** t + tails)
    if not cols_list:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(cols_list), np.concatenate(rows_list)


def _fock_entries(
    p: CuntzPolynomial, offsets: np.ndarray, level: int, top: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of p's Fock matrix on the columns of
    strings of length <= top, word by word: entries of different words
    that share a cell are listed apart, not summed."""
    rows_list, cols_list, vals_list = [], [], []
    for w, c in p.terms.items():
        cols, rows = _word_index_map(p.d, offsets, level, w, top)
        rows_list.append(rows)
        cols_list.append(cols)
        vals_list.append(np.full(cols.size, complex(c)))
    if not rows_list:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0, dtype=complex))
    return np.concatenate(rows_list), np.concatenate(cols_list), np.concatenate(vals_list)


def _is_plain_word(p: CuntzPolynomial) -> bool:
    if p.n_terms != 1:
        return False
    c = next(iter(p.terms.values()))
    return complex(c) == 1.0


def _word_product_defect(
    p: CuntzPolynomial, q: CuntzPolynomial, level: int, n_safe: int
) -> float:
    """Fast path: compose the 0/1 partial maps of two single words."""
    d = p.d
    offsets = _string_offsets(d, level)
    n = int(offsets[-1])
    cq, rq = _word_index_map(d, offsets, level, next(iter(q.terms)), level)
    cp, rp = _word_index_map(d, offsets, level, next(iter(p.terms)), level)
    through_p = np.full(n, -1, dtype=np.int32)
    through_p[cp] = rp
    composed = np.full(n_safe, -1, dtype=np.int32)
    inside = cq < n_safe
    composed[cq[inside]] = through_p[rq[inside]]
    expected = np.full(n_safe, -1, dtype=np.int32)
    prod = multiply(p, q)
    if not prod.is_zero():
        cr, rr = _word_index_map(d, offsets, level, next(iter(prod.terms)), level)
        inside = cr < n_safe
        expected[cr[inside]] = rr[inside]
    return 0.0 if np.array_equal(composed, expected) else 1.0


def fock_product_defect(
    p: CuntzPolynomial, q: CuntzPolynomial, level: int
) -> tuple[float, int]:
    """Compare fock(p) fock(q) with fock(p q) on the safe subspace.

    Safe columns are index strings of length <= level - len(p) - len(q)
    (word lengths measured by the longer of the two index strings); on
    them the truncation at the top level never interferes.  The safe
    columns include the Fock vacuum, where sum_i psi_i psi_i* acts as
    1 - |empty><empty|.  So where the normal form of p q contracts a full
    sum s_mu (sum_i s_i s_i*) s_nu* to s_mu s_nu*, the matrix product
    differs from it by |mu><nu|, on the column of the string nu: the
    vacuum column when nu is empty, as for (s1 + s2)(s1* + s2*), whose
    defect is 1.  On every other safe column the defect is zero up to
    coefficient rounding.  Returns (max absolute deviation, #safe columns).
    The deviation is absolute, not relative: floating coefficients make it
    round at the scale of the largest |c_p c_q|, c_p and c_q coefficients
    of p and q, so it reads as zero only against that scale.

    Single words with unit coefficient are composed as 0/1 index maps.
    Anything else is composed on the safe columns only, as (row, column,
    value) entries: F(q) and F(pq) on the safe columns, and p's words on
    the strings that F(q) reaches there, with no sparse-matrix library.
    """
    if p.d != q.d:
        raise ValueError("polynomials have different dimensions")
    safe_len = level - p.max_word_length() - q.max_word_length()
    if safe_len < 0:
        return 0.0, 0
    n_safe = fock_dimension(p.d, safe_len)
    if _is_plain_word(p) and _is_plain_word(q):
        return _word_product_defect(p, q, level, n_safe), n_safe
    offsets = _string_offsets(p.d, level)
    rq, cq, vq = _fock_entries(q, offsets, level, safe_len)
    # F(q) maps a safe column to strings of length <= mid
    mid = safe_len + q.max_word_length()
    through = np.empty(int(offsets[mid + 1]), dtype=np.int64)
    rows, cols, vals = [], [], []
    for w, c in p.terms.items():
        cp, rp = _word_index_map(p.d, offsets, level, w, mid)
        through.fill(-1)
        through[cp] = rp
        r = through[rq]
        hit = r >= 0
        rows.append(r[hit])
        cols.append(cq[hit])
        vals.append(complex(c) * vq[hit])
    r, c, v = _fock_entries(multiply(p, q), offsets, level, safe_len)
    rows.append(r)
    cols.append(c)
    vals.append(-v)
    diff = np.concatenate(vals)
    if not diff.size:
        return 0.0, n_safe
    # sum the entries per cell of F(p) F(q) - F(pq)
    _, cell = np.unique(np.concatenate(rows) * n_safe + np.concatenate(cols),
                        return_inverse=True)
    worst = np.hypot(np.bincount(cell, diff.real), np.bincount(cell, diff.imag)).max()
    return float(worst), n_safe


# ---------------------------------------------------------------------------
# text form and the tiny expression grammar
# ---------------------------------------------------------------------------


def _format_coeff(c, exact: bool) -> str:
    if exact:
        return str(c)
    z = complex(c)
    if z.imag == 0:
        return f"{z.real:.17g}"
    if z.real == 0:
        return f"{z.imag:.17g}i"
    sign = "+" if z.imag >= 0 else "-"
    return f"({z.real:.17g}{sign}{abs(z.imag):.17g}i)"


def _format_word(w: CuntzWord) -> str:
    parts = [f"s{i}" for i in w.mu]
    parts += [f"s{i}*" for i in reversed(w.nu)]
    return " ".join(parts) if parts else "1"

def _coeff_is_one(c, exact: bool) -> bool:
    return (c == QRAT_ONE) if exact else (complex(c) == 1.0)


def format_polynomial(p: CuntzPolynomial) -> str:
    """Canonical text: terms in length-lex order, adjoints as trailing *."""
    if p.is_zero():
        return "0"
    chunks = []
    for w, c in p.sorted_terms():
        word = _format_word(w)
        if _coeff_is_one(c, p.exact):
            chunks.append(word)
        elif word == "1":
            chunks.append(_format_coeff(c, p.exact))
        else:
            chunks.append(f"{_format_coeff(c, p.exact)} {word}")
    return " + ".join(chunks)


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-()":
            tokens.append(ch)
            i += 1
        elif ch == "s" and i + 1 < len(text) and text[i + 1].isdigit():
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == "*":
                tokens.append(text[i:j + 1])
                i = j + 1
            else:
                tokens.append(text[i:j])
                i = j
        elif ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in "./"):
                j += 1
            if j < len(text) and text[j] in "ij":
                tokens.append(text[i:j + 1])
                i = j + 1
            else:
                tokens.append(text[i:j])
                i = j
        elif ch in "ij":
            tokens.append("1" + ch)
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r} at position {i}")
    return tokens


def _parse_scalar(tok: str):
    imag = tok[-1] in "ij"
    body = tok[:-1] if imag else tok
    if "/" in body:
        value = Fraction(body)
    elif "." in body:
        value = float(body)
    else:
        value = int(body)
    if not imag:
        return value
    if isinstance(value, float):
        return complex(0.0, value)
    return QRat(Fraction(0), Fraction(value))


class _Parser:
    def __init__(self, tokens: list[str], d: int):
        self.tokens = tokens
        self.pos = 0
        self.d = d

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse_expression(self) -> CuntzPolynomial:
        acc = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()
            term = self.parse_term()
            acc = acc + (term if op == "+" else -term)
        return acc

    def parse_term(self) -> CuntzPolynomial:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        factors = []
        while True:
            tok = self.peek()
            if tok is None or tok in ("+", "-", ")"):
                break
            factors.append(self.parse_factor())
        if not factors:
            raise ExpressionError("empty term")
        acc = factors[0]
        for f in factors[1:]:
            acc = acc * f
        return acc.scale(sign) if sign < 0 else acc

    def parse_factor(self) -> CuntzPolynomial:
        tok = self.next()
        if tok == "(":
            inner = self.parse_expression()
            if self.next() != ")":
                raise ExpressionError("unbalanced parentheses")
            return inner
        if tok.startswith("s"):
            star = tok.endswith("*")
            idx = int(tok[1:-1] if star else tok[1:])
            if not 1 <= idx <= self.d:
                raise ExpressionError(
                    f"generator s{idx} outside dimension {self.d}"
                )
            gen = CuntzPolynomial.generator(self.d, idx)
            return gen.adjoint() if star else gen
        try:
            scalar = _parse_scalar(tok)
        except (ValueError, ZeroDivisionError) as err:
            raise ExpressionError(f"bad scalar {tok!r}: {err}") from err
        return CuntzPolynomial.unit(self.d).scale(scalar)


def parse_expression(text: str, d: int) -> CuntzPolynomial:
    """Parse the CLI grammar: sK and sK* tokens, +, -, scalars, parentheses.

    Juxtaposition multiplies; ``2/3`` is an exact rational, ``0.5`` a
    float, a trailing ``i``/``j`` makes a scalar imaginary.
    """
    parser = _Parser(_tokenize(text), d)
    result = parser.parse_expression()
    if parser.peek() is not None:
        raise ExpressionError(f"trailing input at token {parser.peek()!r}")
    return result
