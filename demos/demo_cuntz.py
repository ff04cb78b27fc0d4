"""Walkthrough: exact rewriting in the algebra of d isometries.

Every element is a combination of normal-form words s_mu s_nu*; products
contract by prefix matching, the completeness sum collapses to 1, and the
truncated Fock representation provides an independent matrix check.
"""

import numpy as np

from sectorlab.cuntz import (
    CuntzPolynomial,
    canonical_endomorphism,
    fock_product_defect,
    gauge_act,
    multiply,
    parse_expression,
)

P = CuntzPolynomial

print("== defining relations, as rewrites ==")
s1, s2 = P.generator(2, 1), P.generator(2, 2)
print("  s1* s1        =", multiply(s1.adjoint(), s1))
print("  s1* s2        =", multiply(s1.adjoint(), s2))
print("  s1 s1* + s2 s2* =", parse_expression("s1 s1* + s2 s2*", 2))

print("\n== the canonical endomorphism ==")
print("  sigma(1)  =", canonical_endomorphism(P.unit(2)))
print("  sigma(s1) =", canonical_endomorphism(s1))
pq = multiply(s1, s2.adjoint())
print("  sigma is multiplicative:",
      canonical_endomorphism(multiply(pq, pq.adjoint()))
      == multiply(canonical_endomorphism(pq),
                  canonical_endomorphism(pq.adjoint())))

print("\n== gauge action by diag(1,-1): a parity grading ==")
g = np.diag([1, -1])
odd = P.word(2, (1,), (2,))
print("  s1 s2*  ->", gauge_act(g, odd))
print("  s1 s1*  ->", gauge_act(g, P.word(2, (1,), (1,))), "(fixed)")

print("\n== exact rational coefficients survive arithmetic ==")
p = parse_expression("1/2 s1 + 1/2 s2", 2)
print("  p      =", p, " (exact:", p.exact, ")")
print("  p* p   =", multiply(p.adjoint(), p))

print("\n== truncated Fock oracle ==")
a = P.word(2, (1, 2), (2,))
b = P.word(2, (2,), (1,))
print("  word product:", multiply(a, b))
defect, n_safe = fock_product_defect(a, b, level=10)
print(f"  matrix check at level 10: defect {defect} on {n_safe} safe columns")
# at level 1, s1 prepends "1" to the empty string and annihilates the rest
fock_s1 = np.zeros((3, 3))
fock_s1[1, 0] = 1.0
print("  fock(s1 s1*) at level 1 (basis '', '1', '2'):")
print(fock_s1 @ fock_s1.T)
