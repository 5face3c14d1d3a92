"""Extend a bracket to noncommutative Laurent polynomials.

Inverting generators keeps the positive table and derives brackets with
inverse letters on demand; every inverted generator contributes the negated
weight.  The extended structure passes the same axiom battery, inverse
letters included.
"""

from ncdb import check_jacobi, check_poisson_property, check_weight, localize
from ncdb.classify import builtin

spec, weights = builtin("kontsevich")
print("base bracket on K<v,w>:")
print("  <<v,w>> =", spec.dbracket(spec.algebra.gen(1), spec.algebra.gen(2)))
print("  weights:", [str(w) for w in weights])

loc, ext = localize(spec, weights, (1, 2))
print("\nafter inverting both generators:", loc.algebra)
print("  extended weights:", [str(w) for w in ext])

alg = loc.algebra
print("\nbrackets with inverse letters are derived, never stored:")
print("  <<v, w^-1>>    =", loc.letter_bracket(1, -2))
print("  <<w, v^-1>>    =", loc.letter_bracket(2, -1))
print("  <<v^-1, w^-1>> =", loc.letter_bracket(-1, -2))

print("\nthe axiom battery still passes, inverse letters included:")
print(" ", check_weight(loc, ext).summary())
print(" ", check_poisson_property(loc, ext).summary())
print(" ", check_jacobi(loc, 2).summary())
