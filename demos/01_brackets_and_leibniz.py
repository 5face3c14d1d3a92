"""Build a bracket from its generator table and watch the Leibniz extension work.

Everything is exact rational arithmetic on sparse word combinations; run this
file to see the basic objects print in their canonical text form.
"""

from ncdb import FreeAlgebra, BracketSpec, cyclic_normal_form

# The free algebra on three generators, and the first conjectured bracket:
# only six generator pairs carry a nonzero value.
A = FreeAlgebra(("x1", "x2", "x3"))
spec = BracketSpec(
    A,
    {
        (1, 2): A.tensor2({((2, 1), ()): -1}),   # <<x1,x2>> = -x2*x1 (x) 1
        (2, 1): A.tensor2({((1, 2), ()): 1}),
        (2, 3): A.tensor2({((2,), (3,)): -1}),
        (3, 2): A.tensor2({((2,), (3,)): 1}),
        (3, 1): A.tensor2({((), (3, 1)): -1}),
        (1, 3): A.tensor2({((), (1, 3)): 1}),
    },
)

x1, x2, x3 = A.gen(1), A.gen(2), A.gen(3)

print("generator values:")
print("  <<x1,x2>> =", spec.dbracket(x1, x2))
print("  <<x2,x3>> =", spec.dbracket(x2, x3))

print("\nthe Leibniz rules extend the table to arbitrary elements:")
print("  <<x1, x2*x3>>      =", spec.dbracket(x1, x2 * x3))
print("  <<x1*x1, x2>>      =", spec.dbracket(x1 * x1, x2))
print("  <<x1, x2 + 2*x3>>  =", spec.dbracket(x1, x2 + 2 * x3))

# the product rule in the second slot, spelled out with factorwise tensor
# products: <<x1, x2*x3>> = (x2 (x) 1) <<x1,x3>> + <<x1,x2>> (1 (x) x3)
lhs = spec.dbracket(x1, x2 * x3)
x2_1, one_x3 = A.tensor2({((2,), ()): 1}), A.tensor2({((), (3,)): 1})
rhs = x2_1 * spec.dbracket(x1, x3) + spec.dbracket(x1, x2) * one_x3
print("\nproduct rule check:", "OK" if lhs == rhs else "BROKEN")

print("\nmultiplied bracket and its skew symmetry modulo commutators:")
b = spec.mbracket(x1, x2)
c = spec.mbracket(x2, x1)
print("  {x1,x2} =", b)
print("  {x2,x1} =", c)
print("  {x1,x2} + {x2,x1} =", b + c)
# words in one cyclic class are equal modulo commutators
classes = sum((A.element({cyclic_normal_form(w): k}) for w, k in (b + c).items()), A.zero())
print("  ... reduced mod commutators:", classes)

print("\nthe Jacobi combination vanishes exactly:")
print("  jacobiator(x1,x2,x3) =", spec.jacobiator(x1, x2, x3))
