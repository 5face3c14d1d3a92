"""Run the axiom checkers and read their structured reports.

Each check returns a VerificationReport with pass/fail status, sweep
parameters, and exact counterexample witnesses on failure.
"""

from ncdb import (
    check_cyclic_skew,
    check_h0_skew,
    check_jacobi,
    check_poisson_property,
    check_weight,
    infer_mixed_type,
    infer_weight,
)
from ncdb.classify import builtin

spec, _ = builtin("mdbI")

print("Is the bracket cyclically skew-symmetric (the strong axiom)?")
r = check_cyclic_skew(spec)
print(r.summary())

print("\nIt is not -- but its skew defect is the prescribed quadratic one:")
weights = infer_weight(spec)
print("  inferred weights:", [str(w) for w in weights])
print(check_weight(spec, weights).summary())

mt = infer_mixed_type(spec)
print("\nthe same defect organized as a matrix pair (symmetric / skew):")
for row in mt.sym:
    print("   ", row)
print("   --")
for row in mt.skew:
    print("   ", row)

print("\nthe Jacobiator takes its prescribed value on all generator triples:")
print(check_poisson_property(spec, weights).summary())

print("\nindependent bounded sweeps over monomials; each counts every pair or triple,")
print("computing the skew residual and each Jacobi (a, b) row once per pair of cyclic classes:")
print(check_h0_skew(spec, 4).summary())
print(check_jacobi(spec, 3).summary())

print("\na deliberately broken table produces a witness:")
from ncdb.bracket import BracketSpec

good, _ = builtin("mdbII")
table = dict(good.table)
table[(2, 3)] = table[(2, 3)].scale(-1)  # one flipped sign
bad = BracketSpec(good.algebra, table)
r = check_h0_skew(bad, 2)
print(r.summary())
print("\nreports serialize to JSON (schema in docs/report_schema.json):")
print(r.to_json(indent=2)[:400], "...")
