"""Extension of a bracket from a free algebra to a Laurent localisation.

Inverting generators i1,...,ir extends a weighted bracket uniquely: the
positive-generator table is unchanged, brackets with inverse letters are
derived on demand (never stored), and the weight vector gains one negated
entry per inverted generator, in plan order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freealg import FreeAlgebra
from .bracket import BracketSpec
from .axioms import check_weight


@dataclass(frozen=True)
class LocalisationPlan:
    """An ordered choice of distinct generator indices to invert."""

    algebra: FreeAlgebra
    invert: tuple

    def __post_init__(self):
        object.__setattr__(self, "invert", tuple(self.invert))
        if self.algebra.has_inverses:
            raise ValueError("base algebra is already localised")
        if len(set(self.invert)) != len(self.invert) or not self.invert:
            raise ValueError("invert must be a nonempty sequence of distinct indices")
        for i in self.invert:
            if not 1 <= i <= self.algebra.d:
                raise ValueError(f"generator index {i} out of range")


def localize(spec: BracketSpec, weights, plan: LocalisationPlan):
    """Extend ``spec`` of weight ``weights`` along ``plan``.

    Requires the weighted skew condition on the base algebra (the extension
    theorem's hypothesis); raises ValueError when it fails.  Returns the
    localised spec and the extended weight vector
    (w_1, ..., w_d, -w_{i_1}, ..., -w_{i_r}).
    """
    if plan.algebra != spec.algebra:
        raise ValueError("plan is for a different algebra")
    weights = tuple(weights)
    base_check = check_weight(spec, weights)
    if not base_check.passed:
        raise ValueError(
            "base spec is not a mixed double algebra of the given weight; "
            f"first witness: {base_check.witnesses[0].inputs if base_check.witnesses else 'n/a'}"
        )
    loc_alg = FreeAlgebra(spec.algebra.names, plan.invert)
    table = {
        key: loc_alg.tensor2(dict(u.terms)) for key, u in spec.table.items()
    }
    ext_weights = loc_alg.letter_weights(weights)
    loc_spec = BracketSpec(loc_alg, table, ext_weights)
    return loc_spec, ext_weights
