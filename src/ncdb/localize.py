"""Extension of a bracket from a free algebra to a Laurent localisation.

Inverting generators i1,...,ir extends a weighted bracket uniquely: the
positive-generator table is unchanged, brackets with inverse letters are
derived on demand (never stored), and the weight vector gains one negated
entry per inverted generator, in increasing generator order.
"""

from __future__ import annotations

from .freealg import FreeAlgebra
from .bracket import BracketSpec
from .axioms import check_weight


def localize(spec: BracketSpec, weights, invert):
    """Extend ``spec`` of weight ``weights`` by inverting the generators
    with the 1-based indices ``invert``, in increasing generator order.

    ``invert`` must be nonempty and ``spec`` must be on a free algebra, or
    the inversions it already has would be dropped.  ``FreeAlgebra`` refuses
    repeated and out-of-range indices.  Requires the weighted skew condition
    on the base algebra (the extension theorem's hypothesis).  Every refusal
    is a ValueError.  Returns the localised spec and the extended weight
    vector (w_1, ..., w_d, -w_{i_1}, ..., -w_{i_r}), i_1 < ... < i_r.
    """
    invert = tuple(invert)
    if not invert:
        raise ValueError("invert must name at least one generator")
    if spec.algebra.has_inverses:
        raise ValueError("base algebra is already localised")
    loc_alg = FreeAlgebra(spec.algebra.names, invert)
    weights = tuple(weights)
    base_check = check_weight(spec, weights)
    if not base_check.passed:
        raise ValueError(
            "base spec is not a mixed double algebra of the given weight; "
            f"first witness: {base_check.witnesses[0].inputs if base_check.witnesses else 'n/a'}"
        )
    table = {
        key: loc_alg.tensor2(dict(u.terms)) for key, u in spec.table.items()
    }
    ext_weights = loc_alg.letter_weights(weights)
    loc_spec = BracketSpec(loc_alg, table, ext_weights)
    return loc_spec, ext_weights
