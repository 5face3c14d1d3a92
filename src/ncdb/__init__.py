"""Exact-rational double-bracket calculus on free associative algebras,
their Laurent localisations, and their representation spaces."""

from .freealg import (
    Element,
    FreeAlgebra,
    Tensor2,
    Tensor3,
    concat,
    cyclic_normal_form,
    reduce_word,
)
from .bracket import BracketSpec
from .axioms import (
    MixedType,
    VerificationReport,
    Witness,
    check_cyclic_skew,
    check_double_poisson,
    check_h0_skew,
    check_jacobi,
    check_lambda_double_lie,
    check_mixed_type,
    check_poisson_property,
    check_weight,
    infer_mixed_type,
    infer_weight,
    modified_double_poisson_battery,
)
from .classify import FamilyParams, build, search_cl1, search_cl3a, search_cl3b, verify_family_props
from .localize import localize
from .repspace import MatrixPoint, check_induced_poisson, eval_trace, induced_trace_bracket
from .speclang import SpecDocument, parse, render, doc_from_spec

__version__ = "0.1.0"
