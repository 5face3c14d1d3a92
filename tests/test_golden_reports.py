"""Golden report digests: every checker's output, pinned byte for byte.

Each case runs one public checker, inference or search on one spec and
hashes what it returns (report JSON, ``repr`` of a plain value, or the
exception text) with sha256.  ``golden_reports.json`` holds the digests
recorded before the axiom layer was rebuilt on shared comparisons and one
sweep driver; a refactor of that layer must reproduce every one of them.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ncdb import axioms, classify, cli
from ncdb.bracket import BracketSpec
from ncdb.freealg import FreeAlgebra, reduce_word
from ncdb.localize import LocalisationPlan, localize
from ncdb.repspace import MatrixPoint, check_induced_poisson

F = Fraction
GOLDEN = json.loads(Path(__file__).with_name("golden_reports.json").read_text())


def _scaled_mdb2():
    """mdbII with <<x2,x3>> scaled by -3/7, keeping mdbII's weights."""
    spec, w = classify.builtin("mdbII")
    table = dict(spec.table)
    table[(2, 3)] = table[(2, 3)].scale(F(-3, 7))
    return BracketSpec(spec.algebra, table, w)


def _laurent_kontsevich():
    spec, w = classify.builtin("kontsevich")
    return localize(spec, w, LocalisationPlan(spec.algebra, (1, 2)))[0]


def _random_spec(seed):
    """Seeded rational table, free for even seeds, x1 inverted for odd ones."""
    rng = random.Random(f"golden/{seed}")
    d = rng.choice((2, 3))
    alg = FreeAlgebra.standard(d, "x", (1,) if seed % 2 else ())
    letters = alg.letters

    def term():  # p (x) q with up to two letters in all
        w = [rng.choice(letters) for _ in range(rng.randint(0, 2))]
        cut = rng.randint(0, len(w))
        return reduce_word(w[:cut]), reduce_word(w[cut:])

    table = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            if rng.random() < 0.7:
                terms = {term(): F(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(rng.randint(1, 3))}
                table[(i, j)] = alg.tensor2(terms)
    return BracketSpec(alg, table)


SPECS = {
    "mdbI": lambda: classify.builtin("mdbI")[0],
    "mdbII": lambda: classify.builtin("mdbII")[0],
    "kontsevich": lambda: classify.builtin("kontsevich")[0],
    "kontsevich_laurent": _laurent_kontsevich,
    "mdbII_scaled": _scaled_mdb2,
    "cl3a_point": lambda: classify.build(classify.FamilyParams("cl3a", (1, 0, 0, 0, 1, 1)))[0],
    "cl3b_point": lambda: classify.build(classify.FamilyParams("cl3b", (0, 1, 0, 0, 0, 0)))[0],
    "cl1_rational": lambda: classify.build(
        classify.FamilyParams("cl1", (F(2, 3), F(-1, 2), F(1, 5), F(-2), F(3, 4), 0)))[0],
    "cld_4_2": lambda: classify.build(classify.FamilyParams("cld", (4, 2)))[0],
    **{f"random_{k}": (lambda k=k: _random_spec(k)) for k in range(4)},
}


def _text(result):
    if isinstance(result, axioms.VerificationReport):
        return result.to_json()
    if isinstance(result, tuple) and result and isinstance(result[0], list):
        reports, weights = result  # a battery
        return json.dumps([[r.as_dict() for r in reports], repr(weights)], sort_keys=True)
    if isinstance(result, dict):  # verify_family_props
        return json.dumps({k: [r.as_dict() for r in v] for k, v in result.items()}, sort_keys=True)
    return repr(result)


def _digest(call):
    try:
        text = _text(call())
    except ValueError as e:
        text = f"ValueError: {e}"
    return hashlib.sha256(text.encode()).hexdigest()


def _spec_calls(spec):
    letters = spec.algebra.letters
    d = spec.algebra.d
    fixed = tuple(F((-1) ** k * (k + 1), 2) for k in range(len(letters)))
    weights = {"fixed": fixed}
    if spec.weight is not None:
        weights["own"] = spec.weight
    inferred = axioms.infer_weight(spec)
    if inferred is not None:
        weights["inferred"] = inferred
    mtypes = {"fixed": axioms.MixedType(
        tuple(tuple((i + j) % 3 - 1 for j in range(d)) for i in range(d)),
        tuple(tuple(i - j for j in range(d)) for i in range(d)))}
    if not spec.algebra.has_inverses and axioms.infer_mixed_type(spec) is not None:
        mtypes["inferred"] = axioms.infer_mixed_type(spec)
    point = MatrixPoint.random(spec.algebra, 2, seed=7)
    calls = {
        "cyclic_skew": lambda: axioms.check_cyclic_skew(spec),
        "double_poisson": lambda: axioms.check_double_poisson(spec),
        "infer_weight": lambda: axioms.infer_weight(spec),
        "infer_mixed_type": lambda: axioms.infer_mixed_type(spec),
        "h0_skew_3": lambda: axioms.check_h0_skew(spec, 3),
        "h0_skew_2_all": lambda: axioms.check_h0_skew(spec, 2, all_witnesses=True),
        "jacobi_2": lambda: axioms.check_jacobi(spec, 2),
        "jacobi_2_all": lambda: axioms.check_jacobi(spec, 2, all_witnesses=True),
        "induced_2": lambda: check_induced_poisson(spec, point, 2),
        "induced_2_all": lambda: check_induced_poisson(spec, point, 2, all_witnesses=True),
        "battery": lambda: axioms.modified_double_poisson_battery(spec, None, 3, 2),
    }
    for name, w in weights.items():
        calls[f"weight_{name}"] = lambda w=w: axioms.check_weight(spec, w)
        calls[f"poisson_property_{name}"] = lambda w=w: axioms.check_poisson_property(spec, w)
    for name, mt in mtypes.items():
        calls[f"mixed_type_{name}"] = lambda mt=mt: axioms.check_mixed_type(spec, mt)
    for lam in (1, F(-1, 2), 0):
        calls[f"lambda_double_lie_{lam}"] = lambda lam=lam: axioms.check_lambda_double_lie(spec, lam)
    return calls


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


SEARCHES = {
    "search_cl1_1": lambda: classify.search_cl1(1),
    "search_cl1_-2/3": lambda: classify.search_cl1(F(-2, 3)),
    "search_cl1_0": lambda: classify.search_cl1(0),
    "search_cl1_grid_1": lambda: classify.search_cl1_grid(1),
    "search_cl1_grid_1/2": lambda: classify.search_cl1_grid(F(1, 2)),
    "search_cl1_custom_wide": lambda: classify.search_cl1_custom(1, (F(2), F(-2), F(1, 2)), (F(0), F(-2))),
    "search_cl1_custom_std": lambda: classify.search_cl1_custom(F(3, 2), (F(3, 2), F(-3, 2)), (0, -3)),
    "search_cl3a": classify.search_cl3a,
    "search_cl3b": classify.search_cl3b,
    "family_props_4_2": lambda: classify.verify_family_props(4, 2),
    "family_props_4_4": lambda: classify.verify_family_props(4, 4, 2, 1),
    "cli_classify_cl1_json": lambda: _cli(["classify", "cl1", "--json"]),
    "cli_classify_cl1_text": lambda: _cli(["classify", "cl1", "--lam=-1/2"]),
    "cli_classify_cl1_lam0": lambda: _cli(["classify", "cl1", "--lam", "0"]),
    "cli_classify_cl1_rho_json": lambda: _cli(["classify", "cl1", "--rho-grid", "1,-1,2", "--json"]),
    "cli_classify_cl1_gamma_text": lambda: _cli(["classify", "cl1", "--gamma-grid", "0,-2,1"]),
    "cli_classify_cl3b_json": lambda: _cli(["classify", "cl3b", "--json"]),
}


def _case_digests(group):
    calls = SEARCHES if group == "searches" else _spec_calls(SPECS[group]())
    return {f"{group}/{name}": _digest(call) for name, call in calls.items()}


@pytest.mark.parametrize("group", sorted(SPECS) + ["searches"])
def test_golden_digests(group):
    expected = {k: v for k, v in GOLDEN.items() if k.startswith(group + "/")}
    assert _case_digests(group) == expected
