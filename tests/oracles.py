"""Reference implementations that the tests compare the package against.

Each is the plain, direct spelling of something ncdb computes another way:
bimodule actions and the factor flip written term by term, the cyclic
normal form as the minimal rotation over every rotation, classes modulo
commutators through ``cyclic_normal_form``, matrix evaluation by
``Fraction`` products of the letter matrices, never through a point's
integer word cache, the h0 skew
sweep bracketing every pair on its own words, the Jacobi sweep on every
triple, with no row decided on the letters or shared within cyclic classes,
the induced trace check on every triple without the derivation rule, all
three through :func:`plain_sweep`, which shares no iteration code with
the package and keys nothing on cyclic classes, and the generator-level
comparisons on tensors: the double Jacobiator through
the three triple brackets of element-level double brackets, compared with
its prescribed value as a ``Tensor3``, with no memo.  The Jacobiator on
interned ids is also spelled as its three loops, with no term grouped by
cyclic class, and on elements as ``mbracket`` composed three times.
"""

import functools
import itertools
import math
from fractions import Fraction

from ncdb.axioms import Witness, check_double_poisson, report
from ncdb.freealg import Element, Tensor2, Tensor3, _merge_term, concat, cyclic_normal_form, cyclic_reduce, letter_key

# ---------------------------------------------------------------------------
# bimodule actions and mixed constructors


def pure_t2(c1: Element, c2: Element) -> Tensor2:
    """The pure tensor c1 (x) c2, extended bilinearly."""
    if c1.algebra != c2.algebra:
        raise ValueError("algebra mismatch")
    terms = {}
    for w1, a in c1.terms.items():
        for w2, b in c2.terms.items():
            _merge_term(terms, (w1, w2), a * b)
    return Tensor2(c1.algebra, terms)


def outer_act(c1: Element, u: Tensor2, c2: Element) -> Tensor2:
    """(c1 (x) 1) u (1 (x) c2): multiply into the outside of the two factors."""
    terms = {}
    for (a, b), c in u.terms.items():
        for w1, x in c1.terms.items():
            for w2, y in c2.terms.items():
                _merge_term(terms, (concat(w1, a), concat(b, w2)), c * x * y)
    return Tensor2(u.algebra, terms)


def inner_act(c1: Element, u: Tensor2, c2: Element) -> Tensor2:
    """(1 (x) c1) u (c2 (x) 1): multiply into the inside of the two factors."""
    terms = {}
    for (a, b), c in u.terms.items():
        for w1, x in c1.terms.items():
            for w2, y in c2.terms.items():
                _merge_term(terms, (concat(a, w2), concat(w1, b)), c * x * y)
    return Tensor2(u.algebra, terms)


def flip(u: Tensor2) -> Tensor2:
    """Swap the tensor factors term by term."""
    terms = {}
    for (a, b), c in u.terms.items():
        _merge_term(terms, (b, a), c)
    return Tensor2(u.algebra, terms)


def tensor3(alg, terms: dict) -> Tensor3:
    """The ``Tensor3`` of ``terms``, validated as ``alg.tensor2`` validates a ``Tensor2``."""
    return alg._linear(Tensor3, terms)


def otimes1_left(u: Tensor2, c: Element) -> Tensor3:
    """(a (x) b) mapped to a (x) c (x) b, bilinearly: insert c in the middle."""
    if u.algebra != c.algebra:
        raise ValueError("algebra mismatch")
    terms = {}
    for (a, b), x in u.terms.items():
        for w, y in c.terms.items():
            _merge_term(terms, (a, w, b), x * y)
    return Tensor3(u.algebra, terms)


def m2(u: Tensor2) -> Element:
    """Multiply the two factors together: a (x) b -> ab, linearly."""
    terms = {}
    for (a, b), c in u.terms.items():
        _merge_term(terms, concat(a, b), c)
    return Element(u.algebra, terms)


def rotation_normal_form(w):
    """``cyclic_normal_form`` as the plain loop over every rotation of the
    cyclically reduced word, compared in letter order."""
    w = cyclic_reduce(w)
    keyed = [letter_key(g) for g in w]
    best, best_rot = None, w
    for k in range(len(w)):
        cand = keyed[k:] + keyed[:k]
        if best is None or cand < best:
            best, best_rot = cand, w[k:] + w[:k]
    return best_rot


def reduce_mod_commutators(x: Element) -> Element:
    """Canonical representative of x in A/[A,A].

    Every word is replaced by its cyclic normal form; x lies in [A,A] iff the
    result is zero.  Idempotent and linear.
    """
    terms = {}
    for w, c in x.terms.items():
        _merge_term(terms, cyclic_normal_form(w), c)
    return Element(x.algebra, terms)


# ---------------------------------------------------------------------------
# the Jacobiator without its class grouping


def ungrouped_jacobiator_ids(spec, a, b, c) -> dict:
    """``ncdb.bracket.jacobiator_ids`` as its three plain loops: every word
    w of {a,b} is bracketed with c on its own, none merged into its class."""
    mb = spec._mb_ids
    res = {}
    for w, cw in mb(b, c).items():
        for u, cu in mb(a, w).items():
            _merge_term(res, u, cw * cu)
    for w, cw in mb(a, c).items():
        for u, cu in mb(b, w).items():
            _merge_term(res, u, -cw * cu)
    for w, cw in mb(a, b).items():
        for u, cu in mb(w, c).items():
            _merge_term(res, u, -cw * cu)
    return res


def mbracket_jacobiator(spec, a: Element, b: Element, c: Element) -> Element:
    """{a,{b,c}} - {b,{a,c}} - {{a,b},c} on elements, from ``mbracket``."""
    mb = spec.mbracket
    return mb(a, mb(b, c)) - mb(b, mb(a, c)) - mb(mb(a, b), c)


# ---------------------------------------------------------------------------
# the triple brackets, the double Jacobiator and the generator-level
# comparisons on tensors


def _word(alg, w) -> Element:
    return Element(alg, {w: 1})


def tbracket_L(spec, a: Element, u: Tensor2) -> Tensor3:
    """<<a, b (x) c>>_L = <<a, b>> (x) c, extended bilinearly."""
    terms = {}
    for (b, c), cu in u.terms.items():
        for (p, q), v in spec.dbracket(a, _word(u.algebra, b)).terms.items():
            _merge_term(terms, (p, q, c), cu * v)
    return Tensor3(u.algebra, terms)


def tbracket_R(spec, a: Element, u: Tensor2) -> Tensor3:
    """<<a, b (x) c>>_R = b (x) <<a, c>>, extended bilinearly."""
    terms = {}
    for (b, c), cu in u.terms.items():
        for (p, q), v in spec.dbracket(a, _word(u.algebra, c)).terms.items():
            _merge_term(terms, (b, p, q), cu * v)
    return Tensor3(u.algebra, terms)


def tbracket_swapL(spec, u: Tensor2, a: Element) -> Tensor3:
    """<<b (x) c, a>>_L = <<b, a>> otimes_1 c, inserting c in the middle."""
    terms = {}
    for (b, c), cu in u.terms.items():
        for (p, q), v in spec.dbracket(_word(u.algebra, b), a).terms.items():
            _merge_term(terms, (p, c, q), cu * v)
    return Tensor3(u.algebra, terms)


def djac(spec, a: Element, b: Element, c: Element) -> Tensor3:
    """<<a,<<b,c>>>>_L - <<b,<<a,c>>>>_R - <<<<a,b>>,c>>_L on elements."""
    return (
        tbracket_L(spec, a, spec.dbracket(b, c))
        - tbracket_R(spec, b, spec.dbracket(a, c))
        - tbracket_swapL(spec, spec.dbracket(a, b), c)
    )


def _form(alg, x, y, s, k) -> Tensor2:
    """s * (x (x) y - y (x) x) + k * (1 (x) xy - yx (x) 1) on letters x, y."""
    X, Y, one = _word(alg, (x,)), _word(alg, (y,)), alg.one()
    return (pure_t2(X, Y) - pure_t2(Y, X)).scale(s) + (pure_t2(one, X * Y) - pure_t2(Y * X, one)).scale(k)


def poisson_rhs(spec, x, y, z, lx, ly) -> Tensor3:
    """The prescribed Jacobiator on a letter triple of weights lx, ly: each
    term c * p (x) q of <<x, z>> gives -s * c * p (x) y (x) q plus
    k * c * p (x) 1 (x) yq, with (s, k) = ((lx + ly)/2, (lx - ly)/2)."""
    alg = spec.algebra
    s, k = Fraction(lx + ly, 2), Fraction(lx - ly, 2)
    u = spec.dbracket(_word(alg, (x,)), _word(alg, (z,)))
    Y = _word(alg, (y,))
    return otimes1_left(u, Y).scale(-s) + otimes1_left(inner_act(Y, u, alg.one()), alg.one()).scale(k)


def _letter_witnesses(spec, arity, lhs, rhs) -> list:
    """Witnesses of every ordered letter tuple where the tensor
    lhs(*letters) differs from the tensor rhs(indices, letters)."""
    alg = spec.algebra
    letters = alg.letters
    witnesses = []
    for idx in itertools.product(range(len(letters)), repeat=arity):
        cell = tuple(letters[i] for i in idx)
        actual, expected = lhs(*cell), rhs(idx, cell)
        if actual != expected:
            names = tuple(alg.render_word((g,)) for g in cell)
            witnesses.append(Witness(names, str(expected), str(actual), str(actual - expected)))
    return witnesses


def _pair_witnesses(spec, form) -> list:
    alg = spec.algebra

    def defect(x, y):
        u = spec.dbracket(_word(alg, (x,)), _word(alg, (y,)))
        return u + flip(spec.dbracket(_word(alg, (y,)), _word(alg, (x,))))

    return _letter_witnesses(spec, 2, defect, lambda idx, cell: _form(alg, *cell, *form(*idx)))


def _triple_witnesses(spec, weights) -> list:
    alg = spec.algebra
    return _letter_witnesses(
        spec, 3, lambda x, y, z: djac(spec, _word(alg, (x,)), _word(alg, (y,)), _word(alg, (z,))),
        lambda idx, cell: poisson_rhs(spec, *cell, weights[idx[0]], weights[idx[1]]))


def tensor_check_double_poisson(spec):
    """``check_double_poisson`` on tensors."""
    n = len(spec.algebra.letters)
    witnesses = _pair_witnesses(spec, lambda i, j: (0, 0)) + _triple_witnesses(spec, (0,) * n)
    return report("double_poisson", spec, {"pairs": n ** 2, "triples": n ** 3}, witnesses)


def tensor_check_weight(spec, weights):
    """``check_weight`` on tensors, with ``Fraction`` weight forms."""
    w = spec.algebra.weight_vector(weights)
    witnesses = _pair_witnesses(spec, lambda i, j: (Fraction(w[i] + w[j], 2), Fraction(w[i] - w[j], 2)))
    return report("weighted_skew_symmetry", spec, {"weights": [str(x) for x in w], "pairs": len(w) ** 2}, witnesses)


def tensor_check_poisson_property(spec, weights):
    """``check_poisson_property`` on tensors."""
    w = spec.algebra.weight_vector(weights)
    params = {"weights": [str(x) for x in w], "triples": len(w) ** 3}
    return report("poisson_property", spec, params, _triple_witnesses(spec, w))


def tensor_check_lambda_double_lie(spec, lam):
    """``check_lambda_double_lie`` on tensors."""
    alg = spec.algebra
    if alg.has_inverses:
        raise ValueError("defined for free algebras only")
    lam = Fraction(lam)
    for (i, j), u in spec.table.items():
        for (w1, w2) in u.terms:
            if len(w1) != 1 or len(w2) != 1 or w1[0] < 0 or w2[0] < 0:
                names = (alg.render_word((i,)), alg.render_word((j,)))
                witness = Witness(names, "a combination of generator (x) generator terms", str(u), str(u))
                return report("lambda_double_lie", spec, {"reason": "not V(x)V-valued"}, [witness])
    witnesses = _pair_witnesses(spec, lambda i, j: (lam, 0)) + _triple_witnesses(spec, (lam,) * alg.d)
    return report("lambda_double_lie", spec, {"lambda": str(lam)}, witnesses)


# ---------------------------------------------------------------------------
# Fraction matrices, tuples of row tuples


def mat_identity(n):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_mul(a, b):
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in bt) for ra in a
    )


def mat_trace(a):
    return sum(a[i][i] for i in range(len(a)))


def word_matrix(p, w):
    """M(w) at the point ``p``: the product of its letter matrices."""
    m = mat_identity(p.size)
    for g in w:
        m = mat_mul(m, p.letter_matrix(g))
    return m


def eval_element(x: Element, p):
    """Evaluate an element at the point: multiplicative on words, linear."""
    if x.algebra != p.algebra:
        raise ValueError("algebra mismatch")
    n = p.size
    out = [[Fraction(0)] * n for _ in range(n)]
    for w, c in x.terms.items():
        m = word_matrix(p, w)
        for i in range(n):
            row = out[i]
            mr = m[i]
            for j in range(n):
                row[j] += c * mr[j]
    return tuple(tuple(row) for row in out)


def coordinate_bracket(spec, a: Element, b: Element, p):
    """Entrywise bracket {a_ij, b_uv} of matrix coordinate functions.

    Only defined for brackets passing the double Poisson check (trivial
    weight); for nonzero weights only trace functions carry an induced
    bracket.  Returns a nested tuple indexed [i][j][u][v].
    """
    if not check_double_poisson(spec).passed:
        raise ValueError("coordinate brackets require a double Poisson bracket")
    n = p.size
    u = spec.dbracket(a, b)
    out = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (w1, w2), c in u.terms.items():
        m1 = word_matrix(p, w1)
        m2 = word_matrix(p, w2)
        for i in range(n):
            for j in range(n):
                for uu in range(n):
                    for v in range(n):
                        # {a_ij, b_uv} = <<a,b>>'_uj <<a,b>>''_iv
                        out[i][j][uu][v] += c * m1[uu][j] * m2[i][v]
    return tuple(tuple(tuple(tuple(r) for r in plane) for plane in block) for block in out)


# ---------------------------------------------------------------------------
# the bounded sweep on every cell's own words


def plain_sweep(spec, ids, arity, residual, render, expected, all_witnesses):
    """``ncdb.axioms.sweep`` without its class keying or witness cap: over
    unordered pairs a <= b or ordered triples of ids, in order,
    ``residual(a, b)`` (arity 2) or ``residual(a, b)(c)`` (arity 3) is
    called on the original ids of every cell.  Returns (cells, witnesses)."""
    if arity == 2:
        rows = (((a,), functools.partial(residual, a), ids[i:]) for i, a in enumerate(ids))
    else:
        rows = (((a, b), residual(a, b), ids) for a in ids for b in ids)
    count = 0
    witnesses = []
    for head, at, tails in rows:
        for z in tails:
            count += 1
            res = at(z)
            if res:
                text = render(res)
                names = tuple(spec.algebra.render_word(spec._id_words[k]) for k in head + (z,))
                witnesses.append(Witness(names, expected, text, text))
                if not all_witnesses:
                    return count, witnesses
    return count, witnesses


# ---------------------------------------------------------------------------
# the h0 skew sweep without its class memo


def unreduced_check_h0_skew(spec, maxdeg=4, all_witnesses=False):
    """``check_h0_skew`` on the per-pair route: {a,b} + {b,a} on cyclic
    normal forms for every unordered pair of monomials up to ``maxdeg``,
    each pair bracketed on its own words, no residual shared between pairs
    of the same cyclic classes."""
    words = spec.algebra.words_up_to(maxdeg)
    mb = spec._mb_ids
    word_of = spec._id_words

    def residual(a, b):  # {a,b} + {b,a} on cyclic normal forms
        res = {}
        for part in (mb(a, b), mb(b, a)):
            for w, c in part.items():
                k = cyclic_normal_form(word_of[w])
                v = res.get(k)
                res[k] = c if v is None else v + c
        return any(res.values()) and res

    pairs, witnesses = plain_sweep(spec, [spec._wid(w) for w in words], 2, residual,
                             lambda res: str(Element(spec.algebra, {k: v for k, v in res.items() if v})),
                             "0 mod commutators", all_witnesses)
    return report("h0_skew_symmetry", spec, {"maxdeg": maxdeg, "pairs": pairs, "words": len(words)}, witnesses)


# ---------------------------------------------------------------------------
# the Jacobi sweep without its row reduction


def unreduced_check_jacobi(spec, maxdeg, all_witnesses=False):
    """``check_jacobi`` as the plain sweep: {a,{b,c}} - {b,{a,c}} - {{a,b},c}
    on every triple of nonunit monomials up to ``maxdeg``, each cell through
    :func:`plain_sweep`, no row skipped."""
    alg = spec.algebra
    words = alg.words_up_to(maxdeg, include_unit=False)

    def br(x, y):  # {x, y} on id-keyed elements, bilinearly
        out = {}
        for u, cu in x.items():
            for w, cw in y.items():
                for k, v in spec._mb_ids(u, w).items():
                    out[k] = out.get(k, 0) + cu * cw * v
        return out

    def residual(a, b):
        def at(c):
            x, y, z = {a: 1}, {b: 1}, {c: 1}
            res = {}
            for sign, part in ((1, br(x, br(y, z))), (-1, br(y, br(x, z))), (-1, br(br(x, y), z))):
                for k, v in part.items():
                    res[k] = res.get(k, 0) + sign * v
            return any(res.values()) and res

        return at

    def render(res):
        return str(Element(alg, {spec._id_words[k]: v for k, v in res.items() if v}))

    triples, witnesses = plain_sweep(spec, [spec._wid(w) for w in words], 3, residual, render, "0", all_witnesses)
    return report("jacobi_identity", spec, {"maxdeg": maxdeg, "triples": triples, "words": len(words)}, witnesses)


# ---------------------------------------------------------------------------
# the induced trace check without the derivation rule


def unreduced_check_induced_poisson(spec, p, maxdeg=3, all_witnesses=False):
    """``check_induced_poisson`` on the per-cell route: each triple (a, b, c)
    sums E * c_w * E * D**L * tr({u, w}) over the words w of {b, c}, {a, c}
    and {a, b}, so it needs {a, w} for every long word w of {b, c}; nothing
    is evaluated on the letters of c.  Its pair stage reads tr({a, b}) and
    tr({b, a}) of every pair on its own words."""
    alg = spec.algebra
    words = alg.words_up_to(maxdeg, include_unit=False)
    ids = [spec._wid(w) for w in words]
    # E, L and the powers D**(L - k) of the module docstring
    raws = [spec._letter_raw(x, y) for x in alg.letters for y in alg.letters]
    e = math.lcm(*(c.denominator for raw in raws for c in raw.values()))
    longest = max((len(l) + len(r) for raw in raws for l, r in raw), default=0)
    bound = 3 * maxdeg + 2 * max(longest - 2, 0)
    dpow = [p.denom ** (bound - k) for k in range(bound + 1)]
    pair_scale = e * dpow[0]
    mb = spec._mb_ids
    word_of = spec._id_words

    @functools.cache
    def traced(wid):  # T(w) = D**(L - len(w)) * tr N(w)
        w = word_of[wid]
        if len(w) > bound:
            raise RuntimeError(f"word of length {len(w)} exceeds the trace bound {bound}")
        m = p._int_matrix(w)
        return dpow[len(w)] * sum(m[i][i] for i in range(p.size))

    @functools.cache  # only ever called on pairs of sweep words
    def row(u, w):  # {u, w} as [(word id, E * coef)]
        return [(k, c.numerator * (e // c.denominator)) for k, c in mb(u, w).items()]

    @functools.cache
    def mbt(u, w):  # E * D**L * tr({u, w}), converting its row without keeping it
        t = 0
        for k, c in mb(u, w).items():
            t += c.numerator * (e // c.denominator) * traced(k)
        return t

    def triple(a, b):
        ab = row(a, b)

        def at(c):
            t = 0
            for w, cw in row(b, c):
                t += cw * mbt(a, w)
            for w, cw in row(a, c):
                t -= cw * mbt(b, w)
            for w, cw in ab:
                t -= cw * mbt(w, c)
            return t

        return at

    params = {"size": p.size, "maxdeg": maxdeg}
    params["pairs"], witnesses = plain_sweep(spec, ids, 2, lambda a, b: mbt(a, b) + mbt(b, a),
                                             lambda t: str(Fraction(t, pair_scale)), "0", all_witnesses)
    if witnesses and not all_witnesses:
        return report("induced_trace_skew", spec, params, witnesses)
    params["triples"], more = plain_sweep(spec, ids, 3, triple,
                                    lambda t: str(Fraction(t, e * pair_scale)), "0", all_witnesses)
    return report("induced_trace_poisson", spec, params, witnesses + more)
