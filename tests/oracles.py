"""Reference implementations that the tests compare the package against.

Each is the plain, direct spelling of something ncdb computes another way:
bimodule actions written term by term, classes modulo commutators through
``cyclic_normal_form``, and matrix evaluation by ``Fraction`` products of the
letter matrices, never through a point's integer word cache.
"""

from fractions import Fraction

from ncdb.axioms import check_double_poisson
from ncdb.freealg import Element, Tensor2, Tensor3, _merge_term, concat, cyclic_normal_form

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


def otimes1_left(u: Tensor2, c: Element) -> Tensor3:
    """(a (x) b) mapped to a (x) c (x) b, bilinearly: insert c in the middle."""
    if u.algebra != c.algebra:
        raise ValueError("algebra mismatch")
    terms = {}
    for (a, b), x in u.terms.items():
        for w, y in c.terms.items():
            _merge_term(terms, (a, w, b), x * y)
    return Tensor3(u.algebra, terms)


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
