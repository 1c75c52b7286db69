"""The q-side traced products on the Q(q)(u) tower, as a test reference.

Here the currents carry their R-matrix denominators, every entry is a
reduced rational function in the tower Q(q)(u), and the products keep
the (q - 1)^(-m) prefactor.  :mod:`triggaudin.qside` builds the same
products from denominator-cleared currents in the Laurent ring
Q[q^+-1, u^+-1]; the differential tests compare the two through
:func:`to_tower`.
"""

from math import comb

from triggaudin import qside
from triggaudin.gaudin import Qu
from triggaudin.poly import UniPoly
from triggaudin.rationals import QQ
from triggaudin.ratfun import FracField, RatFun
from triggaudin.rmatrices import (
    Qq,
    adjacent_q_chain,
    diag_shift_d,
    permutation,
    q_permutation,
    r_quantum,
)
from triggaudin.series import TruncSeries
from triggaudin.tensor import AuxTensor, chain
from triggaudin.weyl import QDiffOp

# the field of the traced products' coefficients: Q(q)(u)
Qqu = FracField("u", Qq)
Q = Qqu.embed(Qq.gen)
U = Qqu.gen
SHIFT = Qq.one / (Qq.gen * Qq.gen)


def lift(terms, fields):
    """{exponent tuple: c} as an element of fields[-1], in canonical form.

    The last exponent belongs to the outermost variable.  A Laurent
    polynomial in x is num(x) / x^k with num(0) != 0 when k > 0, so num
    and the monic x^k are coprime and no gcd is needed.
    """
    field, base = fields[-1], fields[-1].base
    groups = {}
    for exps, c in terms.items():
        groups.setdefault(exps[-1], {})[exps[:-1]] = c
    low = min(groups)
    start = min(low, 0)
    coeffs = [base.zero] * (max(groups) - start + 1)
    for k, sub in groups.items():
        coeffs[k - start] = sub[()] if len(fields) == 1 else lift(sub, fields[:-1])
    den = [base.zero] * -start + [base.one]
    return RatFun(
        field.var,
        base,
        UniPoly(field.var, base, coeffs),
        UniPoly(field.var, base, den),
        reduce=False,
    )


def to_tower(x):
    """The element of Q(q)(u) that a Laurent polynomial in q, u denotes."""
    if x.is_zero():
        return Qqu.zero
    return lift(x.terms, (Qq, Qqu))


def current(rep, space, aux, u):
    """L+(u) = R_{0,1}(u/a_1) ... R_{0,l}(u/a_l) with its denominators."""
    factors = [
        (r_quantum(rep.N, Qqu, Q, u / qside.embed_rational(Qqu, a)), aux, "s%d" % i)
        for i, a in enumerate(rep.points, start=1)
    ]
    return chain(space, Qqu, factors)


def newton(rep, k, with_D):
    """tr_{1..k} Pq-cycle L_1(u) ... L_k(u q^(2-2k)) [D's]."""
    bnames = ["b%d" % a for a in range(1, k + 1)]
    space = rep.space(bnames)
    acc = adjacent_q_chain(space, Qqu, Q, range(k - 1, 0, -1))
    for a in range(1, k + 1):
        acc = acc * current(rep, space, bnames[a - 1], U * Q ** (2 - 2 * a))
    if with_D:
        D = diag_shift_d(rep.N, Qqu, Q)
        for nm in bnames:
            acc = acc * D.place(space, nm)
    return acc.partial_trace(bnames)


def mcal(rep, m, with_D=False):
    """(q-1)^(-m) times the traced right-multiplication recursion."""
    tnames = ["t%d" % a for a in range(1, m + 1)]
    space = rep.space(tnames)

    def m_factor(a):
        La = current(rep, space, tnames[a - 1], U)
        if with_D:
            La = La * diag_shift_d(rep.N, Qqu, Q).place(space, tnames[a - 1])
        return QDiffOp(space, Qqu, {1: La}, SHIFT)

    pq = q_permutation(rep.N, Qqu, Q)
    pp = permutation(rep.N, Qqu)
    X = QDiffOp.identity(space, Qqu, SHIFT)
    for a in range(1, m):
        legs = (tnames[a - 1], tnames[a])
        X = X.premul(pp.place(space, *legs)) - (X * m_factor(a)).premul(
            pq.place(space, *legs)
        )
    X = X - X * m_factor(m)
    return X.scale(Qqu.one / (Q - Qqu.one) ** m).partial_trace(tnames)


def mcal_collapsed(rep, m, with_D=False):
    """(q-1)^(-m) sum_k (-1)^k C(m,k) newton(k) delta^k."""
    qspace = rep.quantum_space()
    total = QDiffOp.zero(qspace, Qqu, SHIFT)
    for k in range(0, m + 1):
        if k == 0:
            term = AuxTensor.scalar(qspace, Qqu, Qqu.from_int(rep.N))
        else:
            term = newton(rep, k, with_D)
        c = Qqu.from_int((-1) ** k * comb(m, k))
        total = total + QDiffOp(qspace, Qqu, {k: term.scale(c)}, SHIFT)
    return total.scale(Qqu.one / (Q - Qqu.one) ** m)


def eps_expand(f, order):
    """Expand an element of Q(q)(u), regular at q = 1, in eps = q - 1.

    The coefficients are rational functions of u over Q.
    """
    num_rows = [c.expand_at(QQ.one, 0, order) for c in f.num.coeffs]
    den_rows = [c.expand_at(QQ.one, 0, order) for c in f.den.coeffs]

    def at(rows, j):
        return RatFun.from_poly(UniPoly("u", QQ, [row[j] for row in rows]))

    num = TruncSeries("eps", Qu, order, [at(num_rows, j) for j in range(order + 1)])
    den = TruncSeries("eps", Qu, order, [at(den_rows, j) for j in range(order + 1)])
    return num / den
