"""q-deformed verification layer over the symbolic field Q(q).

Everything here lives in R-matrix evaluation representations, given by
the same :class:`~triggaudin.gaudin.Sites` as the classical side: the
current L+(u) is a product of quantum R-matrices, the exchange relation
R L1 L2 = L2 L1 R then holds by the Yang-Baxter equation, and the
traced fused products give commuting transfer-matrix-like elements.
The ``classical_limit_compare`` machinery expands in eps = q - 1 and
matches the q-side operators against the classical two-route builder.

Rings: the bivariate identities (``rll_check``, ``bethe_commut_check``)
are built from denominator-cleared R-matrices, so every entry is a
Laurent polynomial in q, u, v; they are checked in the sparse ring
:data:`QUV` = Q[q^+-1, u^+-1, v^+-1], which needs no gcd.  That ring is
a subring of Q(q)(u)(v), so a difference vanishes there exactly when it
vanishes in the rational-function tower.  The traced products
(``mcal``, ``mcal_collapsed``), the classical limit and the central
term divide by (q - 1)^m and by the R-matrix denominators, and stay in
the Q(q)(u) tower :data:`Qqu`.

Convention note: the eps^1 coefficient of L+(u) differs from the
classical current sum_i r_{0i}(u/a_i) by the central scalar series
sum_i (a_i+u)/(a_i-u); all limit comparisons use the self-consistent
convention "classical current := eps^1 coefficient of the q-current",
which leaves every commutativity statement untouched.
"""

from math import comb, factorial

from .laurent import LaurentRing
from .rationals import QQ
from .ratfun import FracField, RatFun
from .series import SeriesRing, TruncSeries
from .tensor import AuxTensor, Space, aux_leg, chain
from .weyl import QDiffOp
from .gaudin import Qu, Sites, ThetaContext
from .rmatrices import (
    Qq,
    adjacent_q_chain,
    antisymmetrizer,
    diag_shift_d,
    f_series,
    permutation,
    q_permutation,
    r_quantum,
    r_quantum_scaled,
)

# The ring of the cleared bivariate identities (exchange relation, fused
# commutators): every entry there is a Laurent polynomial in q, u, v.
QUV = LaurentRing(("q", "u", "v"))

# the field of the traced products' coefficients: Q(q)(u)
Qqu = FracField("u", Qq)

QRep = Sites


def embed_rational(ring, a):
    """Lift an exact rational number into any ring descriptor."""
    num = ring.from_int(int(a.numerator))
    den = ring.from_int(int(a.denominator))
    return num / den


def qrep_current(rep, ring=None, q=None, u=None, space=None, aux="z0", cleared=False):
    """L+(u) = R_{01}(u/a_1) R_{02}(u/a_2) ... R_{0l}(u/a_l).

    ``ring``, ``q`` and ``u`` default to :data:`Qqu` with its generators;
    passing them explicitly supports towers (bivariate u, v checks) and
    shifted arguments like u q^{-2a+2}.  ``cleared`` multiplies each
    factor by its scalar denominator (q - x/q), giving polynomial
    entries; identities homogeneous in the current are insensitive to
    this central rescaling.
    """
    if ring is None:
        ring = Qqu
        q = ring.embed(Qq.gen)
        u = ring.gen
    if space is None:
        space = rep.current_space(aux)
    builder = r_quantum_scaled if cleared else r_quantum
    factors = [
        (builder(rep.N, ring, q, u / embed_rational(ring, a)), aux, "s%d" % (i + 1))
        for i, a in enumerate(rep.points)
    ]
    return chain(space, ring, factors)


def exchange_difference(rep, R):
    """R12 L1(u) L2(v) - L2(v) L1(u) R12 over Q[q^+-1, u^+-1, v^+-1].

    ``R`` is a two-leg tensor over :data:`QUV`; its legs are placed on
    the auxiliary spaces of the two currents.  The currents are built
    from denominator-cleared R-matrices, so every entry is a Laurent
    polynomial.
    """
    q, u, v = QUV.gens
    space = rep.space(["b1", "b2"])
    L1 = qrep_current(rep, ring=QUV, q=q, u=u, space=space, aux="b1", cleared=True)
    L2 = qrep_current(rep, ring=QUV, q=q, u=v, space=space, aux="b2", cleared=True)
    R12 = R.place(space, "b1", "b2")
    return R12 * L1 * L2 - L2 * L1 * R12


def rll_check(rep):
    """Exchange relation R(u/v) L1(u) L2(v) = L2(v) L1(u) R(u/v), bivariate.

    Checked in the Laurent ring Q[q^+-1, u^+-1, v^+-1]: a subring of
    Q(q)(u)(v), so the difference vanishes there exactly when it
    vanishes in the rational-function tower.
    """
    q, u, v = QUV.gens
    # the extra factor v clears the 1/v left by the ratio argument
    R = r_quantum_scaled(rep.N, QUV, q, u / v).scale(v)
    return exchange_difference(rep, R).is_zero()


def bethe(rep, kind, k, with_D=False, ring=None, q=None, u=None, cleared=False):
    """Traced fused product of k shifted currents behind a projector.

    kind "antisym" uses the normalized q-antisymmetrizer A^(k) (k <= N);
    kind "newton" uses the full-cycle q-permutation
    P^q_{(k,...,1)} = P^q_{k-1,k} ... P^q_{1,2}.  ``with_D`` inserts the
    diagonal shift D on every fused leg before tracing.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if kind not in ("antisym", "newton"):
        raise ValueError("unknown kind %r" % kind)
    if kind == "antisym" and k > rep.N:
        raise ValueError("antisymmetrizer is computed only for k <= N")
    if ring is None:
        ring = Qqu
        q = ring.embed(Qq.gen)
        u = ring.gen
    bnames = ["b%d" % a for a in range(1, k + 1)]
    space = rep.space(bnames)
    if kind == "antisym":
        acc = antisymmetrizer(k, rep.N, ring, q).place(space, *bnames)
    else:
        acc = adjacent_q_chain(space, ring, q, range(k - 1, 0, -1))
    for a in range(1, k + 1):
        ua = u * q ** (2 - 2 * a)
        acc = acc * qrep_current(
            rep, ring=ring, q=q, u=ua, space=space, aux=bnames[a - 1], cleared=cleared
        )
    if with_D:
        D = diag_shift_d(rep.N, ring, q)
        for nm in bnames:
            acc = acc * D.place(space, nm)
    return acc.partial_trace(bnames)


def bethe_commut_check(rep, spec_a, spec_b):
    """[B(u), B'(v)] = 0 as a bivariate identity over Q[q^+-1, u^+-1, v^+-1].

    Each spec is a (kind, k, with_D) triple.  The fused elements are
    built from cleared currents, so every entry is a Laurent polynomial
    and the check needs no rational-function arithmetic.
    """
    q, u, v = QUV.gens
    A = bethe(rep, spec_a[0], spec_a[1], spec_a[2], ring=QUV, q=q, u=u, cleared=True)
    B = bethe(rep, spec_b[0], spec_b[1], spec_b[2], ring=QUV, q=q, u=v, cleared=True)
    return (A * B - B * A).is_zero()


def mcal(rep, m, with_D=False):
    """The m-th bracketed product, traced: a polynomial in delta.

    Built by the right-multiplication recursion with M_a = L+_a(u) delta
    (times D_a when shifted); the 1/(q-1)^m prefactor is kept
    symbolically in Q(q) so the classical-limit module can divide
    exactly.  delta shifts u by q^{-2}.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    Fu = Qqu
    q = Fu.embed(Qq.gen)
    u = Fu.gen
    shift = Qq.one / (Qq.gen * Qq.gen)
    tnames = ["t%d" % a for a in range(1, m + 1)]
    space = rep.space(tnames)

    def m_factor(a):
        La = qrep_current(rep, ring=Fu, q=q, u=u, space=space, aux=tnames[a - 1])
        if with_D:
            La = La * diag_shift_d(rep.N, Fu, q).place(space, tnames[a - 1])
        return QDiffOp(space, Fu, {1: La}, shift)

    pq = q_permutation(rep.N, Fu, q)
    pp = permutation(rep.N, Fu)
    X = QDiffOp.identity(space, Fu, shift)
    for a in range(1, m):
        legs = (tnames[a - 1], tnames[a])
        X = X.premul(pp.place(space, *legs)) - (X * m_factor(a)).premul(
            pq.place(space, *legs)
        )
    X = X - X * m_factor(m)
    pref = Fu.one / (q - Fu.one) ** m
    return X.scale(pref).partial_trace(tnames)


def mcal_collapsed(rep, m, with_D=False):
    """Independent oracle: the binomial collapse of the traced product.

    (q-1)^{-m} sum_k (-1)^k C(m,k) tr_{1..k} Pq-cycle
    L1(u)...Lk(uq^{-2k+2}) [D's] delta^k.
    """
    Fu = Qqu
    q = Fu.embed(Qq.gen)
    shift = Qq.one / (Qq.gen * Qq.gen)
    qspace = rep.quantum_space()
    total = QDiffOp.zero(qspace, Fu, shift)
    for k in range(0, m + 1):
        if k == 0:
            # the empty subset leaves the full plain cycle, whose total
            # trace is N rather than 1
            term = AuxTensor.scalar(qspace, Fu, Fu.from_int(rep.N))
        else:
            term = bethe(rep, "newton", k, with_D)
        c = Fu.from_int((-1) ** k * comb(m, k))
        total = total + QDiffOp(qspace, Fu, {k: term.scale(c)}, shift)
    pref = Fu.one / (q - Fu.one) ** m
    return total.scale(pref)


def trace_identity_pi(m, subset, N, numeric_q=None):
    """Partial-trace collapse of the permutation sandwich.

    The sandwich is the product C_{m-1} ... C_1 with C_a the
    q-permutation on (a, a+1) when a is in the subset and the plain
    permutation otherwise; tracing the complementary legs must leave
    the chain of q-permutations along consecutive subset members.
    An empty subset reduces to the full plain cycle, whose total trace
    is N.
    """
    subset = tuple(sorted(subset))
    if any(a < 1 or a > m for a in subset):
        raise ValueError("subset out of range")
    if numeric_q is None:
        ring = Qq
        q = Qq.gen
    else:
        ring = QQ
        q = numeric_q
    names = ["t%d" % a for a in range(1, m + 1)]
    space = Space(N, [aux_leg(nm) for nm in names])
    pq = q_permutation(N, ring, q)
    pp = permutation(N, ring)
    inset = set(subset)
    factors = [
        (pq if a in inset else pp, names[a - 1], names[a]) for a in range(m - 1, 0, -1)
    ]
    sandwich = chain(space, ring, factors)
    if not subset:
        return sandwich.trace() == ring.from_int(N)
    complement = [nm for i, nm in enumerate(names, start=1) if i not in inset]
    traced = sandwich.partial_trace(complement)
    legs = ["t%d" % a for a in subset]
    steps = range(len(subset) - 1, 0, -1)
    rhs = chain(traced.space, ring, [(pq, legs[t - 1], legs[t]) for t in steps])
    return (traced - rhs).is_zero()


# ---------------------------------------------------------------------------
# eps = q - 1 expansions


def eps_expand(f, order):
    """Expand a rational function of u over Q(q) around q = 1.

    Returns a truncated series in eps whose coefficients are rational
    functions of u over Q (in :data:`~triggaudin.gaudin.Qu`).  The input
    must be regular at q = 1.
    """
    target = Qu
    from .poly import UniPoly

    num_rows = [c.expand_at(QQ.one, 0, order) for c in f.num.coeffs]
    den_rows = [c.expand_at(QQ.one, 0, order) for c in f.den.coeffs]

    def poly_at(rows, j):
        return UniPoly("u", QQ, [row[j] for row in rows])

    num_s = [RatFun.from_poly(poly_at(num_rows, j)) for j in range(order + 1)]
    den_s = [RatFun.from_poly(poly_at(den_rows, j)) for j in range(order + 1)]
    if den_s[0].is_zero():
        raise ZeroDivisionError("denominator vanishes at q = 1")
    inv0 = target.one / den_s[0]
    inv = [inv0]
    for k in range(1, order + 1):
        acc = target.zero
        for j in range(1, k + 1):
            if den_s[j]:
                acc = acc + den_s[j] * inv[k - j]
        inv.append(-(inv0 * acc))
    out = []
    for k in range(order + 1):
        acc = target.zero
        for j in range(k + 1):
            if num_s[j]:
                acc = acc + num_s[j] * inv[k - j]
        out.append(acc)
    return TruncSeries("eps", target, order, out)


def stirling2(n, k):
    """Stirling numbers of the second kind, small-range recursion."""
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def delta_power_in_derivatives(k, order, target):
    """delta^k as sum_i c_i(u, eps) d_u^i up to the eps order.

    delta substitutes u -> u q^{-2}, so on functions of u it acts as
    exp(-2 ln(1+eps) u d_u); the coefficient of d_u^i collects the
    Stirling-number rearrangement of (u d_u)^j.
    """
    log1p = TruncSeries(
        "eps",
        target,
        order,
        [target.zero]
        + [
            target.from_int((-1) ** (t + 1)) / target.from_int(t)
            for t in range(1, order + 1)
        ],
    )
    w = log1p.scale(target.from_int(-2 * k))
    upow = target.one
    wj = TruncSeries.one("eps", target, order)
    terms = {}
    for j in range(order + 1):
        if j > 0:
            wj = wj * w
        inv_fact = target.one / target.from_int(factorial(j))
        for i in range(j + 1):
            s = stirling2(j, i)
            if not s:
                continue
            contrib = wj.scale(inv_fact * target.from_int(s))
            terms[i] = terms.get(i, TruncSeries.zero("eps", target, order)) + contrib
    u = target.gen
    out = {}
    for i, series in terms.items():
        scaled = series.scale(u ** i)
        if not scaled.is_zero():
            out[i] = scaled
    return out


def classical_limit_current(rep):
    """The eps^1 coefficient of L+(u), on one auxiliary plus site legs."""
    Lq = qrep_current(rep)
    return Lq.map_entries(lambda f: eps_expand(f, 1).coefficient(1), ring=Qu)


def classical_limit_compare(rep, m, with_D=False, route="collapsed"):
    """Match the eps^m coefficient of the q-side product with the
    classical recursion.

    LHS: expand every delta-coefficient of the (q-1)^m-rescaled traced
    product in eps, convert delta powers to u-derivatives, keep the
    eps^m coefficient.  ``route`` picks how that product is built
    ("collapsed" binomial form, much faster, or the literal
    "recursion"); the two are checked equal independently by the
    oracle comparison in the q-side suite.
    RHS: the traced recursion built from the eps^1-coefficient current,
    with the diagonal rho shift exactly when D was inserted.
    """
    if route not in ("collapsed", "recursion"):
        raise ValueError("unknown route %r" % route)
    target = Qu
    q = Qqu.embed(Qq.gen)
    pref = (q - Qqu.one) ** m
    T = (mcal if route == "recursion" else mcal_collapsed)(rep, m, with_D)
    sring = SeriesRing("eps", target, m)
    lhs = {}
    qspace = rep.quantum_space()
    for k in sorted(T.coeffs):
        tensor = T.coeffs[k].map_entries(
            lambda f: eps_expand(f * pref, m), ring=sring
        )
        for i, coeff in delta_power_in_derivatives(k, m, target).items():
            contrib = tensor.map_entries(lambda s: s * coeff)
            lhs[i] = lhs[i] + contrib if i in lhs else contrib
    lhs_m = {
        i: t.map_entries(lambda s: s.coefficient(m), ring=target)
        for i, t in lhs.items()
    }
    lhs_m = {i: t for i, t in lhs_m.items() if not t.is_zero()}

    Lc = classical_limit_current(rep)

    def factory(space, aux):
        return Lc.place(space, aux, *rep.site_names())

    ctx = ThetaContext(rep.N, target, qspace.legs, factory, target.gen)
    rhs = ctx.theta_mbar(m, shifted=with_D)
    keys = sorted(set(lhs_m) | set(rhs.coeffs))
    mismatches = []
    for i in keys:
        a = lhs_m.get(i, AuxTensor.zero(qspace, target))
        b = rhs.coefficient(i)
        if not (a - b).is_zero():
            mismatches.append((i, (a - b).sorted_entries()))
    return {"pass": not mismatches, "mismatches": mismatches}


def prop_central_term_check(N, c, x_order):
    """Second-order central term of the normalized R-matrix difference.

    Verifies order-by-order in x that
    (Rbar(x q^c) - Rbar(x q^{-c})) / (q-1)^2 at q = 1 equals
    4 c x / (1-x)^2 (P - 1/N).
    """
    SR = SeriesRing("x", Qq, x_order)
    q = SR.embed(Qq.gen)
    R = r_quantum(N, SR, q, SR.gen)
    f = f_series(N, x_order)
    Rbar = R.scale(f)
    qc = Qq.gen ** c
    qmc = Qq.gen ** (-c)
    plus = Rbar.map_entries(lambda s: s.scale_var(qc))
    minus = Rbar.map_entries(lambda s: s.scale_var(qmc))
    diff = plus - minus
    denom = (Qq.gen - Qq.one) ** 2
    P = permutation(N, QQ)
    space = P.space
    ident = AuxTensor.identity(space, QQ)
    target = P - ident.scale(QQ.one / QQ.from_int(N))
    for k in range(x_order + 1):
        lhs = diff.map_entries(
            lambda s: (s.coefficient(k) / denom).eval(QQ.one), ring=QQ
        )
        rhs = target.scale(QQ.from_int(4 * c * k))
        if not (lhs - rhs).is_zero():
            return False
    return True


def f_series_first_order_check(N, order):
    """First eps-order of every f-series coefficient is 2(N-1)/N."""
    f = f_series(N, order)
    want = QQ.from_int(2 * (N - 1)) / QQ.from_int(N)
    for k in range(1, order + 1):
        exp = f.coefficient(k).expand_at(QQ.one, 0, 1)
        if exp[0] or exp[1] != want:
            return False
    return True
