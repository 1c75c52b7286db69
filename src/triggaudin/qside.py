"""q-deformed verification layer over the symbolic field Q(q).

Everything here lives in R-matrix evaluation representations, given by
the same :class:`~triggaudin.gaudin.Sites` as the classical side: the
current L+(u) is a product of quantum R-matrices, the exchange relation
R L1 L2 = L2 L1 R then holds by the Yang-Baxter equation, and the
traced fused products give commuting transfer-matrix-like elements.
The ``classical_limit_compare`` machinery expands in eps = q - 1 and
matches the q-side operators against the classical two-route builder.

Rings: every q-side product is built from denominator-cleared currents
(each R-matrix factor times its denominator q - x/q), so every entry is
a Laurent polynomial and no step takes a gcd.  The bivariate identities
(``rll_check``, ``bethe_commut_check``) live in :data:`QUV` =
Q[q^+-1, u^+-1, v^+-1]; the traced products (``mcal``,
``mcal_collapsed``) live in :data:`QU` = Q[q^+-1, u^+-1], without their
(q - 1)^(-m) prefactor.  These rings are subrings of the
rational-function towers over Q(q), so an identity holds in them
exactly when it holds there, and the cleared scalar factor is the same
nonzero element on both sides of every comparison.  The classical limit
puts q = 1 + eps into the Laurent entries and divides by the eps-series
of the cleared factor (:func:`cleared_factor`), whose eps^0 term is a
unit in Q(u).  Only the central-term check stays on x-series over Q(q):
its normalizer coefficients have the denominator q^(2Nk) - 1, which
vanishes at q = 1.

Convention note: the eps^1 coefficient of L+(u) differs from the
classical current sum_i r_{0i}(u/a_i) by the central scalar series
sum_i (a_i+u)/(a_i-u); all limit comparisons use the self-consistent
convention "classical current := eps^1 coefficient of the q-current",
which leaves every commutativity statement untouched.
"""

from functools import lru_cache
from math import comb, factorial

from .laurent import LaurentRing
from .poly import UniPoly
from .rationals import QQ
from .ratfun import RatFun
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

# The ring of the cleared traced products: Laurent polynomials in q, u.
QU = LaurentRing(("q", "u"))

QRep = Sites


def embed_rational(ring, a):
    """Lift an exact rational number into any ring descriptor."""
    num = ring.from_int(int(a.numerator))
    den = ring.from_int(int(a.denominator))
    return num / den


def _gens(ring, q, u):
    """q and u, by default the first two generators of a Laurent ring."""
    return ring.gens[0] if q is None else q, ring.gens[1] if u is None else u


def qrep_current(rep, ring=QU, q=None, u=None, space=None, aux="z0"):
    """The cleared current den(u) L+(u), den(u) = prod_i (q - u/(a_i q)).

    L+(u) = R_{01}(u/a_1) R_{02}(u/a_2) ... R_{0l}(u/a_l); each factor is
    multiplied by its scalar denominator (q - x/q), so every entry is a
    Laurent polynomial.  ``q`` and ``u`` default to the ring's first two
    generators; passing ``u`` supports shifted arguments like
    u q^{-2a+2} and the second variable of bivariate checks.
    """
    q, u = _gens(ring, q, u)
    if space is None:
        space = rep.current_space(aux)
    factors = [
        (r_quantum_scaled(rep.N, ring, q, u / embed_rational(ring, a)), aux, "s%d" % i)
        for i, a in enumerate(rep.points, start=1)
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
    L1 = qrep_current(rep, QUV, q, u, space, "b1")
    L2 = qrep_current(rep, QUV, q, v, space, "b2")
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


def bethe(rep, kind, k, with_D=False, ring=QU, q=None, u=None):
    """Traced fused product of k shifted cleared currents behind a projector.

    kind "antisym" uses the normalized q-antisymmetrizer A^(k) (k <= N);
    kind "newton" uses the full-cycle q-permutation
    P^q_{(k,...,1)} = P^q_{k-1,k} ... P^q_{1,2}.  ``with_D`` inserts the
    diagonal shift D on every fused leg before tracing.  Leg a carries
    the current at u q^{2-2a}, cleared as in :func:`qrep_current`, so the
    result is prod_{j<k} den(u q^{-2j}) times the traced product of the
    true currents.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if kind not in ("antisym", "newton"):
        raise ValueError("unknown kind %r" % kind)
    if kind == "antisym" and k > rep.N:
        raise ValueError("antisymmetrizer is computed only for k <= N")
    q, u = _gens(ring, q, u)
    bnames = ["b%d" % a for a in range(1, k + 1)]
    space = rep.space(bnames)
    if kind == "antisym":
        acc = antisymmetrizer(k, rep.N, ring, q).place(space, *bnames)
    else:
        acc = adjacent_q_chain(space, ring, q, range(k - 1, 0, -1))
    for a in range(1, k + 1):
        ua = u * q ** (2 - 2 * a)
        acc = acc * qrep_current(rep, ring, q, ua, space, bnames[a - 1])
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
    A = bethe(rep, *spec_a, ring=QUV, u=u)
    B = bethe(rep, *spec_b, ring=QUV, u=v)
    return (A * B - B * A).is_zero()


def cleared_factor(rep, k):
    """prod_{j<k} den(u q^{-2j}) over :data:`QU`, den(u) = prod_i (q - u/(a_i q)).

    The delta^k coefficient of :func:`mcal` and :func:`mcal_collapsed`
    is (q-1)^m times this factor times the true coefficient.  At q = 1 it
    is prod_i (1 - u/a_i)^k, a unit in Q(u).
    """
    q, u = QU.gens
    out = QU.one
    for j in range(k):
        for a in rep.points:
            out = out * (q - u * q ** (-2 * j - 1) / embed_rational(QU, a))
    return out


def mcal(rep, m, with_D=False):
    """The m-th bracketed product, traced: a polynomial in delta over :data:`QU`.

    Built by the right-multiplication recursion with M_a = L+_a(u) delta
    (times D_a when shifted); delta shifts u by q^{-2}.  The currents are
    cleared and the (q-1)^{-m} prefactor is left out: with
    den(u) = prod_i (q - u/(a_i q)), the delta^k coefficient is
    (q-1)^m prod_{j<k} den(u q^{-2j}) times the true one (see
    :func:`cleared_factor`), and every entry is a Laurent polynomial.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    q, u = QU.gens
    shift = q ** -2
    tnames = ["t%d" % a for a in range(1, m + 1)]
    space = rep.space(tnames)

    def m_factor(a):
        La = qrep_current(rep, QU, q, u, space, tnames[a - 1])
        if with_D:
            La = La * diag_shift_d(rep.N, QU, q).place(space, tnames[a - 1])
        return QDiffOp(space, QU, {1: La}, shift)

    pq = q_permutation(rep.N, QU, q)
    pp = permutation(rep.N, QU)
    X = QDiffOp.identity(space, QU, shift)
    for a in range(1, m):
        legs = (tnames[a - 1], tnames[a])
        X = X.premul(pp.place(space, *legs)) - (X * m_factor(a)).premul(
            pq.place(space, *legs)
        )
    X = X - X * m_factor(m)
    return X.partial_trace(tnames)


def mcal_collapsed(rep, m, with_D=False):
    """Independent oracle: the binomial collapse of the traced product.

    sum_k (-1)^k C(m,k) tr_{1..k} Pq-cycle L1(u)...Lk(uq^{-2k+2}) [D's]
    delta^k, from cleared currents and without the (q-1)^{-m} prefactor,
    so the delta^k coefficient is (q-1)^m prod_{j<k} den(u q^{-2j}) times
    the true one, exactly as for :func:`mcal`.
    """
    q = QU.gens[0]
    shift = q ** -2
    qspace = rep.quantum_space()
    total = QDiffOp.zero(qspace, QU, shift)
    for k in range(0, m + 1):
        if k == 0:
            # the empty subset leaves the full plain cycle, whose total
            # trace is N rather than 1
            term = AuxTensor.scalar(qspace, QU, QU.from_int(rep.N))
        else:
            term = bethe(rep, "newton", k, with_D)
        c = QU.from_int((-1) ** k * comb(m, k))
        total = total + QDiffOp(qspace, QU, {k: term.scale(c)}, shift)
    return total


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


@lru_cache(maxsize=None)
def _binomials(a, order):
    """C(a, 0), ..., C(a, order) for any integer a: the eps-coefficients
    of (1 + eps)^a."""
    out = [QQ.one]
    for t in range(1, order + 1):
        out.append(out[-1] * (a - t + 1) / t)
    return tuple(out)


def _u_laurent(terms):
    """{exponent: c} in u as an element of Q(u), in canonical form.

    A Laurent polynomial is num(u) / u^k with num(0) != 0 when k > 0, so
    num and the monic u^k are coprime and no gcd is needed.
    """
    if not terms:
        return Qu.zero
    low = min(min(terms), 0)
    coeffs = [QQ.zero] * (max(terms) - low + 1)
    for b, c in terms.items():
        coeffs[b - low] = c
    den = UniPoly("u", QQ, [QQ.zero] * -low + [QQ.one])
    return RatFun("u", QQ, UniPoly("u", QQ, coeffs), den, reduce=False)


def eps_expand(f, order):
    """The eps-series of a Laurent polynomial f in q, u at q = 1 + eps.

    Each q^a is expanded by the generalised binomial series
    (1 + eps)^a = sum_t C(a, t) eps^t, which also holds for a < 0.  The
    coefficients are Laurent polynomials in u, returned as elements of
    :data:`~triggaudin.gaudin.Qu`.
    """
    rows = [{} for _ in range(order + 1)]
    for (a, b), c in f.terms.items():
        for row, w in zip(rows, _binomials(a, order)):
            if w:
                s = row.get(b, 0) + c * w
                if s:
                    row[b] = s
                else:
                    del row[b]
    return TruncSeries("eps", Qu, order, [_u_laurent(row) for row in rows])


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


def _uncleared(rep, k, order):
    """The inverse eps-series of :func:`cleared_factor`: multiplying the
    eps-series of a cleared delta^k entry by it gives the true one."""
    return eps_expand(cleared_factor(rep, k), order).invert()


def classical_limit_current(rep):
    """The eps^1 coefficient of L+(u), on one auxiliary plus site legs."""
    inv = _uncleared(rep, 1, 1)
    return qrep_current(rep).map_entries(
        lambda f: (eps_expand(f, 1) * inv).coefficient(1), ring=Qu
    )


def classical_limit_compare(rep, m, with_D=False, route="collapsed"):
    """Match the eps^m coefficient of the q-side product with the
    classical recursion.

    LHS: expand every delta-coefficient of the (q-1)^m-rescaled traced
    product in eps, convert delta powers to u-derivatives, keep the
    eps^m coefficient.  The cleared delta^k entries are expanded from
    the Laurent ring and multiplied by the inverse eps-series of
    :func:`cleared_factor`.  ``route`` picks how that product is built
    ("collapsed" binomial form, much faster, or the literal
    "recursion"); the two are checked equal independently by the
    oracle comparison in the q-side suite.
    RHS: the traced recursion built from the eps^1-coefficient current,
    with the diagonal rho shift exactly when D was inserted.
    """
    if route not in ("collapsed", "recursion"):
        raise ValueError("unknown route %r" % route)
    target = Qu
    T = (mcal if route == "recursion" else mcal_collapsed)(rep, m, with_D)
    sring = SeriesRing("eps", target, m)
    lhs = {}
    qspace = rep.quantum_space()
    for k in sorted(T.coeffs):
        inv = _uncleared(rep, k, m)
        tensor = T.coeffs[k].map_entries(
            lambda f: eps_expand(f, m) * inv, ring=sring
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
