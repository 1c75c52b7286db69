"""q-deformed verification layer over Laurent rings in q and eps-series at q = 1.

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
unit in Q(u).  The central-term check works on x-series over eps-series
over Q: the normalizer's denominators q^(2Nk) - 1 = eps * unit divide
out exactly there.

Convention note: the eps^1 coefficient of L+(u) differs from the
classical current sum_i r_{0i}(u/a_i) by the central scalar series
sum_i (a_i+u)/(a_i-u); all limit comparisons use the self-consistent
convention "classical current := eps^1 coefficient of the q-current",
which leaves every commutativity statement untouched.
"""

from functools import lru_cache
from math import comb

from .laurent import LaurentRing
from .poly import UniPoly
from .rationals import QQ
from .ratfun import RatFun
from .series import SeriesRing, TruncSeries
from .tensor import AuxTensor, Space, aux_leg, chain
from .weyl import QDiffOp
from .gaudin import Qu, Sites, ThetaContext
from .rmatrices import (
    adjacent_q_chain,
    antisymmetrizer,
    diag_shift_d,
    f_series,
    permutation,
    q_permutation,
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


def qrep_current(rep, ring=QU, q=None, u=None):
    """The cleared current den(u) L+(u), den(u) = prod_i (q - u/(a_i q)).

    L+(u) = R_{01}(u/a_1) R_{02}(u/a_2) ... R_{0l}(u/a_l) on the legs
    (z0, sites); each factor is multiplied by its scalar denominator
    (q - x/q), so every entry is a Laurent polynomial.  ``q`` and ``u``
    default to the ring's first two generators; passing ``u`` supports
    shifted arguments like u q^{-2a+2} and the second variable of
    bivariate checks.
    """
    q, u = _gens(ring, q, u)
    factors = [
        (r_quantum_scaled(rep.N, ring, q, u / embed_rational(ring, a)), "z0", "s%d" % i)
        for i, a in enumerate(rep.points, start=1)
    ]
    return chain(rep.current_space(), ring, factors)


def exchange_difference(rep, R):
    """R12 L1(u) L2(v) - L2(v) L1(u) R12 over Q[q^+-1, u^+-1, v^+-1].

    ``R`` is a two-leg tensor over :data:`QUV`; its legs are placed on
    the auxiliary spaces of the two currents.  The currents are built
    from denominator-cleared R-matrices, so every entry is a Laurent
    polynomial.
    """
    q, u, v = QUV.gens
    space = rep.space(["b1", "b2"])
    sites = rep.site_names()
    L1 = qrep_current(rep, QUV, q, u).place(space, "b1", *sites)
    L2 = qrep_current(rep, QUV, q, v).place(space, "b2", *sites)
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
    sites = rep.site_names()
    if kind == "antisym":
        acc = antisymmetrizer(k, rep.N, ring, q).place(space, *bnames)
    else:
        acc = adjacent_q_chain(space, ring, q, range(k - 1, 0, -1))
    for a in range(1, k + 1):
        ua = u * q ** (2 - 2 * a)
        La = qrep_current(rep, ring, q, ua)
        acc = acc * La.place(space, bnames[a - 1], *sites)
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
    q = QU.gens[0]
    shift = q ** -2
    tnames = ["t%d" % a for a in range(1, m + 1)]
    space = rep.space(tnames)
    sites = rep.site_names()
    L = qrep_current(rep)
    if with_D:
        L = L * diag_shift_d(rep.N, QU, q).place(L.space, "z0")

    def m_factor(a):
        return QDiffOp(space, QU, {1: L.place(space, tnames[a - 1], *sites)}, shift)

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


def trace_identity_pi(m, subset, N):
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
    names = ["t%d" % a for a in range(1, m + 1)]
    space = Space(N, [aux_leg(nm) for nm in names])
    pq = q_permutation(N, QU, QU.gens[0])
    pp = permutation(N, QU)
    inset = set(subset)
    factors = [
        (pq if a in inset else pp, names[a - 1], names[a]) for a in range(m - 1, 0, -1)
    ]
    sandwich = chain(space, QU, factors)
    if not subset:
        return sandwich.trace() == QU.from_int(N)
    complement = [nm for i, nm in enumerate(names, start=1) if i not in inset]
    traced = sandwich.partial_trace(complement)
    legs = ["t%d" % a for a in subset]
    steps = range(len(subset) - 1, 0, -1)
    rhs = chain(traced.space, QU, [(pq, legs[t - 1], legs[t]) for t in steps])
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


def delta_power_in_derivatives(k, order):
    """delta^k as sum_i c_i(u, eps) d_u^i up to the eps order.

    delta substitutes u -> u q^{-2}, so by Taylor's formula
    delta^k = sum_i (u (q^{-2k} - 1))^i / i! d_u^i.  The factor
    q^{-2k} - 1 vanishes at eps = 0, so the terms i <= order are all
    that survive.
    """
    # u (q^{-2k} - 1): the binomial series of q^{-2k} without its 1
    tail = _binomials(-2 * k, order)[1:]
    h = TruncSeries("eps", Qu, order, [Qu.zero] + [Qu.gen.scale(c) for c in tail])
    out = {}
    term = TruncSeries.one("eps", Qu, order)
    for i in range(order + 1):
        if term.is_zero():
            break
        out[i] = term
        term = (term * h).scale(Qu.one / Qu.from_int(i + 1))
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


def classical_limit_compare(rep, m, with_D=False):
    """Match the eps^m coefficient of the q-side product with the
    classical recursion.

    LHS: expand every delta-coefficient of the (q-1)^m-rescaled traced
    product in eps, convert delta powers to u-derivatives, keep the
    eps^m coefficient.  The cleared delta^k entries are expanded from
    the Laurent ring and multiplied by the inverse eps-series of
    :func:`cleared_factor`.  The product is built in the binomial
    collapse form; its equality with the literal recursion is checked
    independently by the oracle comparison in the q-side suite.
    RHS: the traced recursion built from the eps^1-coefficient current,
    with the diagonal rho shift exactly when D was inserted.
    """
    T = mcal_collapsed(rep, m, with_D)
    sring = SeriesRing("eps", Qu, m)
    lhs = {}
    qspace = rep.quantum_space()
    for k in sorted(T.coeffs):
        inv = _uncleared(rep, k, m)
        tensor = T.coeffs[k].map_entries(
            lambda f: eps_expand(f, m) * inv, ring=sring
        )
        for i, coeff in delta_power_in_derivatives(k, m).items():
            contrib = tensor.map_entries(lambda s: s * coeff)
            lhs[i] = lhs[i] + contrib if i in lhs else contrib
    lhs_m = {
        i: t.map_entries(lambda s: s.coefficient(m), ring=Qu)
        for i, t in lhs.items()
    }
    lhs_m = {i: t for i, t in lhs_m.items() if not t.is_zero()}

    rhs = ThetaContext(classical_limit_current(rep)).theta_mbar(m, shifted=with_D)
    keys = sorted(set(lhs_m) | set(rhs.coeffs))
    mismatches = []
    for i in keys:
        a = lhs_m.get(i, AuxTensor.zero(qspace, Qu))
        b = rhs.coefficient(i)
        if not (a - b).is_zero():
            mismatches.append((i, (a - b).sorted_entries()))
    return {"pass": not mismatches, "mismatches": mismatches}


def _eps_order(x_order):
    """The eps order of the normalizer checks: each f_k loses one order
    to q^(2Nk) - 1 = eps * unit and the central term two more to eps^2,
    and its eps^0 coefficient at x^x_order must survive."""
    return x_order + 2


def central_term(N, c, k):
    """The closed form 4ck (P - 1/N) of the x^k central term, over Q."""
    P = permutation(N, QQ)
    return (P - AuxTensor.identity(P.space, QQ).scale(QQ.one / N)).scale(4 * c * k)


def prop_central_term_check(N, c, x_order):
    """Second-order central term of the normalized R-matrix difference.

    Verifies order-by-order in x that
    (Rbar(x q^c) - Rbar(x q^{-c})) / (q-1)^2 at q = 1 equals
    4 c x / (1-x)^2 (P - 1/N), with Rbar = f R an x-series over eps-series
    at q = 1 + eps; x -> x q^(+-c) scales x^k by q^(+-ck).
    """
    E = SeriesRing("eps", QQ, _eps_order(x_order))
    q = E.one + E.gen
    SR = SeriesRing("x", E, x_order)
    Q, x = SR.embed(q), SR.gen
    # f R is the cleared R-matrix times the one scalar f / (q - x/q)
    Rbar = r_quantum_scaled(N, SR, Q, x).scale(f_series(N, E, q, x_order) / (Q - x / Q))
    for k in range(x_order + 1):
        w = q ** (c * k) - q ** (-c * k)
        lhs = Rbar.map_entries(
            lambda s: (s.coefficient(k) * w / E.gen ** 2).coefficient(0), ring=QQ
        )
        if not (lhs - central_term(N, c, k)).is_zero():
            return False
    return True


def f_series_first_order_check(N, order):
    """Every f-series coefficient f_k, k >= 1, is 2(N-1)/N eps + O(eps^2)."""
    E = SeriesRing("eps", QQ, _eps_order(order))
    f = f_series(N, E, E.one + E.gen, order)
    want = QQ.from_int(2 * (N - 1)) / QQ.from_int(N)
    for k in range(1, order + 1):
        fk = f.coefficient(k)
        if fk.coefficient(0) or fk.coefficient(1) != want:
            return False
    return True
