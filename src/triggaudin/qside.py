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
unit in Q(u).  The eps-series of that bridge keep a field of their own,
:data:`Qu`, the reduced rational functions of
:mod:`~triggaudin.ratfun`, and only the eps^m coefficient of each entry
is built there.  The classical current (the eps^1 coefficient of the
q-current) and the recursion it is matched with run on the classical
side's pole-localised ring :data:`triggaudin.gaudin.Qu`, where no gcd
is taken; the eps^m coefficients are read into that ring for the
comparison.  The central-term check works on x-series over eps-series
over Q: the normalizer's denominators q^(2Nk) - 1 = eps * unit divide
out exactly there.

Nothing is built twice for one site set: the cleared currents and the
antisymmetrized elements are kept in bounded caches, ``mcal`` extends
its chain X_1, X_2, ... per site set and twist, the Newton elements of
``bethe`` and the terms of ``mcal_collapsed`` are the terms of one
:class:`NewtonChain` per site set, twist, ring, q and u, and the
classical recursion's context is kept per site set, so the product
oracle and the classical limit at one site set build each term once.

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
from .ratfun import FracField, RatFun
from .series import QSeriesRing, SeriesRing, TruncSeries
from .tensor import AuxTensor, Space, aux_leg, chain
from .weyl import QDiffOp
from . import gaudin
from .gaudin import Sites, ThetaContext
from .rmatrices import (
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

# The field of the eps bridge: the eps-coefficients of the classical
# limit, and the classical current and recursion they are matched with.
Qu = FracField("u", QQ)

QRep = Sites


def embed_rational(ring, a):
    """Lift an exact rational number into any ring descriptor."""
    num = ring.from_int(int(a.numerator))
    den = ring.from_int(int(a.denominator))
    return num / den


def _gens(ring, q, u):
    """q and u, by default the first two generators of a Laurent ring."""
    return ring.gens[0] if q is None else q, ring.gens[1] if u is None else u


def qrep_current(rep, ring=QU, q=None, u=None, with_D=False):
    """The cleared current den(u) L+(u), den(u) = prod_i (q - u/(a_i q)).

    L+(u) = R_{01}(u/a_1) R_{02}(u/a_2) ... R_{0l}(u/a_l) on the legs
    (z0, sites); each factor is multiplied by its scalar denominator
    (q - x/q), so every entry is a Laurent polynomial.  ``with_D`` gives
    L+(u) D, D on z0: the one place where the twist is applied.  ``q``
    and ``u`` default to the ring's first two generators; passing ``u``
    supports shifted arguments like u q^{-2a+2} and the second variable
    of bivariate checks.  Each current is kept per (N, points, ring, q,
    u, with_D) in a bounded cache, the twisted one built from the kept
    untwisted one, so each is built once per site set.
    """
    q, u = _gens(ring, q, u)
    return _qrep_current(rep.N, rep.points, ring, q, u, bool(with_D))


@lru_cache(maxsize=64)
def _qrep_current(N, points, ring, q, u, with_D):
    if with_D:
        L = _qrep_current(N, points, ring, q, u, False)
        return L * diag_shift_d(N, ring, q).place(L.space, "z0")
    factors = [
        (r_quantum_scaled(N, ring, q, u / embed_rational(ring, a)), "z0", "s%d" % i)
        for i, a in enumerate(points, start=1)
    ]
    return chain(QRep(N, points).current_space(), ring, factors)


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

    A "newton" element is term k of the :class:`NewtonChain` of
    :func:`newton_chain`.  An "antisym" element is one
    :func:`~triggaudin.tensor.chain` that sums leg b_a right after its
    last factor: the projector, then the kept current L_a [twisted] on
    (b_a, sites) for a = 1, ..., k.  Both are kept per (N, points,
    with_D, ring, q, u), the "antisym" element per k as well, so the
    commuting pairs of one family build each element once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if kind not in ("antisym", "newton"):
        raise ValueError("unknown kind %r" % kind)
    if kind == "antisym" and k > rep.N:
        raise ValueError("antisymmetrizer is computed only for k <= N")
    q, u = _gens(ring, q, u)
    if kind == "newton":
        return newton_chain(rep.N, rep.points, bool(with_D), ring, q, u).term(k)
    return _bethe(rep.N, rep.points, k, bool(with_D), ring, q, u)


@lru_cache(maxsize=32)
def _bethe(N, points, k, with_D, ring, q, u):
    rep = QRep(N, points)
    bnames = ["b%d" % a for a in range(1, k + 1)]
    sites = rep.site_names()
    factors = [(antisymmetrizer(k, N, ring, q), *bnames)]
    for a, nm in enumerate(bnames, start=1):
        L = qrep_current(rep, ring, q, u * q ** (2 - 2 * a), with_D)
        factors.append((L, nm, *sites))
    return chain(rep.space(bnames), ring, factors, traced=bnames)


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
    (twisted when shifted); delta shifts u by q^{-2}.  The currents are
    cleared and the (q-1)^{-m} prefactor is left out: with
    den(u) = prod_i (q - u/(a_i q)), the delta^k coefficient is
    (q-1)^m prod_{j<k} den(u q^{-2j}) times the true one (see
    :func:`cleared_factor`), and every entry is a Laurent polynomial.

    The recursion traces as it goes, like
    :class:`~triggaudin.gaudin.ThetaContext`: nothing after step a acts on
    leg t_a and the delta-shift acts entry by entry, so
    X_{a+1} = tr_a(P_{a,a+1} X_a - P^q_{a,a+1} (X_a M_a)), which is
    X_a - tr_a(P^q_{a,a+1} (X_a M_a)) since the plain flip only moves X_a
    to the next leg, and the result is tr_m(X_m - X_m M_m).  P^q does not
    depend on u, so P^q (X_a M_a) = (P^q X_a) M_a, and each step is one
    product of P^q X_a by M_a, summed over t_a as it is formed
    (``product_trace``).  X_a lives on (tb, sites) and each step works in
    (ta, tb, sites), so the working space has dimension N^(2+l) for l
    sites, not N^(m+l).  X_a does not depend on m, so the chain X_1,
    X_2, ... is kept per (N, points, twist) (:func:`_mcal_chain`) and
    extended only as far as m; the step operators are placed afresh on
    every call, from the kept current.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    q = QU.gens[0]
    shift = q ** -2
    sites = rep.site_names()
    work = rep.space(["ta", "tb"])
    rest = work.drop(["ta"])
    L = qrep_current(rep, with_D=with_D)
    m_ta = QDiffOp(work, QU, {1: L.place(work, "ta", *sites)}, shift)
    m_tb = QDiffOp(rest, QU, {1: L.place(rest, "tb", *sites)}, shift)
    pq = q_permutation(rep.N, QU, q).place(work, "ta", "tb")
    xs = _mcal_chain(rep.N, rep.points, bool(with_D))
    while len(xs) < m:
        X = xs[-1]
        step = X.place(work, "ta", *sites).premul(pq).product_trace(m_ta, ["ta"])
        xs.append(X - step)
    X = xs[m - 1]
    return (X - X * m_tb).partial_trace(["tb"])


@lru_cache(maxsize=32)
def _mcal_chain(N, points, with_D):
    """The chain [X_1, X_2, ...] of :func:`mcal`, kept for the process
    per site set and twist; :func:`mcal` extends it in place."""
    space = QRep(N, points).space(["tb"])
    return [QDiffOp.identity(space, QU, QU.gens[0] ** -2)]


class NewtonChain:
    """The Newton elements ``bethe(rep, "newton", k, ...)``, k = 1, 2, ...

    With L_k the kept current at u q^(2-2k) [twisted]: V_1 = 1, term
    k = tr(V_k L_k) and V_(k+1) = tr_k(P^q_(k,k+1) V_k L_k), exact
    because L_(k+1) does not act on leg k.  P^q is a weighted flip, so
    V_(k+1) = (V_k L_k).flip_trace(P^q) only reindexes
    (:meth:`~triggaudin.tensor.AuxTensor.flip_trace`), and every step
    works on the current's own legs (z0, sites), of dimension N^(1+l).
    Term k is summed as it is formed (``product_trace``); V_k L_k is
    formed whole only when term k + 1 is asked for.  The chain keeps its
    terms and the last V and L, and extends them on demand.
    """

    def __init__(self, rep, with_D, ring=QU, q=None, u=None):
        self.rep = rep
        self.ring = ring
        self.q, self.u = _gens(ring, q, u)
        self.with_D = with_D
        self.pq = q_permutation(rep.N, ring, self.q)
        self.terms = []
        self.V = AuxTensor.identity(rep.current_space(), ring)
        self.L = None

    def term(self, k):
        """tr(V_k L_k), as a tensor on the sites."""
        if k < 1:
            raise ValueError("k must be >= 1")
        while len(self.terms) < k:
            if self.terms:
                self.V = (self.V * self.L).flip_trace(self.pq)
            u = self.u * self.q ** (-2 * len(self.terms))
            self.L = qrep_current(self.rep, self.ring, self.q, u, self.with_D)
            self.terms.append(self.V.product_trace(self.L, ["z0"]))
        return self.terms[k - 1]


@lru_cache(maxsize=32)
def newton_chain(N, points, with_D, ring, q, u):
    """The :class:`NewtonChain` kept per site set, twist, ring, q and u."""
    return NewtonChain(QRep(N, points), with_D, ring, q, u)


def mcal_collapsed(rep, m, with_D=False):
    """Independent oracle: the binomial collapse of the traced product.

    sum_k (-1)^k C(m,k) tr_{1..k} Pq-cycle L1(u)...Lk(uq^{-2k+2}) [D's]
    delta^k, from cleared currents and without the (q-1)^{-m} prefactor,
    so the delta^k coefficient is (q-1)^m prod_{j<k} den(u q^{-2j}) times
    the true one, exactly as for :func:`mcal`.  Term k is
    ``bethe(rep, "newton", k, with_D)``, read from the kept
    :class:`NewtonChain`, so it is built once for every m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    qspace = rep.space()
    # k = 0 leaves the full plain cycle, whose total trace is N, not 1
    terms = [AuxTensor.scalar(qspace, QU, QU.from_int(rep.N))]
    terms += [bethe(rep, "newton", k, with_D) for k in range(1, m + 1)]
    coeffs = {
        k: term.scale(QU.from_int((-1) ** k * comb(m, k)))
        for k, term in enumerate(terms)
    }
    return QDiffOp(qspace, QU, coeffs, QU.gens[0] ** -2)


@lru_cache(maxsize=8)
def _permutations(N):
    """P^q and P over :data:`QU`, built once per N for every subset."""
    return q_permutation(N, QU, QU.gens[0]), permutation(N, QU)


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
    pq, pp = _permutations(N)
    inset = set(subset)
    factors = [
        (pq if a in inset else pp, names[a - 1], names[a]) for a in range(m - 1, 0, -1)
    ]
    complement = [nm for i, nm in enumerate(names, start=1) if i not in inset]
    traced = chain(space, QU, factors, traced=complement)
    if not subset:
        return traced.trace() == QU.from_int(N)
    legs = ["t%d" % a for a in subset]
    steps = range(len(subset) - 1, 0, -1)
    rhs = chain(traced.space, QU, [(pq, legs[t - 1], legs[t]) for t in steps])
    return traced == rhs


# ---------------------------------------------------------------------------
# eps = q - 1 expansions


@lru_cache(maxsize=None)
def _binomials(a, order):
    """C(a, 0), ..., C(a, order) for any integer a: the eps-coefficients
    of (1 + eps)^a.  Each is an integer, so the division is exact."""
    out = [1]
    for t in range(1, order + 1):
        out.append(out[-1] * (a - t + 1) // t)
    return tuple(out)


def _u_laurent(ints, den):
    """sum_b ints[b] u^b / den, for {exponent: int}, as an element of
    Q(u) in canonical form.

    A Laurent polynomial is num(u) / u^k with num(0) != 0 when k > 0, so
    num and the monic u^k are coprime and no gcd is needed.
    """
    if not ints:
        return Qu.zero
    low = min(min(ints), 0)
    coeffs = [0] * (max(ints) - low + 1)
    for b, c in ints.items():
        coeffs[b - low] = c
    num = UniPoly.from_ints("u", coeffs, den)
    u_power = UniPoly.from_ints("u", [0] * -low + [1])
    return RatFun("u", QQ, num, u_power, reduce=False)


def eps_expand(f, order):
    """The eps-series of a Laurent polynomial f in q, u at q = 1 + eps.

    Each q^a is expanded by the generalised binomial series
    (1 + eps)^a = sum_t C(a, t) eps^t, which also holds for a < 0.  The
    rows are summed on f's integer numerators over its one denominator;
    the coefficients are Laurent polynomials in u, returned as elements
    of :data:`Qu`.
    """
    rows = [{} for _ in range(order + 1)]
    unpack = f.ring.unpack
    for e, c in f.ints.items():
        a, b = unpack(e)
        for row, w in zip(rows, _binomials(a, order)):
            if w:
                s = row.get(b, 0) + c * w
                if s:
                    row[b] = s
                else:
                    del row[b]
    return TruncSeries("eps", Qu, order, [_u_laurent(row, f.den) for row in rows])


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


@lru_cache(maxsize=64)
def _uncleared(N, points, k, order):
    """The inverse eps-series of :func:`cleared_factor`, kept per site
    set: multiplying the eps-series of a cleared delta^k entry by it
    gives the true one."""
    return eps_expand(cleared_factor(QRep(N, points), k), order).invert()


def _to_pole(f):
    """An element of :data:`Qu` as the equal element of the classical
    side's pole ring; its denominator must split into rational linear
    factors (here u and the sites), the units of that ring."""
    ring = gaudin.Qu
    num = ring.from_ints(f.num.ints, f.num.den)
    return num / ring.from_ints(f.den.ints, f.den.den)


def classical_limit_current(rep):
    """The eps^1 coefficient of L+(u), on one auxiliary plus site legs,
    over the pole ring :data:`triggaudin.gaudin.Qu`."""
    inv = _uncleared(rep.N, rep.points, 1, 1)
    return qrep_current(rep).map_entries(
        lambda f: _to_pole((eps_expand(f, 1) * inv).coefficient(1)),
        ring=gaudin.Qu,
    )


@lru_cache(maxsize=32)
def classical_context(N, points):
    """The :class:`~triggaudin.gaudin.ThetaContext` of
    :func:`classical_limit_current`, kept per site set for the process:
    its chain per twist serves every order m."""
    return ThetaContext(classical_limit_current(QRep(N, points)))


def classical_limit_lhs(rep, m, with_D=False):
    """{i: eps^m coefficient of the d_u^i coefficient} of the
    (q-1)^m-rescaled traced product, over :data:`triggaudin.gaudin.Qu`.

    The delta^k coefficient of :func:`mcal_collapsed` has cleared entries
    f, polynomials in u over Q[q^+-1], so the eps-coefficients f_t of f
    are polynomials in u.  With c_{k,i} the eps-series of d_u^i in
    delta^k (:func:`delta_power_in_derivatives`) and w_{k,i} = c_{k,i}
    times the inverse eps-series of :func:`cleared_factor`, the eps^m
    coefficient of the d_u^i term is sum_t f_t w_{k,i,m-t}.  So only that
    coefficient is built: each scalar series w_{k,i} is formed once in
    :data:`Qu`, all w_{k,i,s} of one i are put over one denominator D_i
    as W_{k,i,s} / D_i, and an entry's coefficient is
    sum_{k,t} f_t W_{k,i,m-t} / D_i: polynomial products and one
    reduction in :data:`Qu` per entry, read into the pole ring.
    """
    T = mcal_collapsed(rep, m, with_D)
    weights, dens = {}, {}
    for k in T.coeffs:
        inv = _uncleared(rep.N, rep.points, k, m)
        weights[k] = {}
        for i, c in delta_power_in_derivatives(k, m).items():
            w = inv * c
            weights[k][i] = [(m - s, w.coefficient(s)) for s in range(m + 1)]
            for _, x in weights[k][i]:
                if x:
                    d = dens.get(i, x.den)
                    dens[i] = d * (x.den // d.gcd(x.den))
    sums = {}
    for k, tensor in T.coeffs.items():
        ws = []  # (the sums of order i, [(t, W_{k,i,m-t})]) for every i
        for i, w in weights[k].items():
            W = [(t, x.num * (dens[i] // x.den)) for t, x in w if x]
            if W:
                ws.append((sums.setdefault(i, {}), W))
        for key, f in tensor.entries.items():
            e = eps_expand(f, m).coeffs
            for acc, W in ws:
                for t, Wt in W:
                    if t < len(e) and e[t]:
                        term = e[t].num * Wt
                        acc[key] = acc[key] + term if key in acc else term
    qspace = rep.space()
    out = {}
    for i, acc in sums.items():
        entries = {
            key: _to_pole(RatFun("u", QQ, n, dens[i])) for key, n in acc.items() if n
        }
        if entries:
            out[i] = AuxTensor(qspace, gaudin.Qu, entries)
    return out


def classical_limit_rhs(rep, m, with_D=False):
    """theta_m of the classical recursion built from the eps^1-coefficient
    current, with the diagonal rho shift exactly when D was inserted; it
    extends the chain kept by :func:`classical_context`."""
    return classical_context(rep.N, rep.points).theta_mbar(m, shifted=with_D)


def classical_limit_compare(rep, m, with_D=False):
    """Match the eps^m coefficient of the q-side product with the
    classical recursion.

    LHS (:func:`classical_limit_lhs`): expand every delta-coefficient of
    the (q-1)^m-rescaled traced product in eps, convert delta powers to
    u-derivatives, keep the eps^m coefficient.  The cleared delta^k
    entries are expanded from the Laurent ring and weighted by the
    inverse eps-series of :func:`cleared_factor`.  The product is built
    in the binomial collapse form; its equality with the literal
    recursion is checked independently by the oracle comparison in the
    q-side suite.  RHS (:func:`classical_limit_rhs`): the traced
    recursion built from the eps^1-coefficient current.  Both sides are
    compared in the pole ring :data:`triggaudin.gaudin.Qu`, whose
    elements render as the reduced rational functions.
    """
    lhs = classical_limit_lhs(rep, m, with_D)
    rhs = classical_limit_rhs(rep, m, with_D)
    zero = AuxTensor.zero(rep.space(), gaudin.Qu)
    mismatches = []
    for i in sorted(set(lhs) | set(rhs.coeffs)):
        diff = lhs.get(i, zero) - rhs.coefficient(i)
        if not diff.is_zero():
            mismatches.append((i, diff.sorted_entries()))
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
    E = QSeriesRing("eps", _eps_order(x_order))
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
    E = QSeriesRing("eps", _eps_order(order))
    f = f_series(N, E, E.one + E.gen, order)
    want = QQ.from_int(2 * (N - 1)) / QQ.from_int(N)
    for k in range(1, order + 1):
        fk = f.coefficient(k)
        if fk.coefficient(0) or fk.coefficient(1) != want:
            return False
    return True
