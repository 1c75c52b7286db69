"""Commuting Hamiltonian families of the trigonometric spin model.

The central object is the matrix current L(u) = sum_i r_{0i}(u/a_i)
acting on one auxiliary leg and l quantum legs.  Two independent
routes build the same differential operators theta_m:

* ``theta_generating`` reads the y^m coefficient of the generating
  function sum_s y^s tr_{1..s} T_{s-1,s}(y)...T_{12}(y) L_1...L_s
  with the matrix differential operator L = 2u d/du - L(u);
* ``theta_mbar`` runs the right-multiplication recursion
  (L_m)-> (Tc_{m-1,m} + P_{m-1,m}(L_{m-1})->) ... (Tc_12 + P_12(L_1)->) 1
  and traces all auxiliary legs.

Both trace as they go: auxiliary leg t_a is traced out as soon as step a
is done with it, and each coupling of t_a to t_(a+1) is a weighted flip,
whose trace against t_a only renames and reweights
(:meth:`~triggaudin.tensor.AuxTensor.flip_trace`), so no operator ever
lives on more than one auxiliary leg and the working space has
dimension N^(1+l) for l sites, not N^(m+l).  The product that ends
each route, tr(X L), is summed as it is formed
(:meth:`~triggaudin.weyl.OperatorPolynomial.product_trace`): only the
pairs of entries that agree on the auxiliary leg are multiplied, about
1/N of those of X L.  Both live on
:class:`ThetaContext`, which is built from the current alone, one tensor
with the auxiliary leg first and the quantum legs after it, over any
coefficient ring whose generator is u.  So the symbolic mode-algebra
layer (a one-leg current of u-series) and the classical limit of the
q-side (the eps^1 coefficient of the q-current) reuse both routes
verbatim.

:class:`Sites` holds the sites of a representation (N and the points);
the q-side uses the same class with its own Laurent rings.

The representation side's coefficients live in :data:`Qu`, Q(u)
localised at the rational linear factors
(:class:`~triggaudin.polering.PoleRing`): the current's entries have
poles only at the sites, every element carries its own poles, so one
ring serves every set of sites, and no step takes a polynomial gcd.
The partial fractions of :func:`extract_family` and the residues of
:func:`quad_residue_check` are integer Taylor expansions at the poles.
"""

from fractions import Fraction
from math import lcm

from .kernels import sparse_add, sparse_matmul
from .polering import PoleRing
from .rationals import QQ
from .tensor import AuxTensor, Space, aux_leg, quantum_leg, single_leg_matrix
from .weyl import DiffOp
from .rmatrices import (
    diag_shift_rho,
    r_classical,
    sign,
    t_taylor,
    tc,
)


# the ring of the classical side's coefficients: Q(u) localised at the
# rational linear factors, one ring for every set of sites
Qu = PoleRing("u")


class Sites:
    """An evaluation representation: N, sites, distinct nonzero points.

    Site i is the quantum leg ``s<i>`` (1-based) at point ``points[i-1]``.
    """

    __slots__ = ("N", "points")

    def __init__(self, N, points):
        points = tuple(points)
        if N < 1:
            raise ValueError("N must be >= 1")
        if not points:
            raise ValueError("need at least one site")
        if any(not a for a in points):
            raise ValueError("evaluation points must be nonzero")
        if len(set(points)) != len(points):
            raise ValueError("evaluation points must be pairwise distinct")
        self.N = N
        self.points = points

    @property
    def l(self):
        return len(self.points)

    def site_names(self):
        return ["s%d" % (i + 1) for i in range(self.l)]

    def space(self, aux=()):
        """The auxiliary legs named in ``aux``, then the site legs."""
        legs = [aux_leg(nm) for nm in aux]
        return Space(self.N, legs + [quantum_leg(nm) for nm in self.site_names()])

    def current_space(self):
        """The legs of a current: the auxiliary leg z0, then the sites."""
        return self.space(["z0"])


GaudinRep = Sites


def represent_current(rep):
    """L(u) = sum_i r_{0i}(u/a_i) on the auxiliary leg z0 and the site legs."""
    u = Qu.gen
    space = rep.current_space()
    out = AuxTensor.zero(space, Qu)
    for i, a in enumerate(rep.points):
        r = r_classical(rep.N, Qu, u.scale(QQ.one / a))
        out = out + r.place(space, "z0", "s%d" % (i + 1))
    return out


def current_entry(current, i, j):
    """The (i, j) entry of a matrix current, as an operator on the rest.

    Indices are 1-based; the auxiliary leg is the current's first leg,
    and L_ij = tr_0((e_ji on leg 0) L).
    """
    aux = current.space.legs[0].name
    one = current.ring.one
    e_ji = single_leg_matrix(
        current.space.N, current.ring, lambda a, b: one if (a, b) == (j, i) else None
    )
    return e_ji.place(current.space, aux).product_trace(current, [aux])


class ThetaContext:
    """Shared recipe for both theta routes, generic over the ring.

    ``current`` is the matrix current as one tensor: its first leg is
    the auxiliary leg, the legs after it are the quantum legs, and its
    ring is the coefficient ring, whose generator plays the role of u
    in 2u d/du.  N, the ring and the quantum legs are read off it.

    Both routes trace as they go.  Auxiliary leg t_a is touched by
    nothing after step a, and tr_a(A X B) = A tr_a(X) B when A and B do
    not act on t_a (d/du commutes with the trace), so t_a is traced
    right after step a.  Every coupling of t_a to t_(a+1) (P, Tc and
    the Taylor coefficients of T(y)) is a weighted flip, so the traced
    step is :meth:`~triggaudin.weyl.OperatorPolynomial.flip_trace`: the
    operator on (t_a, quantum legs) with t_a renamed t_(a+1) and its
    blocks reweighted.  Every operator lives on the current's own legs,
    whose auxiliary leg stands for the one leg not yet traced, of
    dimension N^(1+l) for l sites.

    The context keeps the chain X_1 L, X_2 L, ... of :meth:`theta_mbar`
    for each ``shifted`` value, so theta_1, ..., theta_m taken together
    cost one recursion to depth m.  Asking for the highest order first
    is the cheap order: theta_m forms X_1 L, ..., X_(m-1) L whole and
    sums X_m L as it forms it, and every lower order is then read off
    the chain.  Asking in rising order forms each X_a L whole as well,
    once a higher order needs it.
    """

    def __init__(self, current):
        self.current = current
        self.N = current.space.N
        self.ring = current.ring
        self.quantum_legs = list(current.space.legs[1:])
        self._quantum_names = [leg.name for leg in self.quantum_legs]
        self._aux = current.space.legs[0].name
        self._chains = {}

    def script_l(self, space, aux, shifted):
        """The matrix differential operator 2u d/du [- rho] - current,
        with the current's auxiliary leg on ``aux`` of ``space``."""
        two_u = self.ring.from_int(2) * self.ring.gen
        lead = AuxTensor.scalar(space, self.ring, two_u)
        c0 = -self.current.place(space, aux, *self._quantum_names)
        if shifted:
            rho = diag_shift_rho(self.N, self.ring)
            c0 = c0 - rho.place(space, aux)
        return DiffOp(space, self.ring, {1: lead, 0: c0})

    def _script_l(self, shifted):
        """:meth:`script_l` on the current's own legs."""
        return self.script_l(self.current.space, self._aux, shifted)

    def theta_mbar(self, m, shifted=False):
        """theta_m through the right-multiplication recursion.

        X_1 = 1, X_{a+1} = tr_a(P_{a,a+1} (X_a L_a) + Tc_{a,a+1} X_a)
        = X_a L + flip_Tc(X_a) (P has weight one on every block),
        theta_m = tr(X_m L).  X_a does not depend on m, and X_a L serves
        both theta_a and X_{a+1}, so the chain X_1 L, X_2 L, ... and the
        next X are kept per ``shifted`` and extended only as far as m - 1:
        theta_1, ..., theta_m on one context run the recursion once.
        theta_m itself is tr(X_m L) summed as it is formed, unless X_m L
        is already in the chain.
        """
        if m < 1:
            raise ValueError("m must be >= 1")
        shifted = bool(shifted)
        X, xls = self._chains.get(shifted, (None, []))
        if m <= len(xls):
            return xls[m - 1].partial_trace([self._aux])
        if X is None:
            X = DiffOp.identity(self.current.space, self.ring)
        L = self._script_l(shifted)
        Tc = tc(self.N, self.ring)
        while len(xls) < m - 1:
            xl = X * L
            xls.append(xl)
            X = xl + X.flip_trace(Tc)
        self._chains[shifted] = (X, xls)
        return X.product_trace(L, [self._aux])

    def theta_generating(self, m, shifted=False):
        """theta_m as the y^m coefficient of the generating function.

        The s-leg term tr_{1..s} T_{s-1,s}(y)...T_{12}(y) L_1...L_s is
        tr_s(Z_s L_s) with Z_1 = 1 and Z_{a+1} = tr_a(T_{a,a+1}(y) Z_a L_a)
        = sum_k y^k flip_{T_k}(Z_a L).  The recursion for Z does not
        depend on s, so one pass serves every term: Z_a is kept as
        {y-degree: operator} up to degree m - a, and the s-leg term
        contributes tr_s(Z_s L_s) at y^(m-s) (Z_1 = 1 has degree 0 only,
        so the one-leg term counts for m = 1).  That component is summed
        as it is formed, and only the others are formed whole.
        """
        if m < 1:
            raise ValueError("m must be >= 1")
        T = [t_taylor(self.N, self.ring, k) for k in range(m - 1)]
        L = self._script_l(shifted)
        Z = {0: DiffOp.identity(self.current.space, self.ring)}
        total = DiffOp.zero(self.current.space.drop([self._aux]), self.ring)
        for s in range(1, m + 1):
            if m - s in Z:
                total = total + Z.pop(m - s).product_trace(L, [self._aux])
            zl = {d: z * L for d, z in Z.items()}
            Z = {}
            for d, z in zl.items():
                for k in range(m - s - d):
                    term = z.flip_trace(T[k])
                    Z[d + k] = Z[d + k] + term if d + k in Z else term
        return total


def rep_context(rep):
    """ThetaContext for the evaluation representation."""
    return ThetaContext(represent_current(rep))


def theta_generating(rep, m, shifted=False):
    return rep_context(rep).theta_generating(m, shifted)


def theta_mbar(rep, m, shifted=False):
    return rep_context(rep).theta_mbar(m, shifted)


def signed_tail(L):
    """sum_{ij} sign(i-j) L_ij L_ji of a current on the auxiliary leg z0."""
    out = AuxTensor.zero(L.space.drop(["z0"]), L.ring)
    for i in range(1, L.space.N + 1):
        for j in range(1, L.space.N + 1):
            s = sign(i - j)
            if s:
                term = current_entry(L, i, j) * current_entry(L, j, i)
                out = out + term.scale(L.ring.from_int(s))
    return out


def explicit_theta(rep, m):
    """Closed-form oracles of the unshifted theta_m for m <= 3, built
    independently.

    m=1: 2Nu d/du - tr L(u)
    m=2: 4Nu^2 d^2 - 4u(tr L - N) d - 2u tr L' + tr L^2
    m=3: tr(2u d/du - L)^3 + sum_{ij} sign(i-j) L_ij L_ji
    """
    if not 1 <= m <= 3:
        raise ValueError("explicit forms cover 1 <= m <= 3 only")
    F = Qu
    u = F.gen
    N = rep.N
    qspace = rep.space()
    L = represent_current(rep)
    trL = L.partial_trace(["z0"])
    if m == 1:
        return DiffOp(
            qspace,
            F,
            {
                1: AuxTensor.scalar(qspace, F, F.from_int(2 * N) * u),
                0: -trL,
            },
        )
    if m == 2:
        trLp = trL.map_entries(lambda f: f.derivative())
        trL2 = L.product_trace(L, ["z0"])
        four_u = F.from_int(4) * u
        return DiffOp(
            qspace,
            F,
            {
                2: AuxTensor.scalar(qspace, F, F.from_int(4 * N) * u * u),
                1: (AuxTensor.scalar(qspace, F, F.from_int(N)) - trL).scale(four_u),
                0: trL2 - trLp.scale(F.from_int(2) * u),
            },
        )
    # m == 3: cube of the one-leg matrix differential operator, traced,
    # plus the signed quadratic tail.
    script = ThetaContext(L).script_l(L.space, "z0", False)
    cube = (script * script).product_trace(script, ["z0"])
    return cube + DiffOp(qspace, F, {0: signed_tail(L)})


def closing_series(rep):
    """tr L^3 - 2u tr(L L') + sum_{ij} sign(j-i) L_ij L_ji as one tensor."""
    L = represent_current(rep)
    Lp = L.map_entries(lambda f: f.derivative())
    two_u = Qu.from_int(2) * Qu.gen
    return (
        (L * L).product_trace(L, ["z0"])
        - L.product_trace(Lp, ["z0"]).scale(two_u)
        - signed_tail(L)
    )


class FamilyMember:
    """One extracted operator with its provenance inside theta_m^{(k)}."""

    __slots__ = ("m", "k", "location", "op")

    def __init__(self, m, k, location, op):
        self.m = m
        self.k = k
        self.location = location
        self.op = op

    def label(self):
        kind = self.location[0]
        if kind == "pole":
            return "m=%d k=%d pole=%s order=%d" % (
                self.m,
                self.k,
                self.location[1],
                self.location[2],
            )
        return "m=%d k=%d poly deg=%d" % (self.m, self.k, self.location[1])

    def __repr__(self):
        return "FamilyMember(%s)" % self.label()


def partial_fraction_data(tensor, poles):
    """Split a rational-function tensor into exact operator coefficients.

    Returns a list of (location, operator-over-QQ) pairs: one operator
    per pole/order and one per polynomial-part degree, deterministic
    order.  ``poles`` must cover every denominator root.
    """
    pole_ops = {}
    poly_ops = {}
    for (r, c), f in tensor.sorted_entries():
        poly, parts = f.partial_fractions(poles)
        for d, coeff in enumerate(poly):
            if coeff:
                poly_ops.setdefault(d, {})[(r, c)] = coeff
        for a, coeffs in parts.items():
            for idx, coeff in enumerate(coeffs):
                if coeff:
                    pole_ops.setdefault((a, idx + 1), {})[(r, c)] = coeff
    qspace = tensor.space
    out = []
    for (a, order) in sorted(pole_ops, key=lambda t: (poles.index(t[0]), t[1])):
        out.append(
            (
                ("pole", a, order),
                AuxTensor(qspace, QQ, pole_ops[(a, order)]),
            )
        )
    for d in sorted(poly_ops):
        out.append((("poly", d), AuxTensor(qspace, QQ, poly_ops[d])))
    return out


def extract_family(rep, m_max, shifted=False):
    """All partial-fraction operators of theta_m^{(k)}, m <= m_max."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    ctx = rep_context(rep)
    poles = list(rep.points)
    # the highest order first: its chain serves every lower one
    top = ctx.theta_mbar(m_max, shifted)
    family = []
    for m in range(1, m_max + 1):
        theta = top if m == m_max else ctx.theta_mbar(m, shifted)
        for k in sorted(theta.coeffs):
            for location, op in partial_fraction_data(theta.coeffs[k], poles):
                family.append(FamilyMember(m, k, location, op))
    return family


def cleared(op):
    """An operator over Q as (int entries, d): op = entries / d, d > 0."""
    d = lcm(*[v.denominator for v in op.entries.values()])
    return {k: v.numerator * (d // v.denominator) for k, v in op.entries.items()}, d


def commutator_entries(a, b):
    """The sorted entries of [A, B] for cleared operators ``a``, ``b``.

    The commutator is taken on the integers, A_int B_int - B_int A_int,
    and only its nonzero entries are divided by d_a d_b, so the list is
    empty exactly when A and B commute and otherwise equals the sorted
    entries of the commutator over Q.
    """
    (ea, da), (eb, db) = a, b
    ba = sparse_matmul(eb, ea)
    comm = sparse_add(sparse_matmul(ea, eb), {k: -v for k, v in ba.items()})
    d = da * db
    return [(k, Fraction(v, d)) for k, v in sorted(comm.items())]


def commutator_width(ops):
    """The digit width K of :func:`packed_commutators` for cleared ``ops``.

    With n one more than the largest column index and M the largest
    |entry|, every entry of every [A_i, A_j] is a sum of at most 2n
    products of size at most M^2, so it lies strictly inside +-2^(K-1)
    for K = bit_length(2 n M^2) + 1.
    """
    n = 1 + max((c for e, _ in ops for _, c in e), default=0)
    m = max((abs(v) for e, _ in ops for v in e.values()), default=0)
    return (2 * n * m * m).bit_length() + 1


def packed_commutators(ops, rows=None):
    """Yield (i, j, entries) for i < j and i < ``rows``, in that order.

    ``entries`` is what :func:`commutator_entries` gives for the cleared
    operators ``ops[i]`` and ``ops[j]``, but member i costs two
    ``sparse_matmul`` calls for all its j together, not two per pair.
    The later members are packed into one integer matrix,
    B_i = sum_s A_(i+1+s) 2^(K s), built once for every i by Horner from
    the last member, with K from :func:`commutator_width`; then
    A_i B_i - B_i A_i = sum_s 2^(K s) [A_i, A_(i+1+s)].  Every entry of
    every commutator lies strictly inside +-2^(K-1), so the balanced
    base-2^K digits of each packed entry are the entries of the single
    commutators, and a pair commutes exactly when its digits are all
    zero.  Decoding that leaves a remainder past the last digit raises
    ``ArithmeticError`` instead of dropping the carry.
    """
    count = len(ops)
    rows = count if rows is None else rows
    width = commutator_width(ops)
    base, half = 1 << width, 1 << (width - 1)
    mask = base - 1
    packs = [{}] * count
    for j in range(count - 1, 0, -1):
        pack = {k: v << width for k, v in packs[j].items()}
        for k, v in ops[j][0].items():
            pack[k] = pack.get(k, 0) + v
        packs[j - 1] = pack
    for i in range(min(rows, count - 1)):
        a, da = ops[i]
        b = packs[i]
        ba = sparse_matmul(b, a)
        comm = sparse_add(sparse_matmul(a, b), {k: -v for k, v in ba.items()})
        digits = [[] for _ in range(i + 1, count)]
        for key in sorted(comm):
            x = comm[key]
            for s in range(len(digits)):
                d = x & mask
                if d >= half:
                    d -= base
                if d:
                    digits[s].append((key, Fraction(d, da * ops[i + 1 + s][1])))
                x = (x - d) >> width
                if not x:
                    break
            if x:
                raise ArithmeticError("packed commutator carries past its last digit")
        for s, entries in enumerate(digits):
            yield i, i + 1 + s, entries


def commutativity_report(family):
    """Exact pairwise commutators; pass iff all vanish.

    Each member is cleared of denominators once, and every commutator
    is taken on those integers by :func:`packed_commutators`: member i is
    multiplied both ways with B_i = sum_s A_(i+1+s) 2^(K s), the later
    members packed with K = bit_length(2 n M^2) + 1 bits per member (n
    the dimension, M the largest cleared entry), and the balanced
    base-2^K digits of A_i B_i - B_i A_i are its commutators with them.
    So F members cost 2 (F - 1) products, not F (F - 1).  A failing
    pair's witness is its commutator's sorted entries over Q, exactly as
    :func:`commutator_entries` gives them.
    """
    ops = [cleared(member.op) for member in family]
    labels = [member.label() for member in family]
    records = []
    ok = True
    for i, j, comm in packed_commutators(ops):
        good = not comm
        ok = ok and good
        records.append(
            {
                "pair": (labels[i], labels[j]),
                "zero": good,
                "witness": None if good else comm,
            }
        )
    return {"pass": ok, "pairs": records}


def quad_residue_check(rep):
    """Site-by-site residue extraction of the quadratic Hamiltonians.

    For each site i the normalized residue at u = a_i of
    -(a_i / 2u) tr L(u)^2 equals 2 a_i sum_{j != i} r_ij(a_i/a_j)
    exactly; equivalently the raw residue of tr L(u)^2 itself is
    4 a_i N - 4 a_i sum_{j != i} r_ij(a_i/a_j) (the double pole of the
    self-term contributes the central part, and the 1/(2u) weight
    removes it).  Both forms are checked.
    """
    F = Qu
    L = represent_current(rep)
    trL2 = L.product_trace(L, ["z0"])
    qspace = rep.space()
    sites = rep.site_names()
    records = []
    ok = True
    for i, ai in enumerate(rep.points):
        weight = F.embed(-ai / 2) / F.gen
        lhs = trL2.map_entries(
            lambda f: (f * weight).expand_at(ai, -1, -1)[0], ring=QQ
        )
        raw = trL2.map_entries(lambda f: f.expand_at(ai, -1, -1)[0], ring=QQ)
        rhs = AuxTensor.zero(qspace, QQ)
        for j, aj in enumerate(rep.points):
            if j == i:
                continue
            r = r_classical(rep.N, QQ, ai / aj)
            rhs = rhs + r.place(qspace, sites[i], sites[j])
        rhs = rhs.scale(QQ.from_int(2) * ai)
        central = AuxTensor.scalar(qspace, QQ, QQ.from_int(4 * rep.N) * ai)
        diff_norm = lhs - rhs
        diff_raw = raw - (central - rhs.scale(QQ.from_int(2)))
        good = diff_norm.is_zero() and diff_raw.is_zero()
        ok = ok and good
        records.append(
            {
                "site": i + 1,
                "point": str(ai),
                "zero": good,
                "witness": None if good else diff_norm.sorted_entries(),
            }
        )
    return {"pass": ok, "sites": records}
