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
is done with it, so no operator ever lives on more than two auxiliary
legs and the working space has dimension N^(2+l) for l sites, not
N^(m+l).  Both live on :class:`ThetaContext`, which is built from the
current alone, one tensor with the auxiliary leg first and the quantum
legs after it, over any coefficient ring whose generator is u.  So the
symbolic mode-algebra layer (a one-leg current of u-series) and the
classical limit of the q-side (the eps^1 coefficient of the q-current)
reuse both routes verbatim.

:class:`Sites` holds the sites of a representation (N and the points);
the q-side uses the same class with its own Laurent rings.
"""

from .rationals import QQ
from .ratfun import FracField
from .tensor import AuxTensor, Space, aux_leg, quantum_leg, single_leg_matrix
from .weyl import DiffOp
from .rmatrices import (
    diag_shift_rho,
    permutation,
    r_classical,
    sign,
    t_taylor,
    tc,
)


# the field of the classical side's coefficients
Qu = FracField("u", QQ)


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

    def quantum_space(self):
        return self.space()

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
    return (e_ji.place(current.space, aux) * current).partial_trace([aux])


class ThetaContext:
    """Shared recipe for both theta routes, generic over the ring.

    ``current`` is the matrix current as one tensor: its first leg is
    the auxiliary leg, the legs after it are the quantum legs, and its
    ring is the coefficient ring, whose generator plays the role of u
    in 2u d/du.  N, the ring and the quantum legs are read off it.

    Both routes trace as they go.  Auxiliary leg t_a is touched by
    nothing after step a, and tr_a(A X B) = A tr_a(X) B when A and B do
    not act on t_a (d/du commutes with the trace), so t_a is traced
    right after step a.  A step works in the space ``work`` = (t_a,
    t_{a+1}, quantum legs) of dimension N^(2+l); the traced operator
    lives on ``rest`` = (t_{a+1}, quantum legs) and is lifted back into
    ``work`` with its t_{a+1} renamed t_a for the next step.
    """

    def __init__(self, current):
        self.current = current
        self.N = current.space.N
        self.ring = current.ring
        self.quantum_legs = list(current.space.legs[1:])
        self._quantum_names = [leg.name for leg in self.quantum_legs]

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

    def _spaces(self):
        """The step space (ta, tb, quantum legs) and (tb, quantum legs)."""
        work = Space(self.N, [aux_leg("ta"), aux_leg("tb")] + self.quantum_legs)
        return work, work.drop(["ta"])

    def _lift(self, X, work):
        """X on (tb, quantum legs) as an operator on ``work`` with tb -> ta."""
        return X.place(work, "ta", *self._quantum_names)

    def _pair(self, tensor, work):
        """A two-leg tensor on the auxiliary legs (ta, tb) of ``work``."""
        return tensor.place(work, "ta", "tb")

    def theta_mbar(self, m, shifted=False):
        """theta_m through the right-multiplication recursion.

        X_1 = 1, X_{a+1} = tr_a(P_{a,a+1} (X_a L_a) + Tc_{a,a+1} X_a),
        theta_m = tr_m(X_m L_m).
        """
        if m < 1:
            raise ValueError("m must be >= 1")
        work, rest = self._spaces()
        P = self._pair(permutation(self.N, self.ring), work)
        Tc = self._pair(tc(self.N, self.ring), work)
        la = self.script_l(work, "ta", shifted)
        X = DiffOp.identity(rest, self.ring)
        for _ in range(1, m):
            X = self._lift(X, work)
            X = ((X * la).premul(P) + X.premul(Tc)).partial_trace(["ta"])
        return (X * self.script_l(rest, "tb", shifted)).partial_trace(["tb"])

    def theta_generating(self, m, shifted=False):
        """theta_m as the y^m coefficient of the generating function.

        The s-leg term tr_{1..s} T_{s-1,s}(y)...T_{12}(y) L_1...L_s is
        tr_s(Z_s L_s) with Z_1 = 1 and Z_{a+1} = tr_a(T_{a,a+1}(y) Z_a L_a).
        The recursion for Z does not depend on s, so one pass serves
        every term: Z_a is kept as {y-degree: operator} up to degree
        m - a, and the s-leg term contributes tr_s(Z_s L_s) at y^(m-s)
        (Z_1 = 1 has degree 0 only, so the one-leg term counts for m = 1).
        """
        if m < 1:
            raise ValueError("m must be >= 1")
        work, rest = self._spaces()
        T = [self._pair(t_taylor(self.N, self.ring, k), work) for k in range(m - 1)]
        la = self.script_l(work, "ta", shifted)
        lb = self.script_l(rest, "tb", shifted)
        Z = {0: DiffOp.identity(rest, self.ring)}
        total = DiffOp.zero(rest.drop(["tb"]), self.ring)
        for s in range(1, m + 1):
            if m - s in Z:
                total = total + (Z[m - s] * lb).partial_trace(["tb"])
            if s == m:
                break
            top = m - s - 1
            nxt = {}
            for d, z in Z.items():
                zl = self._lift(z, work) * la
                for k in range(top - d + 1):
                    term = zl.premul(T[k])
                    nxt[d + k] = nxt[d + k] + term if d + k in nxt else term
            Z = {d: z.partial_trace(["ta"]) for d, z in nxt.items()}
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
    qspace = rep.quantum_space()
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
        trL2 = (L * L).partial_trace(["z0"])
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
    cube = (script * script * script).partial_trace(["z0"])
    return cube + DiffOp(qspace, F, {0: signed_tail(L)})


def closing_series(rep):
    """tr L^3 - 2u tr(L L') + sum_{ij} sign(j-i) L_ij L_ji as one tensor."""
    L = represent_current(rep)
    Lp = L.map_entries(lambda f: f.derivative())
    two_u = Qu.from_int(2) * Qu.gen
    return (
        (L * L * L).partial_trace(["z0"])
        - (L * Lp).partial_trace(["z0"]).scale(two_u)
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
        if poly is not None:
            for d, coeff in enumerate(poly.coeffs):
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
    family = []
    for m in range(1, m_max + 1):
        theta = ctx.theta_mbar(m, shifted)
        for k in sorted(theta.coeffs):
            for location, op in partial_fraction_data(theta.coeffs[k], poles):
                family.append(FamilyMember(m, k, location, op))
    return family


def commutativity_report(family):
    """Exact pairwise commutators; pass iff all vanish."""
    records = []
    ok = True
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            comm = family[i].op.commutator(family[j].op)
            good = comm.is_zero()
            ok = ok and good
            records.append(
                {
                    "pair": (family[i].label(), family[j].label()),
                    "zero": good,
                    "witness": None if good else comm.sorted_entries(),
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
    trL2 = (L * L).partial_trace(["z0"])
    qspace = rep.quantum_space()
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
