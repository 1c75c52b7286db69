"""Symbolic layer: affine mode algebra, normal ordering, exact
u-coefficients of the commuting operators, and vacuum invariance.

Modes are triples E_ij[n] with the bracket
[E_ij[r], E_kl[s]] = d_kj E_il[r+s] - d_il E_kj[r+s]
                     + r d_{r,-s} K (d_kj d_il - d_ij d_kl / N),
K central.  The PBW order puts creation modes (n < 0, or n = 0 with
i < j) before annihilation modes (n > 0, or n = 0 with i >= j), so a
normal-ordered monomial kills the vacuum exactly when it contains any
annihilation mode; that makes the vacuum action a suffix check.

Feasibility: normal-ordering cost is combinatorial, so the theta
builders enforce a documented envelope (N = 2, m <= 3, u-order <= 4)
with explicit errors.
"""

from .kernels import sparse_add
from .rationals import QQ
from .series import SeriesRing, TruncSeries
from .tensor import AuxTensor, Space, aux_leg, quantum_leg
from .gaudin import ThetaContext
from .rmatrices import sign


def mode(i, j, n):
    return (n, i, j)


def is_annihilator(m):
    n, i, j = m
    return n >= 1 or (n == 0 and i >= j)


def mode_key(m):
    n, i, j = m
    return (1 if is_annihilator(m) else 0, n, i, j)


class PBWElement:
    """Sparse rational combination of normal-ordered monomials.

    A monomial is (modes, k_exp): a tuple of modes nondecreasing in the
    PBW order together with a power of the central element K.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms, clean=False):
        if clean:
            terms = {k: v for k, v in terms.items() if v}
        self.alg = alg
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, PBWElement):
            return NotImplemented
        return (
            self.alg is other.alg or self.alg == other.alg
        ) and self.terms == other.terms

    def __hash__(self):
        return hash((self.alg, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        return PBWElement(self.alg, sparse_add(self.terms, other.terms))

    def __neg__(self):
        return PBWElement(self.alg, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return self.alg.zero
        return PBWElement(self.alg, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        alg = self.alg
        out = {}
        for (w1, e1), c1 in self.terms.items():
            for (w2, e2), c2 in other.terms.items():
                c = c1 * c2
                for (w, e), cc in alg.normal_order(w1 + w2).terms.items():
                    key = (w, e + e1 + e2)
                    s = out.get(key)
                    s = cc * c if s is None else s + cc * c
                    if s:
                        out[key] = s
                    elif key in out:
                        del out[key]
        return PBWElement(alg, out)

    def commutator(self, other):
        return self * other - other * self

    def vacuum_image(self, k_value):
        """Apply to the vacuum: annihilator-containing monomials die,
        K specializes to ``k_value``."""
        out = {}
        for (w, e), c in self.terms.items():
            if w and is_annihilator(w[-1]):
                continue
            key = (w, 0)
            v = c * k_value ** e
            s = out.get(key)
            s = v if s is None else s + v
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return PBWElement(self.alg, out)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (w, e), c in self.sorted_terms():
            bits = ["E[%d,%d;%d]" % (i, j, n) for (n, i, j) in w]
            if e:
                bits.append("K^%d" % e)
            parts.append("%s*%s" % (c, ".".join(bits) if bits else "1"))
        return " + ".join(parts)


class PBWAlg:
    """Ring descriptor for the mode algebra at a fixed N."""

    def __init__(self, N):
        self.N = N
        # word -> terms of its normal form; the cache holds no element,
        # so nothing in it points back at the algebra and the algebra is
        # freed by reference counting once its last element is dropped
        self._no_cache = {}

    @property
    def zero(self):
        return PBWElement(self, {})

    @property
    def one(self):
        return PBWElement(self, {((), 0): QQ.one})

    def from_int(self, n):
        if n == 0:
            return self.zero
        return PBWElement(self, {((), 0): QQ.from_int(n)})

    def embed(self, c):
        if not c:
            return self.zero
        return PBWElement(self, {((), 0): c})

    def generator(self, i, j, n, coeff=None):
        c = QQ.one if coeff is None else coeff
        if not c:
            return self.zero
        return PBWElement(self, {((mode(i, j, n),), 0): c})

    def central(self):
        return PBWElement(self, {((), 1): QQ.one})

    def bracket(self, a, b):
        """[E_ij[r], E_kl[s]] as a PBWElement."""
        r, i, j = a
        s, k, l = b
        out = {}
        if k == j:
            out[((mode(i, l, r + s),), 0)] = QQ.one
        if i == l:
            key = ((mode(k, j, r + s),), 0)
            out[key] = out.get(key, QQ.zero) - QQ.one
        if r == -s and r != 0:
            c = QQ.zero
            if k == j and i == l:
                c = c + QQ.one
            if i == j and k == l:
                c = c - QQ.one / QQ.from_int(self.N)
            c = c * QQ.from_int(r)
            if c:
                key = ((), 1)
                out[key] = out.get(key, QQ.zero) + c
        return PBWElement(self, out, clean=True)

    def normal_order(self, word):
        """Rewrite an arbitrary product of modes into the PBW basis."""
        cached = self._no_cache.get(word)
        if cached is not None:
            return PBWElement(self, cached)
        pos = None
        for t in range(len(word) - 1):
            if mode_key(word[t]) > mode_key(word[t + 1]):
                pos = t
                break
        if pos is None:
            result = PBWElement(self, {(word, 0): QQ.one})
        else:
            swapped = word[:pos] + (word[pos + 1], word[pos]) + word[pos + 2:]
            terms = dict(self.normal_order(swapped).terms)
            corr = self.bracket(word[pos], word[pos + 1])
            for (w, e), c in corr.terms.items():
                sub = self.normal_order(word[:pos] + w + word[pos + 2:])
                for (w2, e2), c2 in sub.terms.items():
                    key = (w2, e2 + e)
                    v = c * c2
                    cur = terms.get(key)
                    cur = v if cur is None else cur + v
                    if cur:
                        terms[key] = cur
                    elif key in terms:
                        del terms[key]
            result = PBWElement(self, terms)
        self._no_cache[word] = result.terms
        return result

    def __eq__(self, other):
        return isinstance(other, PBWAlg) and self.N == other.N

    def __hash__(self):
        return hash(("PBWAlg", self.N))

    def __repr__(self):
        return "PBWAlg(N=%d)" % self.N


class CurrentModes:
    """Accessors for the two matrix currents in terms of the modes."""

    def __init__(self, alg):
        self.alg = alg

    def plus_mode(self, i, j, n):
        """Coefficient of u^n in the upper current entry (i, j), n >= 0."""
        if n < 0:
            raise ValueError("upper current has nonnegative u-powers only")
        if n == 0:
            return self.alg.generator(i, j, 0, QQ.from_int(-(1 + sign(j - i))))
        return self.alg.generator(i, j, -n, QQ.from_int(-2))

    def minus_mode(self, i, j, n):
        """Coefficient of v^{-n} in the lower current entry (i, j), n >= 0."""
        if n < 0:
            raise ValueError("lower current has nonpositive u-powers only")
        if n == 0:
            return self.alg.generator(i, j, 0, QQ.from_int(1 + sign(i - j)))
        return self.alg.generator(i, j, n, QQ.from_int(2))


FEASIBLE_N = 2
FEASIBLE_M = 3
FEASIBLE_U_ORDER = 4


def _check_envelope(N, m, u_order):
    if N > FEASIBLE_N or m > FEASIBLE_M or u_order > FEASIBLE_U_ORDER:
        raise ValueError(
            "requested window (N=%d, m=%d, u_order=%d) exceeds the "
            "supported envelope (N<=%d, m<=%d, u_order<=%d)"
            % (N, m, u_order, FEASIBLE_N, FEASIBLE_M, FEASIBLE_U_ORDER)
        )


def symbolic_context(N, u_order, m):
    """ThetaContext over truncated u-series with mode-algebra entries."""
    alg = PBWAlg(N)
    cm = CurrentModes(alg)
    # derivative applications inside the product rule lose one order
    # each; build with headroom so requested orders stay exact
    internal = u_order + m
    ring = SeriesRing("u", alg, internal)
    # the upper current sum_ij e_ij L+_ij(u) on one auxiliary leg
    entries = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            coeffs = [cm.plus_mode(i, j, n) for n in range(internal + 1)]
            s = TruncSeries("u", alg, internal, coeffs)
            if not s.is_zero():
                entries[(i - 1, j - 1)] = s
    return ThetaContext(AuxTensor(Space(N, [aux_leg("z0")]), ring, entries))


def theta_symbolic(N, m, u_order, shifted=False):
    """Exact mode-algebra coefficients of the m-th operator.

    Returns a dict (k, d) -> PBWElement: the coefficient of
    (d/du)^k u^d, for all k and d <= u_order.
    """
    _check_envelope(N, m, u_order)
    ctx = symbolic_context(N, u_order, m)
    theta = ctx.theta_mbar(m, shifted)
    out = {}
    for k in sorted(theta.coeffs):
        tensor = theta.coeffs[k]
        series = tensor.entries.get((0, 0))
        if series is None:
            continue
        for d in range(u_order + 1):
            c = series.coefficient(d)
            if c:
                out[(k, d)] = c
    return out


def commute_check(N, m1, m2, orders, shifted=False):
    """Pairwise commutators of selected coefficients, normal-ordered.

    ``orders`` is an iterable of (k, d) pairs applied to both m-values;
    missing coefficients are skipped.  Pass iff every commutator is
    identically zero in the PBW basis.
    """
    u_order = max((d for (_, d) in orders), default=0)
    t1 = theta_symbolic(N, m1, u_order, shifted)
    t2 = theta_symbolic(N, m2, u_order, shifted)
    sel1 = [(kd, t1[kd]) for kd in sorted(orders) if kd in t1]
    sel2 = [(kd, t2[kd]) for kd in sorted(orders) if kd in t2]
    records = []
    ok = True
    for kd1, x in sel1:
        for kd2, y in sel2:
            comm = x.commutator(y)
            good = comm.is_zero()
            ok = ok and good
            records.append(
                {
                    "pair": ((m1,) + kd1, (m2,) + kd2),
                    "zero": good,
                    "witness": None if good else repr(comm),
                }
            )
    return {"pass": ok, "pairs": records}


def vacuum_invariance_check(N, m, orders, v_order, shifted=True):
    """Lower-current invariance of the selected coefficients at K = -N.

    For every coefficient X and every lower-current mode with
    0 <= n <= v_order, the normal-ordered product must kill the vacuum
    once K is specialized to -N.  For unshifted input this reports
    obstructions rather than asserting.
    """
    u_order = max((d for (_, d) in orders), default=0)
    coeffs = theta_symbolic(N, m, u_order, shifted)
    alg = PBWAlg(N)
    cm = CurrentModes(alg)
    k_value = QQ.from_int(-N)
    records = []
    ok = True
    for kd in sorted(orders):
        if kd not in coeffs:
            continue
        X = coeffs[kd]
        for n in range(v_order + 1):
            for i in range(1, N + 1):
                for j in range(1, N + 1):
                    lm = cm.minus_mode(i, j, n)
                    if lm.is_zero():
                        continue
                    img = (lm * X).vacuum_image(k_value)
                    good = img.is_zero()
                    ok = ok and good
                    records.append(
                        {
                            "coefficient": kd,
                            "mode": (i, j, n),
                            "zero": good,
                            "witness": None if good else repr(img),
                        }
                    )
    return {"pass": ok, "checks": records}


def evaluation_map(points):
    """The map sending each mode into the sites' operator algebra.

    E_ij[-n] acts as -sum_s a_s^{-n} e_ji on site s (n >= 0); K and any
    positive mode act as zero.  Returns a function PBWElement ->
    operator on the quantum space over Q.
    """
    points = tuple(points)
    l = len(points)

    def apply(elem):
        N = elem.alg.N
        space = Space(N, [quantum_leg("s%d" % (s + 1)) for s in range(l)])
        acc = AuxTensor.zero(space, QQ)
        for (w, e), c in elem.sorted_terms():
            if e:
                continue
            term = AuxTensor.scalar(space, QQ, c)
            dead = False
            for (n, i, j) in w:
                if n > 0:
                    dead = True
                    break
                img = AuxTensor.zero(space, QQ)
                for s, a in enumerate(points):
                    single = AuxTensor(
                        Space(N, [quantum_leg("s%d" % (s + 1))]),
                        QQ,
                        {(j - 1, i - 1): -(QQ.one / a ** (-n))},
                    )
                    img = img + single.place(space, "s%d" % (s + 1))
                term = term * img
            if not dead:
                acc = acc + term
        return acc

    return apply
