"""Operator-valued differential and q-difference operators.

Both are polynomials in one operator with coefficients that are sparse
tensors whose entries depend on u, coefficients standing to the left.
They share everything but the commutation rule, which each subclass
gives as its ``__mul__``: :class:`DiffOp` is a polynomial in d/du with
the Weyl rule d/du . g(u) = g(u) . d/du + g'(u); :class:`QDiffOp` is a
polynomial in the shift delta with the substitution rule
delta . g(u) = g(u/q^2) . delta.  The two never mix: the classical and
q regimes are separate types on purpose.
"""

from math import comb

from .kernels import sparse_add
from .tensor import AuxTensor


class OperatorPolynomial:
    """Finite map from operator degree to tensor-valued coefficients.

    Subclasses that carry more constructor arguments than
    ``(space, ring, coeffs)`` return them from :meth:`_params`; they
    take part in equality and in the compatibility check.
    """

    __slots__ = ("space", "ring", "coeffs")

    def __init__(self, space, ring, coeffs):
        if any(k < 0 for k in coeffs):
            raise ValueError("operator degrees must be >= 0: %r" % sorted(coeffs))
        self.space = space
        self.ring = ring
        self.coeffs = {k: t for k, t in coeffs.items() if not t.is_zero()}

    def _params(self):
        return ()

    def _new(self, coeffs, space=None):
        """An operator of the same type and parameters."""
        space = self.space if space is None else space
        return type(self)(space, self.ring, coeffs, *self._params())

    @classmethod
    def zero(cls, space, ring, *params):
        return cls(space, ring, {}, *params)

    @classmethod
    def identity(cls, space, ring, *params):
        return cls(space, ring, {0: AuxTensor.identity(space, ring)}, *params)

    def coefficient(self, k):
        """The coefficient of degree k (zero tensor when absent)."""
        if k in self.coeffs:
            return self.coeffs[k]
        return AuxTensor.zero(self.space, self.ring)

    def degree(self):
        return max(self.coeffs) if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if self.space != other.space or self.ring != other.ring:
            raise ValueError("operator field mismatch")
        if self._params() != other._params():
            raise ValueError("operator parameter mismatch")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.space == other.space
            and self.ring == other.ring
            and self._params() == other._params()
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        self._check(other)
        return self._new(sparse_add(self.coeffs, other.coeffs))

    def __neg__(self):
        return self._new({k: -t for k, t in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def premul(self, t):
        """Left multiplication by a u-independent tensor."""
        return self._new({k: t * c for k, c in self.coeffs.items()})

    def scale(self, c):
        return self._new({k: t.scale(c) for k, t in self.coeffs.items()})

    def place(self, target, *legs):
        """Every coefficient embedded by :meth:`AuxTensor.place`."""
        return self._new(
            {k: t.place(target, *legs) for k, t in self.coeffs.items()}, target
        )

    def partial_trace(self, names):
        out = {k: t.partial_trace(names) for k, t in self.coeffs.items()}
        space = next(iter(out.values())).space if out else self.space.drop(names)
        return self._new(out, space)

    def __repr__(self):
        return "%s(degrees=%r)" % (type(self).__name__, sorted(self.coeffs))


class DiffOp(OperatorPolynomial):
    """Polynomial in d/du with tensor coefficients."""

    __slots__ = ()

    def __mul__(self, other):
        """Weyl-type product: d^j g = sum_i C(j,i) g^(i) d^(j-i)."""
        self._check(other)
        out = {}
        max_j = self.degree()
        if max_j is None or other.is_zero():
            return DiffOp.zero(self.space, self.ring)
        for k, bk in other.coeffs.items():
            ders = [bk]  # bk, bk', ..., bk^(max_j) entrywise
            for _ in range(max_j):
                ders.append(ders[-1].map_entries(lambda e: e.derivative()))
            for j, aj in self.coeffs.items():
                for i in range(j + 1):
                    term = aj * ders[i]
                    if term.is_zero():
                        continue
                    c = comb(j, i)
                    if c != 1:
                        term = term.scale(self.ring.from_int(c))
                    deg = j - i + k
                    out[deg] = out[deg] + term if deg in out else term
        return DiffOp(self.space, self.ring, out)

    def constant_term(self):
        """Result of applying the operator to the constant function 1."""
        return self.coefficient(0)


class QDiffOp(OperatorPolynomial):
    """Polynomial in delta with tensor coefficients.

    ``shift`` is the factor the substitution applies to u for a single
    delta (the model uses q^{-2}, a monomial of the Laurent ring in q, u);
    entries apply it through their ``scale_var``.
    """

    __slots__ = ("shift",)

    def __init__(self, space, ring, coeffs, shift):
        super().__init__(space, ring, coeffs)
        self.shift = shift

    def _params(self):
        return (self.shift,)

    def _shifted(self, t, j):
        """Apply u -> shift^j * u to every entry."""
        if j == 0:
            return t
        factor = self.shift ** j
        return t.map_entries(lambda e: e.scale_var(factor))

    def __mul__(self, other):
        """Product with delta g(u) = g(shift * u) delta."""
        self._check(other)
        out = {}
        for j, aj in self.coeffs.items():
            for k, bk in other.coeffs.items():
                term = aj * self._shifted(bk, j)
                if term.is_zero():
                    continue
                deg = j + k
                out[deg] = out[deg] + term if deg in out else term
        return QDiffOp(self.space, self.ring, out, self.shift)
