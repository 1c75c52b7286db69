"""Operator-valued differential and q-difference operators.

Both are polynomials in one operator with coefficients that are sparse
tensors whose entries depend on u, coefficients standing to the left.
They share everything but the commutation rule, which each subclass
gives as its product: :class:`DiffOp` is a polynomial in d/du with the
Weyl rule d/du . g(u) = g(u) . d/du + g'(u); :class:`QDiffOp` is a
polynomial in the shift delta with the substitution rule
delta . g(u) = g(u/q^2) . delta.  Each product groups its coefficient
products by output degree and takes one summed product per degree
(:meth:`AuxTensor.product_sum`), so every entry of every output
coefficient is reduced once.  One loop serves both ``A * B`` and
``A.product_trace(B, names)``, which sums each degree over the named
legs as it forms it, so a traced product is never formed whole.  The
two never mix: the classical and q regimes are separate types on
purpose.
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

    def flip_trace(self, flip):
        """tr_a(T_ab X_a) for a weighted flip T, coefficient by
        coefficient (:meth:`AuxTensor.flip_trace`): T stands to the left
        of every coefficient, as in :meth:`premul`."""
        return self._new({k: t.flip_trace(flip) for k, t in self.coeffs.items()})

    def scale(self, c):
        return self._new({k: t.scale(c) for k, t in self.coeffs.items()})

    def place(self, target, *legs):
        """Every coefficient embedded by :meth:`AuxTensor.place`."""
        return self._new(
            {k: t.place(target, *legs) for k, t in self.coeffs.items()}, target
        )

    def product_trace(self, other, names):
        """``(self * other).partial_trace(names)`` by the product loop of
        ``__mul__``, each output degree summed over the named legs."""
        return self._product(other, names)

    def _summed(self, terms, names):
        """The operator with degree d the sum of the coefficient products
        ``terms[d]``, each degree one summed product over the named legs."""
        space = self.space.drop(names) if names else self.space
        return self._new(
            {d: AuxTensor.product_sum(ps, names) for d, ps in terms.items()}, space
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
        return self._product(other)

    def _product(self, other, names=()):
        """The Weyl product, the terms C(j,i) a_j b_k^(i) of each degree
        j - i + k summed at once; C(j,i) is folded into a_j once per
        (j, i) and each coefficient of ``other`` is derived once per
        order."""
        self._check(other)
        scaled = {}
        for j, aj in self.coeffs.items():
            for i in range(j + 1):
                c = comb(j, i)
                scaled[j, i] = aj if c == 1 else aj.scale(self.ring.from_int(c))
        terms = {}
        max_j = max(self.coeffs, default=0)
        for k, bk in other.coeffs.items():
            der = bk  # bk, bk', ..., bk^(max_j) entrywise
            for i in range(max_j + 1):
                if i:
                    der = der.map_entries(lambda e: e.derivative())
                    if der.is_zero():
                        break
                for j in self.coeffs:
                    if j >= i:
                        terms.setdefault(j - i + k, []).append((scaled[j, i], der))
        return self._summed(terms, names)


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
        return self._product(other)

    def _product(self, other, names=()):
        """The shift product, the terms a_j b_k(shift^j u) of each degree
        j + k summed at once."""
        self._check(other)
        terms = {}
        for j, aj in self.coeffs.items():
            for k, bk in other.coeffs.items():
                terms.setdefault(j + k, []).append((aj, self._shifted(bk, j)))
        return self._summed(terms, names)
