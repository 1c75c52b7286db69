"""Operator-valued differential and q-difference operators.

:class:`DiffOp` is a polynomial in d/du with coefficients that are
sparse tensors whose entries depend on u; the product uses the Weyl
rule d/du . g(u) = g(u) . d/du + g'(u).  :class:`QDiffOp` is a
polynomial in the shift delta with the substitution rule
delta . g(u) = g(u/q^2) . delta.  The two never mix: the classical and
q regimes are separate types on purpose.
"""

from math import comb

from .tensor import AuxTensor


def _default_diff(entry):
    return entry.derivative()


class DiffOp:
    """Finite map from d/du-degree to tensor-valued coefficients."""

    __slots__ = ("space", "ring", "coeffs", "diff_fn")

    def __init__(self, space, ring, coeffs, diff_fn=None):
        self.space = space
        self.ring = ring
        self.coeffs = {k: t for k, t in coeffs.items() if not t.is_zero()}
        self.diff_fn = diff_fn if diff_fn is not None else _default_diff

    @classmethod
    def zero(cls, space, ring, diff_fn=None):
        return cls(space, ring, {}, diff_fn)

    @classmethod
    def identity(cls, space, ring, diff_fn=None):
        return cls(space, ring, {0: AuxTensor.identity(space, ring)}, diff_fn)

    @classmethod
    def from_tensor(cls, t, degree=0, diff_fn=None):
        return cls(t.space, t.ring, {degree: t}, diff_fn)

    def coefficient(self, k):
        """The coefficient of d^k (zero tensor when absent)."""
        if k in self.coeffs:
            return self.coeffs[k]
        return AuxTensor.zero(self.space, self.ring)

    def degree(self):
        return max(self.coeffs) if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if self.space != other.space or self.ring != other.ring:
            raise ValueError("differential-operator field mismatch")

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return (
            self.space == other.space
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, t in other.coeffs.items():
            out[k] = out[k] + t if k in out else t
        return DiffOp(self.space, self.ring, out, self.diff_fn)

    def __neg__(self):
        return DiffOp(
            self.space,
            self.ring,
            {k: -t for k, t in self.coeffs.items()},
            self.diff_fn,
        )

    def __sub__(self, other):
        return self + (-other)

    def _derivatives(self, t, n):
        """t, t', ..., t^(n) with the entrywise derivative."""
        out = [t]
        for _ in range(n):
            t = t.map_entries(self.diff_fn)
            out.append(t)
        return out

    def __mul__(self, other):
        """Weyl-type product: d^j g = sum_i C(j,i) g^(i) d^(j-i)."""
        self._check(other)
        out = {}
        max_j = self.degree()
        if max_j is None or other.is_zero():
            return DiffOp.zero(self.space, self.ring, self.diff_fn)
        for k, bk in other.coeffs.items():
            ders = self._derivatives(bk, max_j)
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
        return DiffOp(self.space, self.ring, out, self.diff_fn)

    def premul(self, t):
        """Left multiplication by a u-independent tensor."""
        return DiffOp(
            self.space,
            self.ring,
            {k: t * c for k, c in self.coeffs.items()},
            self.diff_fn,
        )

    def postmul(self, t):
        """Right multiplication by a u-independent tensor."""
        return DiffOp(
            self.space,
            self.ring,
            {k: c * t for k, c in self.coeffs.items()},
            self.diff_fn,
        )

    def scale(self, c):
        return DiffOp(
            self.space,
            self.ring,
            {k: t.scale(c) for k, t in self.coeffs.items()},
            self.diff_fn,
        )

    def partial_trace(self, names):
        out = {k: t.partial_trace(names) for k, t in self.coeffs.items()}
        space = next(iter(out.values())).space if out else self.space.drop(names)
        return DiffOp(space, self.ring, out, self.diff_fn)

    def map_coefficients(self, fn, ring=None, diff_fn=None):
        out = {k: fn(t) for k, t in self.coeffs.items()}
        return DiffOp(
            self.space,
            ring if ring is not None else self.ring,
            out,
            diff_fn if diff_fn is not None else self.diff_fn,
        )

    def constant_term(self):
        """Result of applying the operator to the constant function 1."""
        return self.coefficient(0)

    def __repr__(self):
        return "DiffOp(degrees=%r)" % sorted(self.coeffs)


class QDiffOp:
    """Finite map from delta-degree to tensor-valued coefficients.

    ``shift`` is the scalar factor the substitution applies to u for a
    single delta (the model uses q^{-2}); coefficients stand to the
    left of the delta powers.
    """

    __slots__ = ("space", "ring", "coeffs", "shift")

    def __init__(self, space, ring, coeffs, shift):
        self.space = space
        self.ring = ring
        self.coeffs = {k: t for k, t in coeffs.items() if not t.is_zero()}
        self.shift = shift

    @classmethod
    def zero(cls, space, ring, shift):
        return cls(space, ring, {}, shift)

    @classmethod
    def identity(cls, space, ring, shift):
        return cls(space, ring, {0: AuxTensor.identity(space, ring)}, shift)

    @classmethod
    def from_tensor(cls, t, shift, degree=0):
        return cls(t.space, t.ring, {degree: t}, shift)

    def coefficient(self, k):
        if k in self.coeffs:
            return self.coeffs[k]
        return AuxTensor.zero(self.space, self.ring)

    def degree(self):
        return max(self.coeffs) if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if self.space != other.space or self.ring != other.ring:
            raise ValueError("q-difference-operator field mismatch")
        if self.shift != other.shift:
            raise ValueError("mismatched delta substitution factors")

    def __eq__(self, other):
        if not isinstance(other, QDiffOp):
            return NotImplemented
        return (
            self.space == other.space
            and self.ring == other.ring
            and self.shift == other.shift
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, t in other.coeffs.items():
            out[k] = out[k] + t if k in out else t
        return QDiffOp(self.space, self.ring, out, self.shift)

    def __neg__(self):
        return QDiffOp(
            self.space,
            self.ring,
            {k: -t for k, t in self.coeffs.items()},
            self.shift,
        )

    def __sub__(self, other):
        return self + (-other)

    def _shifted(self, t, j):
        """Apply u -> shift^j * u to every entry."""
        if j == 0:
            return t
        factor = self.shift ** j if j >= 0 else None
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

    def premul(self, t):
        return QDiffOp(
            self.space,
            self.ring,
            {k: t * c for k, c in self.coeffs.items()},
            self.shift,
        )

    def scale(self, c):
        return QDiffOp(
            self.space,
            self.ring,
            {k: t.scale(c) for k, t in self.coeffs.items()},
            self.shift,
        )

    def partial_trace(self, names):
        out = {k: t.partial_trace(names) for k, t in self.coeffs.items()}
        space = next(iter(out.values())).space if out else self.space.drop(names)
        return QDiffOp(space, self.ring, out, self.shift)

    def __repr__(self):
        return "QDiffOp(degrees=%r)" % sorted(self.coeffs)
