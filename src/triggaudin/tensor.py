"""Sparse operators on tensor powers of C^N over a generic exact ring.

A :class:`Space` is an ordered list of legs, each a copy of C^N; legs
are auxiliary (traceable) or quantum (never traced).  Operators are
stored sparsely as {(row, col): coefficient} with multi-indices packed
in mixed radix, row-major in leg order, so all iteration is
deterministic.  There is no dense representation anywhere.
"""

import itertools

from .kernels import sparse_add, sparse_matmul


class Leg:
    __slots__ = ("name", "quantum")

    def __init__(self, name, quantum=False):
        self.name = name
        self.quantum = quantum

    def __repr__(self):
        return "%s%s" % (self.name, "*" if self.quantum else "")

    def __eq__(self, other):
        return (
            isinstance(other, Leg)
            and self.name == other.name
            and self.quantum == other.quantum
        )

    def __hash__(self):
        return hash((self.name, self.quantum))


def aux_leg(name):
    return Leg(name, quantum=False)


def quantum_leg(name):
    return Leg(name, quantum=True)


class Space:
    """An ordered tensor product of copies of C^N."""

    __slots__ = ("N", "legs", "_pos")

    def __init__(self, N, legs):
        if N < 1:
            raise ValueError("N must be >= 1")
        names = [leg.name for leg in legs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate leg labels: %r" % names)
        self.N = N
        self.legs = tuple(legs)
        self._pos = {leg.name: i for i, leg in enumerate(self.legs)}

    @property
    def nlegs(self):
        return len(self.legs)

    @property
    def dim(self):
        return self.N ** len(self.legs)

    def position(self, name):
        return self._pos[name]

    def leg_names(self):
        return [leg.name for leg in self.legs]

    def encode(self, idx):
        """Pack per-leg indices (0-based) into a flat index."""
        out = 0
        for i in idx:
            out = out * self.N + i
        return out

    def decode(self, flat):
        out = [0] * len(self.legs)
        for p in range(len(self.legs) - 1, -1, -1):
            out[p] = flat % self.N
            flat //= self.N
        return tuple(out)

    def drop(self, names):
        return Space(self.N, [leg for leg in self.legs if leg.name not in names])

    def __eq__(self, other):
        return (
            isinstance(other, Space)
            and self.N == other.N
            and self.legs == other.legs
        )

    def __hash__(self):
        return hash((self.N, self.legs))

    def __repr__(self):
        return "Space(N=%d, legs=%r)" % (self.N, list(self.legs))


class AuxTensor:
    """Sparse operator on a :class:`Space` with entries in an exact ring."""

    __slots__ = ("space", "ring", "entries")

    def __init__(self, space, ring, entries, clean=False):
        if clean:
            entries = {k: v for k, v in entries.items() if v}
        self.space = space
        self.ring = ring
        self.entries = entries

    @classmethod
    def zero(cls, space, ring):
        return cls(space, ring, {})

    @classmethod
    def identity(cls, space, ring):
        one = ring.one
        return cls(space, ring, {(i, i): one for i in range(space.dim)})

    @classmethod
    def scalar(cls, space, ring, value):
        if not value:
            return cls.zero(space, ring)
        return cls(space, ring, {(i, i): value for i in range(space.dim)})

    def is_zero(self):
        return not self.entries

    def __bool__(self):
        return bool(self.entries)

    def _check(self, other):
        if self.space != other.space:
            raise ValueError("space mismatch")
        if self.ring != other.ring:
            raise ValueError("coefficient ring mismatch")

    def __eq__(self, other):
        if not isinstance(other, AuxTensor):
            return NotImplemented
        return (
            self.space == other.space
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.space, self.ring, tuple(sorted(self.entries.items()))))

    def __add__(self, other):
        self._check(other)
        return AuxTensor(self.space, self.ring, sparse_add(self.entries, other.entries))

    def __neg__(self):
        return AuxTensor(
            self.space, self.ring, {k: -v for k, v in self.entries.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Operator product (both factors on the same space)."""
        self._check(other)
        return AuxTensor(
            self.space, self.ring, sparse_matmul(self.entries, other.entries)
        )

    def commutator(self, other):
        return self * other - other * self

    def scale(self, c):
        if not c:
            return AuxTensor.zero(self.space, self.ring)
        return AuxTensor(
            self.space,
            self.ring,
            {k: c * v for k, v in self.entries.items()},
            clean=True,
        )

    def map_entries(self, fn, ring=None):
        """Apply fn to every stored coefficient (e.g. substitution)."""
        return AuxTensor(
            self.space,
            ring if ring is not None else self.ring,
            {k: fn(v) for k, v in self.entries.items()},
            clean=True,
        )

    def embed(self, target, assignment):
        """Embed into a larger space, acting as identity off the image.

        ``assignment`` maps each source leg name to a target leg name;
        it must be injective and cover all source legs.
        """
        if self.space.N != target.N:
            raise ValueError("leg size mismatch in embed")
        src_names = self.space.leg_names()
        if set(assignment) != set(src_names):
            raise ValueError("assignment must cover all source legs")
        images = list(assignment.values())
        if len(set(images)) != len(images):
            raise ValueError("leg collision in embed assignment")
        for nm in images:
            if nm not in target._pos:
                raise ValueError("unknown target leg %r" % nm)
        N = target.N
        tgt_positions = [target.position(assignment[nm]) for nm in src_names]
        free_positions = [
            i for i in range(target.nlegs) if i not in set(tgt_positions)
        ]
        strides = [N ** (target.nlegs - 1 - i) for i in range(target.nlegs)]
        out = {}
        free_combos = list(
            itertools.product(range(N), repeat=len(free_positions))
        )
        for (r, c), v in self.entries.items():
            ridx = self.space.decode(r)
            cidx = self.space.decode(c)
            base_r = sum(
                ridx[s] * strides[tgt_positions[s]] for s in range(len(src_names))
            )
            base_c = sum(
                cidx[s] * strides[tgt_positions[s]] for s in range(len(src_names))
            )
            for combo in free_combos:
                pad = sum(
                    combo[t] * strides[free_positions[t]]
                    for t in range(len(free_positions))
                )
                out[(base_r + pad, base_c + pad)] = v
        return AuxTensor(target, self.ring, out)

    def place(self, target, *legs):
        """Embed into ``target`` with this tensor's i-th leg on ``legs[i]``."""
        names = self.space.leg_names()
        return self.embed(target, dict(zip(names, legs, strict=True)))

    def partial_trace(self, names):
        """Trace out the named auxiliary legs.

        Tracing a quantum leg is refused: quantum legs carry the
        physical space and are never summed over.
        """
        names = set(names)
        for leg in self.space.legs:
            if leg.name in names and leg.quantum:
                raise ValueError("cannot trace quantum leg %r" % leg.name)
        positions = [
            i for i, leg in enumerate(self.space.legs) if leg.name in names
        ]
        if len(positions) != len(names):
            missing = names - set(self.space.leg_names())
            raise ValueError("unknown legs in partial_trace: %r" % missing)
        keep = [i for i in range(self.space.nlegs) if i not in positions]
        new_space = Space(self.space.N, [self.space.legs[i] for i in keep])
        out = {}
        for (r, c), v in self.entries.items():
            ridx = self.space.decode(r)
            cidx = self.space.decode(c)
            if any(ridx[p] != cidx[p] for p in positions):
                continue
            key = (
                new_space.encode([ridx[i] for i in keep]),
                new_space.encode([cidx[i] for i in keep]),
            )
            if key in out:
                s = out[key] + v
                if s:
                    out[key] = s
                else:
                    del out[key]
            else:
                out[key] = v
        return AuxTensor(new_space, self.ring, out)

    def trace(self):
        """Full trace over all legs, as a ring element."""
        acc = self.ring.zero
        for (r, c), v in self.entries.items():
            if r == c:
                acc = acc + v
        return acc

    def sorted_entries(self):
        return sorted(self.entries.items())

    def __repr__(self):
        return "AuxTensor(%r, nnz=%d)" % (self.space, len(self.entries))


def chain(space, ring, factors):
    """The product of two-leg tensors on leg pairs of ``space``.

    ``factors`` lists ``(tensor, leg_a, leg_b)`` triples; each tensor is
    placed on its two legs and the factors multiply left to right in the
    order given.  No factors gives the identity.
    """
    out = AuxTensor.identity(space, ring)
    for t, a, b in factors:
        out = out * t.place(space, a, b)
    return out


def single_leg_matrix(N, ring, coeff_fn, leg=None):
    """Build an operator on one leg from a coefficient function (i, j) -> c.

    Indices are 1-based as in the mathematical displays.
    """
    space = Space(N, [leg if leg is not None else aux_leg("a1")])
    entries = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            c = coeff_fn(i, j)
            if c:
                entries[(i - 1, j - 1)] = c
    return AuxTensor(space, ring, entries)


def two_leg_tensor(N, ring, coeff_fn, legs=None):
    """Build sum_{ijkl} c(i,j,k,l) e_ij (x) e_kl on two legs, 1-based."""
    if legs is None:
        legs = [aux_leg("a1"), aux_leg("a2")]
    space = Space(N, list(legs))
    entries = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            for k in range(1, N + 1):
                for l in range(1, N + 1):
                    c = coeff_fn(i, j, k, l)
                    if c:
                        entries[
                            (
                                space.encode((i - 1, k - 1)),
                                space.encode((j - 1, l - 1)),
                            )
                        ] = c
    return AuxTensor(space, ring, entries)
