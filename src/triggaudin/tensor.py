"""Sparse operators on tensor powers of C^N over a generic exact ring.

A :class:`Space` is an ordered list of legs, each a copy of C^N; legs
are auxiliary (traceable) or quantum (never traced).  Operators are
stored sparsely as {(row, col): coefficient} with multi-indices packed
in mixed radix, row-major in leg order, so all iteration is
deterministic.  There is no dense representation anywhere.

The builders (:func:`single_leg_matrix`, :func:`two_leg_tensor`) build
on the fixed auxiliary legs a1 and a1, a2 of :func:`aux_space`;
:meth:`AuxTensor.place` alone moves a tensor onto other legs.
:func:`chain` multiplies tensors on legs of a space and sums each
traced leg in the product with its last factor, so a product over many
auxiliary legs never holds all of them at once, and the product that
ends a leg is never formed whole.

Only this module packs flat indices.  ``embed`` and ``partial_trace``
do not unpack them entry by entry: ``embed`` adds one precomputed
offset per source index and one per combination of the free legs, and
``partial_trace`` reads the traced digits and the kept index of a flat
index from two tables, cached per (N, number of legs, traced
positions).  ``product_trace`` hands the same two tables to
:func:`~triggaudin.kernels.sparse_matmul_trace`, which multiplies only
the pairs of entries that agree on the traced digits.  ``flip_trace``
contracts a weighted flip with a tensor without forming their product:
it reads each entry's block on the first leg by two integer divisions
and scales the entry by that block's weight.
"""

from functools import lru_cache

from .kernels import sparse_add, sparse_matmul, sparse_matmul_trace


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

    def product_trace(self, other, names):
        """``(self * other).partial_trace(names)``, without forming the
        product: only the pairs of entries that agree on the named legs
        are multiplied, and each is added straight into the traced
        result (:func:`~triggaudin.kernels.sparse_matmul_trace`)."""
        self._check(other)
        space, traced, kept = self._trace_tables(names)
        return AuxTensor(
            space,
            self.ring,
            sparse_matmul_trace(self.entries, other.entries, traced, kept),
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
        n = target.nlegs
        tgt_positions = [target.position(assignment[nm]) for nm in src_names]
        # the offset of each source index in the target, and of each
        # combination of the free legs, both in row-major order
        offsets = _offsets(N, n, tgt_positions)
        taken = set(tgt_positions)
        pads = _offsets(N, n, [i for i in range(n) if i not in taken])
        out = {}
        for (r, c), v in self.entries.items():
            br = offsets[r]
            bc = offsets[c]
            for pad in pads:
                out[(br + pad, bc + pad)] = v
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
        new_space, traced, kept = self._trace_tables(names)
        out = {}
        for (r, c), v in self.entries.items():
            if traced[r] != traced[c]:
                continue
            key = (kept[r], kept[c])
            if key in out:
                s = out[key] + v
                if s:
                    out[key] = s
                else:
                    del out[key]
            else:
                out[key] = v
        return AuxTensor(new_space, self.ring, out)

    def _trace_tables(self, names):
        """The space left when the named legs are traced, and the two
        tables of :func:`_trace_split` for them; quantum and unknown legs
        are refused."""
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
        traced, kept = _trace_split(self.space.N, self.space.nlegs, tuple(positions))
        return self.space.drop(names), traced, kept

    def flip_trace(self, flip):
        """tr_a(T_ab Y_a) for a weighted flip T and this tensor Y.

        ``flip`` is T = sum_ij c_ij e_ij (x) e_ji on two legs (a, b);
        any other two-leg tensor raises ``ValueError``.  Y's first leg
        is a.  With Y^(ji) the block (j, i) of Y's first leg,

            tr_a(T_ab Y_a) = sum_ij c_ij e_ji (x) Y^(ji),

        which is Y with leg a renamed b and each block (j, i) scaled by
        c_ij: no product is formed and no second leg is embedded.  The
        result lives on Y's space, whose first leg now stands for b;
        entries are kept, negated or multiplied (c_ij on the left) by
        their block's weight, and dropped where it is zero.
        """
        if flip.ring != self.ring:
            raise ValueError("coefficient ring mismatch")
        N = self.space.N
        if flip.space.N != N:
            raise ValueError("leg size mismatch in flip_trace")
        weights = _flip_weights(flip)
        one = self.ring.one
        keep = {b for b, w in enumerate(weights) if w is not None and w == one}
        negate = {b for b, w in enumerate(weights) if w is not None and w == -one}
        stride = N ** (self.space.nlegs - 1)
        out = {}
        for key, v in self.entries.items():
            b = key[0] // stride * N + key[1] // stride
            if b in keep:
                out[key] = v
            elif b in negate:
                out[key] = -v
            elif weights[b] is not None:
                p = weights[b] * v
                if p:
                    out[key] = p
        return AuxTensor(self.space, self.ring, out)

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


def chain(space, ring, factors, traced=()):
    """The product of tensors on legs of ``space``, with the ``traced`` legs summed.

    ``factors`` lists ``(tensor, leg, ...)`` tuples: each tensor is placed
    with its i-th leg on the i-th named leg, and the factors multiply left
    to right in the order given.  The running product starts from the
    first factor and holds only the legs that some factor has reached and
    that are not summed yet; a leg joins (as the identity) when a factor
    first reaches it.  A leg in ``traced`` is summed by the product with
    its last factor (:meth:`AuxTensor.product_trace`), since
    tr_a(A X B) = A tr_a(X) B when B does not act on leg a, and a traced
    leg that no factor touches contributes a factor N.  The result lives
    on ``space.drop(traced)``; no factors and nothing traced give the
    identity.
    """
    traced = set(traced)
    legs_by_name = {leg.name: leg for leg in space.legs}
    for nm in traced:
        if nm not in legs_by_name or legs_by_name[nm].quantum:
            raise ValueError("cannot trace leg %r of %r" % (nm, space))
    last = {nm: i for i, (_, *legs) in enumerate(factors) for nm in legs}
    out = None
    for i, (t, *legs) in enumerate(factors):
        done = [nm for nm in legs if nm in traced and last[nm] == i]
        if out is None:
            out = t.place(_sub_space(space, legs), *legs)
            if done:
                out = out.partial_trace(done)
            continue
        if not out.space._pos.keys() >= set(legs):
            grown = _sub_space(space, set(legs).union(out.space._pos))
            out = out.place(grown, *out.space.leg_names())
        t = t.place(out.space, *legs)
        out = out.product_trace(t, done) if done else out * t
    target = space.drop(traced)
    if out is None:
        out = AuxTensor.identity(target, ring)
    elif out.space != target:
        out = out.place(target, *out.space.leg_names())
    idle = len(traced - last.keys())
    if idle:
        out = out.scale(ring.from_int(space.N ** idle))
    return out


def _sub_space(space, names):
    """The legs of ``space`` named in ``names``, in the order of ``space``."""
    return Space(space.N, [leg for leg in space.legs if leg.name in names])


def _offsets(N, n, positions):
    """The flat offset, in an n-leg space, of every index on the legs at
    ``positions``, in row-major order over those legs."""
    out = [0]
    for p in positions:
        stride = N ** (n - 1 - p)
        out = [o + d * stride for o in out for d in range(N)]
    return out


@lru_cache(maxsize=64)
def _trace_split(N, n, positions):
    """Two tables over the flat indices of an n-leg space: the digits on
    the legs at ``positions`` packed into one int, and the index on the
    remaining legs.  Cached per (N, n, positions), at most 64 of them."""
    pairs = [(0, 0)]
    for i in range(n):
        if i in positions:
            pairs = [(t * N + d, k) for t, k in pairs for d in range(N)]
        else:
            pairs = [(t, k * N + d) for t, k in pairs for d in range(N)]
    traced, kept = zip(*pairs)
    return traced, kept


def _flip_weights(flip):
    """The weights of a weighted flip sum_ij c_ij e_ij (x) e_ji, by the
    block of the traced leg they scale: entry j * N + i is c_ij, or None
    where c_ij is zero.  ``ValueError`` unless ``flip`` has two legs and
    every entry sits at row (i, j), column (j, i)."""
    N = flip.space.N
    if flip.space.nlegs != 2:
        raise ValueError("a weighted flip has two legs, not %d" % flip.space.nlegs)
    weights = [None] * (N * N)
    for (r, c), v in flip.entries.items():
        # the entry of e_ij (x) e_kl sits at row (i, k), column (j, l)
        i, k = divmod(r, N)
        j, l = divmod(c, N)
        if (k, l) != (j, i):
            raise ValueError(
                "not a weighted flip: entry e_%d%d (x) e_%d%d"
                % (i + 1, j + 1, k + 1, l + 1)
            )
        if v:
            weights[j * N + i] = v
    return weights


def aux_space(N, k):
    """The auxiliary legs a1, ..., ak: the fixed legs of every builder."""
    return Space(N, [aux_leg("a%d" % i) for i in range(1, k + 1)])


def single_leg_matrix(N, ring, coeff_fn):
    """Build an operator on leg a1 from a coefficient function (i, j) -> c.

    Indices are 1-based as in the mathematical displays.
    """
    entries = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            c = coeff_fn(i, j)
            if c:
                entries[(i - 1, j - 1)] = c
    return AuxTensor(aux_space(N, 1), ring, entries)


def two_leg_tensor(N, ring, coeff_fn):
    """Build sum_{ijkl} c(i,j,k,l) e_ij (x) e_kl on legs a1, a2, 1-based."""
    space = aux_space(N, 2)
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
