"""Constructors for the distinguished tensors of the model.

All builders return sparse :class:`~triggaudin.tensor.AuxTensor` values
over an explicitly supplied coefficient ring, so the same formulas work
over Q, Q(u), Laurent polynomial rings in q, u, v or truncated-series
rings; the q-dependent builders take q as an argument.  Index
conventions are 1-based with sign(0) = 0.

Every builder builds on fixed auxiliary legs: a two-leg tensor on a1,
a2, a diagonal shift on a1, and ``perm_q`` and ``antisymmetrizer`` on
a1..ak.  :meth:`~triggaudin.tensor.AuxTensor.place` is the one way to
put a tensor onto other legs.  The chain builders (``adjacent_q_chain``,
``plain_cycle_chain``, ``tc_cycle_chain``) take the space of the chain
they build.
"""

import itertools

from .polering import PoleError
from .series import TruncSeries
from .tensor import AuxTensor, aux_space, chain, single_leg_matrix, two_leg_tensor


def sign(n):
    return (n > 0) - (n < 0)


def permutation(N, ring):
    """The flip P = sum e_ij (x) e_ji."""
    one = ring.one
    return two_leg_tensor(
        N, ring, lambda i, j, k, l: one if (k == j and l == i) else None
    )


def tc(N, ring):
    """The skew tensor sum sign(j-i) e_ij (x) e_ji (value of r at -1)."""

    def coeff(i, j, k, l):
        if k == j and l == i and i != j:
            return ring.from_int(sign(j - i))
        return None

    return two_leg_tensor(N, ring, coeff)


def tc_bar(N, ring):
    """The off-diagonal flip sum_{i != j} e_ij (x) e_ji."""
    one = ring.one

    def coeff(i, j, k, l):
        if k == j and l == i and i != j:
            return one
        return None

    return two_leg_tensor(N, ring, coeff)


def t_of_y(N, ring, y):
    """The two-leg function T(y) in its closed form.

    ``y`` is an element of ``ring`` (usually a formal generator); the
    values y = +-1 are poles and are rejected for non-formal input.
    """
    one = ring.one
    try:
        upper = one / (one - y)
        lower = one / (one + y)
    except ZeroDivisionError:
        raise PoleError("T(y) evaluated at y = +-1")

    def coeff(i, j, k, l):
        if k != j or l != i:
            return None
        if i == j:
            return one
        return upper if i < j else lower

    return two_leg_tensor(N, ring, coeff)


def t_taylor(N, ring, order):
    """Taylor coefficient of T(y) at y^order: P, then Tc odd, TcBar even.

    Follows the closed form: expanding 1/(1 -+ y) gives the skew tensor
    at every odd order starting with y^1 and the off-diagonal flip at
    every even order >= 2.
    """
    if order == 0:
        return permutation(N, ring)
    if order % 2 == 1:
        return tc(N, ring)
    return tc_bar(N, ring)


def r_classical(N, ring, x):
    """The trigonometric classical r-matrix at argument x.

    Entry (ij)(ji) carries (1+x)/(1-x) + sign(j-i); x = 1 is a pole
    and is rejected unless x is formal (nonconstant).
    """
    one = ring.one
    try:
        core = (one + x) / (one - x)
    except ZeroDivisionError:
        raise PoleError("classical r-matrix evaluated at x = 1")

    def coeff(i, j, k, l):
        if k != j or l != i:
            return None
        c = core + ring.from_int(sign(j - i))
        return c if c else None

    return two_leg_tensor(N, ring, coeff)


def q_permutation(N, ring, q):
    """The q-permutation P^q."""
    one = ring.one
    qinv = one / q

    def coeff(i, j, k, l):
        if k != j or l != i:
            return None
        if i == j:
            return one
        return q if i > j else qinv

    return two_leg_tensor(N, ring, coeff)


def r_quantum(N, ring, q, x):
    """The quantum R-matrix R(x) over a ring containing q.

    ``x`` may be a formal generator or any non-pole ring element
    (poles are where q - x/q vanishes).
    """
    one = ring.one
    qinv = one / q
    den = q - qinv * x
    if not den:
        raise PoleError("quantum R-matrix evaluated at pole q - x/q = 0")
    mixed = (one - x) / den
    low = (q - qinv) * x / den
    high = (q - qinv) / den

    def coeff(i, j, k, l):
        if i == j and k == l:
            return one if i == k else mixed
        if k == j and l == i and i != j:
            return low if i > j else high
        return None

    return two_leg_tensor(N, ring, coeff)


def r_quantum_scaled(N, ring, q, x):
    """(q - x/q) R(x): the R-matrix with its denominator cleared.

    All entries are Laurent polynomials in q and x, so the bivariate
    identity checks of :mod:`triggaudin.qside` build it over the Laurent
    ring Q[q^+-1, u^+-1, v^+-1] and never divide by anything but q.
    Identities that are homogeneous in R are unaffected by the central
    scalar factor, and since the Laurent ring is a subring of Q(q)(u)(v)
    they hold there exactly when they hold in the rational-function
    tower.
    """
    one = ring.one
    qinv = one / q
    diag = q - qinv * x
    mixed = one - x
    low = (q - qinv) * x
    high = q - qinv

    def coeff(i, j, k, l):
        if i == j and k == l:
            return diag if i == k else mixed
        if k == j and l == i and i != j:
            return low if i > j else high
        return None

    return two_leg_tensor(N, ring, coeff)


def diag_shift_d(N, ring, q):
    """The diagonal matrix D = diag(q^{N-1}, q^{N-3}, ..., q^{-N+1})."""
    one = ring.one

    def coeff(i, j):
        if i != j:
            return None
        e = N + 1 - 2 * i
        return q ** e if e >= 0 else one / q ** (-e)

    return single_leg_matrix(N, ring, coeff)


def diag_shift_rho(N, ring):
    """The diagonal matrix rho = diag(N-1, N-3, ..., -N+1)."""

    def coeff(i, j):
        if i != j or N + 1 - 2 * i == 0:
            return None
        return ring.from_int(N + 1 - 2 * i)

    return single_leg_matrix(N, ring, coeff)


def reduced_word(one_line):
    """A reduced word (list of 1-based adjacent swaps) for a permutation.

    Bubble-sorts the one-line notation to the identity; each recorded
    swap removes exactly one inversion, so the word is reduced.  If
    sigma = s_{a_1} ... s_{a_l}, the returned list is [a_1, ..., a_l].
    """
    p = list(one_line)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                swaps.append(i + 1)
                changed = True
    swaps.reverse()
    return swaps


def perm_sign(one_line):
    word = reduced_word(one_line)
    return -1 if len(word) % 2 else 1


def adjacent_q_chain(space, ring, q, positions):
    """Product P^q_{a_1 a_1+1} ... P^q_{a_l a_l+1} on leg positions a_i.

    Positions are 1-based into the legs of ``space``; factors multiply
    left to right in the order given.
    """
    names = space.leg_names()
    pq = q_permutation(space.N, ring, q)
    return chain(space, ring, [(pq, names[a - 1], names[a]) for a in positions])


def perm_q(one_line, N, ring, q):
    """P^q_sigma on legs a1..ak along one reduced decomposition of sigma.

    Independent of the chosen reduced word (braid relations for P^q).
    """
    space = aux_space(N, len(one_line))
    return adjacent_q_chain(space, ring, q, reduced_word(one_line))


def antisymmetrizer(k, N, ring, q):
    """The normalized q-antisymmetrizer A^(k) = (1/k!) sum sgn(s) P^q_s
    on legs a1..ak."""
    acc = AuxTensor.zero(aux_space(N, k), ring)
    for perm in itertools.permutations(range(1, k + 1)):
        term = perm_q(perm, N, ring, q)
        if perm_sign(perm) < 0:
            term = -term
        acc = acc + term
    fact = 1
    for i in range(2, k + 1):
        fact *= i
    return acc.scale(ring.one / ring.from_int(fact))


def plain_cycle_chain(space, ring, indices):
    """P_{(c_k, ..., c_1)} = P_{c_{k-1} c_k} ... P_{c_1 c_2}.

    ``indices`` is the tuple (c_k, ..., c_1) of 1-based leg positions;
    a run of length < 2 gives the identity.
    """
    return _cycle_chain(space, ring, permutation(space.N, ring), indices)


def tc_cycle_chain(space, ring, indices, traced=()):
    """Tc_{(c_k, ..., c_1)} = Tc_{c_{k-1} c_k} ... Tc_{c_1 c_2}, with the
    ``traced`` legs summed as :func:`~triggaudin.tensor.chain` does."""
    return _cycle_chain(space, ring, tc(space.N, ring), indices, traced)


def _cycle_chain(space, ring, t, indices, traced=()):
    """t_{c_{k-1} c_k} ... t_{c_1 c_2} for indices (c_k, ..., c_1)."""
    names = space.leg_names()
    pairs = zip(indices, indices[1:])
    factors = [(t, names[b - 1], names[a - 1]) for a, b in pairs]
    return chain(space, ring, factors, traced)


def f_series(N, ring, q, order):
    """The normalizing series f(x) of the R-matrix, over a ring containing q.

    Coefficients f_k are determined recursively by the functional
    equation f(x q^{2N}) = f(x) (1-xq^2)(1-xq^{2N-2}) /
    ((1-x)(1-xq^{2N})), with f_0 = 1.  The recursion divides by
    q^{2Nk} - 1; over eps-series at q = 1 + eps that is eps times a
    unit, so each f_k is known to one eps order less than f_{k-1}.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    one = ring.one

    def lin(c):
        return TruncSeries("x", ring, order, [one, -c])

    # f(x q^{2N}) = f(x) g(x) with g_0 = 1, so comparing x^k coefficients
    # gives f_k (q^{2Nk} - 1) = sum_{j<k} f_j g_{k-j}
    qb = q ** (2 * N)
    g = lin(q * q) * lin(q ** (2 * N - 2)) / (lin(one) * lin(qb))
    f = [one]
    for k in range(1, order + 1):
        acc = ring.zero
        for j in range(k):
            acc = acc + f[j] * g.coefficient(k - j)
        denom = qb ** k - one
        if not denom:
            raise PoleError("f-series requires generic q (q^{2Nk} != 1)")
        f.append(acc / denom)
    return TruncSeries("x", ring, order, f)
