"""The flips and the quantum R-matrix entry by entry, as a test reference.

:mod:`triggaudin.rmatrices` builds P, Tc, TcBar, T(y), r(x) and P^q from
their N^2 weights with :func:`~triggaudin.tensor.weighted_flip`, and
R(x) as the cleared R-matrix divided by q - x/q.  These are the
coefficient functions of all N^4 entries that they replaced, on
:func:`~triggaudin.tensor.two_leg_tensor`, and R(x) with its own entry
formula.
"""

from triggaudin.rmatrices import sign
from triggaudin.tensor import two_leg_tensor


def permutation(N, ring):
    one = ring.one
    return two_leg_tensor(
        N, ring, lambda i, j, k, l: one if (k == j and l == i) else None
    )


def tc(N, ring):
    def coeff(i, j, k, l):
        if k == j and l == i and i != j:
            return ring.from_int(sign(j - i))
        return None

    return two_leg_tensor(N, ring, coeff)


def tc_bar(N, ring):
    one = ring.one

    def coeff(i, j, k, l):
        if k == j and l == i and i != j:
            return one
        return None

    return two_leg_tensor(N, ring, coeff)


def t_of_y(N, ring, y):
    one = ring.one
    upper = one / (one - y)
    lower = one / (one + y)

    def coeff(i, j, k, l):
        if k != j or l != i:
            return None
        if i == j:
            return one
        return upper if i < j else lower

    return two_leg_tensor(N, ring, coeff)


def r_classical(N, ring, x):
    one = ring.one
    core = (one + x) / (one - x)

    def coeff(i, j, k, l):
        if k != j or l != i:
            return None
        c = core + ring.from_int(sign(j - i))
        return c if c else None

    return two_leg_tensor(N, ring, coeff)


def q_permutation(N, ring, q):
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
    one = ring.one
    qinv = one / q
    den = q - qinv * x
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
