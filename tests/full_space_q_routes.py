"""The q-side traced products built in the full space, as a test reference.

Both products here keep every auxiliary leg beside the site legs, in a
space of dimension N^(m+l), and take the partial trace only at the end.
:func:`triggaudin.qside.mcal` and :func:`triggaudin.qside.bethe` sum
each leg as soon as its last factor is applied; the differential tests
compare the two.  The Newton projector's chain of P^q is multiplied by
:func:`tensor_reference.chain`, not by :func:`triggaudin.tensor.chain`'s
reindexing.
"""

from triggaudin.qside import QU, _gens, qrep_current
from triggaudin.rmatrices import (
    antisymmetrizer,
    diag_shift_d,
    permutation,
    q_permutation,
)
from triggaudin.weyl import QDiffOp

import tensor_reference


def mcal(rep, m, with_D=False):
    """X_{a+1} = P_{a,a+1} X_a - P^q_{a,a+1} (X_a M_a) on all legs
    t_1..t_m, then tr_{1..m}(X_m - X_m M_m)."""
    q = QU.gens[0]
    shift = q ** -2
    tnames = ["t%d" % a for a in range(1, m + 1)]
    space = rep.space(tnames)
    sites = rep.site_names()
    L = qrep_current(rep)
    if with_D:
        L = L * diag_shift_d(rep.N, QU, q).place(L.space, "z0")

    def m_factor(a):
        return QDiffOp(space, QU, {1: L.place(space, tnames[a - 1], *sites)}, shift)

    pq = q_permutation(rep.N, QU, q)
    pp = permutation(rep.N, QU)
    X = QDiffOp.identity(space, QU, shift)
    for a in range(1, m):
        legs = (tnames[a - 1], tnames[a])
        X = X.premul(pp.place(space, *legs)) - (X * m_factor(a)).premul(
            pq.place(space, *legs)
        )
    X = X - X * m_factor(m)
    return X.partial_trace(tnames)


def bethe(rep, kind, k, with_D=False, ring=QU, q=None, u=None):
    """The projector times L_1 ... L_k, then D_1 ... D_k when twisted,
    on all legs b_1..b_k, traced at the end."""
    q, u = _gens(ring, q, u)
    bnames = ["b%d" % a for a in range(1, k + 1)]
    space = rep.space(bnames)
    sites = rep.site_names()
    if kind == "antisym":
        acc = antisymmetrizer(k, rep.N, ring, q).place(space, *bnames)
    else:
        pq = q_permutation(rep.N, ring, q)
        factors = [(pq, bnames[a - 1], bnames[a]) for a in range(k - 1, 0, -1)]
        acc = tensor_reference.chain(space, ring, factors)
    for a in range(1, k + 1):
        La = qrep_current(rep, ring, q, u * q ** (2 - 2 * a))
        acc = acc * La.place(space, bnames[a - 1], *sites)
    if with_D:
        D = diag_shift_d(rep.N, ring, q)
        for nm in bnames:
            acc = acc * D.place(space, nm)
    return acc.partial_trace(bnames)
