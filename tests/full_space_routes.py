"""The theta routes built in the full space, as a test reference.

Both routes here keep every auxiliary leg t_1..t_m beside the quantum
legs, in a space of dimension N^(m+l), and take the partial trace only
at the end.  :class:`triggaudin.gaudin.ThetaContext` traces each leg as
soon as it is done with it; the differential tests compare the two.
"""

from triggaudin.rmatrices import permutation, t_taylor, tc
from triggaudin.tensor import Space, aux_leg, chain
from triggaudin.weyl import DiffOp


def _compositions(total, parts):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _aux_names(m):
    return ["t%d" % a for a in range(1, m + 1)]


def _space(ctx, m):
    return Space(ctx.N, [aux_leg(nm) for nm in _aux_names(m)] + ctx.quantum_legs)


def theta_mbar(ctx, m, shifted=False):
    """(L_m)-> (Tc_{m-1,m} + P_{m-1,m}(L_{m-1})->) ... 1, traced at the end."""
    space = _space(ctx, m)
    X = DiffOp.identity(space, ctx.ring)
    for a in range(1, m):
        pair = ("t%d" % a, "t%d" % (a + 1))
        la = ctx.script_l(space, "t%d" % a, shifted)
        P = permutation(ctx.N, ctx.ring).place(space, *pair)
        Tc = tc(ctx.N, ctx.ring).place(space, *pair)
        X = (X * la).premul(P) + X.premul(Tc)
    X = X * ctx.script_l(space, "t%d" % m, shifted)
    return X.partial_trace(_aux_names(m))


def theta_generating(ctx, m, shifted=False):
    """y^m coefficient of sum_s y^s tr T_{s-1,s}(y)...T_{12}(y) L_1...L_s."""
    total = None
    for s in range(1, m + 1):
        space = _space(ctx, s)
        factors = [ctx.script_l(space, nm, shifted) for nm in _aux_names(s)]
        prod = factors[0]
        for f in factors[1:]:
            prod = prod * f
        for orders in _compositions(m - s, s - 1):
            # display order T_{s-1,s}(y) ... T_{12}(y), left to right
            factors = []
            for a in range(s - 1, 0, -1):
                t = t_taylor(ctx.N, ctx.ring, orders[a - 1])
                factors.append((t, "t%d" % a, "t%d" % (a + 1)))
            term = prod.premul(chain(space, ctx.ring, factors))
            term = term.partial_trace(_aux_names(s))
            total = term if total is None else total + term
    return total
