"""Embedding, partial trace and chains of products, as a test reference.

:meth:`triggaudin.tensor.AuxTensor.embed` and ``partial_trace`` index
by precomputed offsets; these are the entry-by-entry versions they
replaced, built on :func:`decode` and ``Space.encode`` alone.
:func:`triggaudin.tensor.chain` sums each traced leg with its last
factor and multiplies by a weighted flip by reindexing; :func:`chain`
here places every factor in the whole space, multiplies and traces at
the end.
"""

import itertools

from triggaudin.tensor import AuxTensor, Space


def decode(space, flat):
    """Unpack a flat index of ``space`` into per-leg indices (0-based)."""
    out = [0] * space.nlegs
    for p in range(space.nlegs - 1, -1, -1):
        out[p] = flat % space.N
        flat //= space.N
    return tuple(out)


def embed(tensor, target, assignment):
    """``tensor`` on ``target``, its leg ``nm`` on ``assignment[nm]``."""
    N = target.N
    src_names = tensor.space.leg_names()
    tgt_positions = [target.position(assignment[nm]) for nm in src_names]
    free_positions = [i for i in range(target.nlegs) if i not in set(tgt_positions)]
    strides = [N ** (target.nlegs - 1 - i) for i in range(target.nlegs)]
    out = {}
    free_combos = list(itertools.product(range(N), repeat=len(free_positions)))
    for (r, c), v in tensor.entries.items():
        ridx = decode(tensor.space, r)
        cidx = decode(tensor.space, c)
        base_r = sum(ridx[s] * strides[tgt_positions[s]] for s in range(len(src_names)))
        base_c = sum(cidx[s] * strides[tgt_positions[s]] for s in range(len(src_names)))
        for combo in free_combos:
            pad = sum(
                combo[t] * strides[free_positions[t]] for t in range(len(free_positions))
            )
            out[(base_r + pad, base_c + pad)] = v
    return AuxTensor(target, tensor.ring, out)


def partial_trace(tensor, names):
    """``tensor`` with the named legs summed."""
    space = tensor.space
    positions = [i for i, leg in enumerate(space.legs) if leg.name in set(names)]
    keep = [i for i in range(space.nlegs) if i not in positions]
    new_space = Space(space.N, [space.legs[i] for i in keep])
    out = {}
    for (r, c), v in tensor.entries.items():
        ridx = decode(space, r)
        cidx = decode(space, c)
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
    return AuxTensor(new_space, tensor.ring, out)


def chain(space, ring, factors, traced=()):
    """The product of ``(tensor, leg, ...)`` factors, left to right, each
    placed in the whole of ``space`` with its i-th leg on the i-th named
    leg, with the ``traced`` legs summed at the end."""
    out = AuxTensor.identity(space, ring)
    for t, *legs in factors:
        out = out * embed(t, space, dict(zip(t.space.leg_names(), legs)))
    return partial_trace(out, traced)
