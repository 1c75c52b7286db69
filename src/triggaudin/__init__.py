"""Exact-arithmetic engine for families of commuting operators built
from trigonometric R-matrices on tensor powers of C^N.

Everything is computed over exact rings (Q, Q(u), Laurent polynomials in
q, u, v, truncated series); there is no floating point anywhere.  See the
README for the layout and the ``triggaudin`` command-line entry point.
"""

from .rationals import QQ, rational, parse_rational

__version__ = "0.1.0"

__all__ = ["QQ", "rational", "parse_rational", "__version__"]
