"""From-scratch special-function kernels.

Carlson symmetric integral R_F, incomplete/complete elliptic integrals of
the first kind for any real parameter, Jacobi elliptic functions and
amplitude, the Weierstrass p-function from its invariants, and the Gauss
hypergeometric series 2F1.  All functions are pure and thread-safe.
"""

from .carlson import carlson_rf
from .elliptic import (
    ellint_f,
    ellint_k,
    jacobi_am,
    jacobi_sn_cn_dn,
)
from .hypergeometric import gauss_2f1
from .weierstrass import (
    WeierstrassInvariants,
    CubicRoots,
    solve_weierstrass_cubic,
    weierstrass_p,
    prepare_weierstrass,
)

__all__ = ["carlson_rf", "ellint_f", "ellint_k", "jacobi_am", "jacobi_sn_cn_dn",
           "gauss_2f1", "WeierstrassInvariants", "CubicRoots",
           "solve_weierstrass_cubic", "weierstrass_p", "prepare_weierstrass"]
