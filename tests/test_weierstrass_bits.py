"""Bit-for-bit pins of the prepared Weierstrass evaluator.

The table holds float.hex of p from ``_PreparedWeierstrass.eval`` and of
p' from ``_PreparedWeierstrass.slope`` for each of its three kinds
(rational, sn, cn) at eight values of z, and for the two degenerate
invariant pairs, which take the sn kind at the Jacobi parameters m = 1
and m = 0 (pinned when these pairs took that route only on request; the
elementary csch^2 and csc^2 forms that served them by default are gone,
and no bit moved).  POLES holds the PoleProximityError message,
distance and limit at one z inside each exclusion radius.  Both tables
were generated by the evaluator as it stood before its pole test moved
inline, and must not change, except the eight cn rows and the cn pole
row, which moved (by up to 95 ulps of p at z = -12.3) when Cardano's
cube root became math.cbrt: each row's error against a 40-digit mpmath
p and p' stays within 4.2e-15 (8.3e-15 before); and the sn and cn pole
rows, whose distance and limit moved when K came to be read off the
Landen ladder's AGM.  Both real periods moved by one ulp onto the
correctly rounded value of a 40-digit quadrature (0.08 and 0.15 eps
from it), so the limit's error went 1.48 -> 0.48 and 1.34 -> 0.34 ulps
and the distance's, which cancels against the period, 2250 -> 202 and
2497 -> 449 ulps of the distance.  Six cn value rows moved again, by 1
to 21 ulps (p' at z = 0.1), when the cn kind came to take (1 + cn)^2/sn^2
or sn^2/(1 - cn)^2, whichever does not cancel: each row's error against a
40-digit mpmath p and p' stays within 4.2e-15.  Eighteen p rows of the
sn kind, at (4, 1), (3, -1) and (3, 1), moved by 1 to 4 ulps when p came
to be read as e1 + (e1 - e3) cn^2/sn^2, the one root form the cubic
families use, in place of e3 + (e1 - e3)/sn^2: each carries its error
against a 40-digit mpmath p in eps (1 + kappa), kappa = |z p'/p|, and in
parentheses the error before (worst 1.46 now, 1.42 before).  No p', cn,
rational or pole row moved.

The eight (1, -1) rows and their pole row were added later, generated
the same way by the evaluator as it stood then: that pair's root e1 < 0
takes the cn kind's other anchor, h0 = e1 + A, where (1, 1) takes h1,
and its z cover both signs of cn (cn < 0 at -1.7 and 2.3).  Each row's
error against a 40-digit mpmath p and p' is within 1.9 eps (1 + kappa).
The pole rows are checked on ``slope`` as well as on ``eval``.

Seven rows of (4, 1), all but z = -1.7, moved by 1 ulp in p, p' or both
when the cubic's two nearer roots came to be read from their sum and the
exact discriminant, sqrt(g2^3 - 27 g3^2), in place of the trigonometric
form: each carries its error against a 40-digit mpmath p and p' in eps (1
+ kappa), and in parentheses the error before where it moved (worst 1.27
for p and 1.63 for p' now, 1.46 and 1.63 before).  No other row moved.

The eight (1, 1) rows moved, by 2 to 50 ulps in p and 1 to 94 in p'
(both largest at z = -12.3), when the solver came to take the complex
pair's imaginary part from the exact discriminant, a^2 = -Delta/(64 H^4),
in place of sqrt(3) |u - v| / 2: each carries its error against a
40-digit mpmath p and p' in eps (1 + kappa), and in parentheses the
error before (worst 0.77 for p and 0.74 for p' now, 0.73 and 1.06
before).  Its pole row moved with the real period, by one ulp, which now
reads 0.78 ulp under a 40-digit quadrature (0.22 over before): the limit
went 0.34 -> 0.66 ulp off and the distance, which cancels against the
period, 449 -> 1599 ulps of the distance.  No other row moved.
"""

import pytest

from expwave.errors import PoleProximityError
from expwave.specfun.weierstrass import WeierstrassInvariants, prepare_weierstrass

# (g2, g3, z, then float.hex of p and p')
PINNED = [
    # rational
    (0.0, 0.0, 0.1, '0x1.8ffffffffffffp+6', '-0x1.f3ffffffffffep+10'),
    (0.0, 0.0, -0.1, '0x1.8ffffffffffffp+6', '0x1.f3ffffffffffep+10'),
    (0.0, 0.0, 0.37, '0x1.d37e98f6d64cbp+2', '-0x1.3bdfead04b9bap+5'),
    (0.0, 0.0, 0.9, '0x1.3c0ca4587e6b7p+0', '-0x1.5f2a7db7a8e92p+1'),
    (0.0, 0.0, -1.7, '0x1.6253443526171p-2', '0x1.a0da6e5ca5485p-2'),
    (0.0, 0.0, 2.3, '0x1.832543443c020p-3', '-0x1.50a5f7b5c4e06p-3'),
    (0.0, 0.0, 5.1, '0x1.3af4ae6821dbap-5', '-0x1.ee0c5cdf947bap-7'),
    (0.0, 0.0, -12.3, '0x1.b12e6a29cb940p-8', '0x1.19be72d6803efp-10'),
    # sn
    (4.0, 1.0, 0.1, '0x1.90020d3a4c71ep+6', '-0x1.f3fd6e494aae0p+10'),  # p 0.78 (0.99), p' 0.78 (0.90)
    (4.0, 1.0, -0.1, '0x1.90020d3a4c71ep+6', '0x1.f3fd6e494aae0p+10'),  # p 0.78 (0.99), p' 0.78 (0.90)
    (4.0, 1.0, 0.37, '0x1.d54abae5bccbdp+2', '-0x1.3aa0d36773ca1p+5'),  # p 1.27 (1.46), p' 1.63
    (4.0, 1.0, 0.9, '0x1.6d9a0040de0dbp+0', '-0x1.1c737c77f87eep+1'),  # p 0.50, p' 0.47 (0.65)
    (4.0, 1.0, -1.7, '0x1.e5ec89f9eed58p+0', '-0x1.1539533bd4032p+2'),  # 0.41 (0.84)
    (4.0, 1.0, 2.3, '0x1.5d189852e5d97p+5', '0x1.202ebe81699f2p+9'),  # p 1.04 (1.02), p' 1.00
    (4.0, 1.0, 5.1, '0x1.9b79f64249c59p+4', '-0x1.04a302cbf072ap+8'),  # p 0.53 (0.54), p' 0.54 (0.55)
    (4.0, 1.0, -12.3, '0x1.0dc007e6d0054p+9', '0x1.87983a66df2a1p+14'),  # p 0.41, p' 0.41
    # cn
    (1.0, 1.0, 0.1, '0x1.9000840229aadp+6', '-0x1.f3ff59d18ff6cp+10'),  # p 0.56 (0.08), p' 0.04 (0.09)
    (1.0, 1.0, -0.1, '0x1.9000840229aadp+6', '0x1.f3ff59d18ff6cp+10'),  # p 0.56 (0.08), p' 0.04 (0.09)
    (1.0, 1.0, 0.37, '0x1.d3f9c01c50138p+2', '-0x1.3b853e254ad7bp+5'),  # p 0.00 (0.73), p' 0.45 (1.06)
    (1.0, 1.0, 0.9, '0x1.4c97c722738d1p+0', '-0x1.45a4daf4ce6a0p+1'),  # p 0.61 (0.05), p' 0.34 (0.01)
    (1.0, 1.0, -1.7, '0x1.be370bfac0df8p-1', '-0x1.c31a9e76f3ecfp-1'),  # p 0.15 (0.69), p' 0.45 (0.77)
    (1.0, 1.0, 2.3, '0x1.8e74ffd2d2a39p+1', '0x1.597786ed6b4f5p+3'),  # p 0.25 (0.54), p' 0.40 (0.55)
    (1.0, 1.0, 5.1, '0x1.3e9b97ae6864ap+1', '0x1.e83e581dee80ep+2'),  # p 0.29 (0.38), p' 0.37 (0.41)
    (1.0, 1.0, -12.3, '0x1.84a8e36e48222p+0', '0x1.b1ad5a4c057d6p+1'),  # p 0.77 (0.38), p' 0.74 (0.38)
    # (1, -1), the root e1 < 0: the cn kind anchored at h0 = e1 + A
    (1.0, -1.0, 0.1, '0x1.90008222d0260p+6', '-0x1.f3ff5e7ff02d6p+10'),
    (1.0, -1.0, -0.1, '0x1.90008222d0260p+6', '0x1.f3ff5e7ff02d6p+10'),
    (1.0, -1.0, 0.37, '0x1.d3e3cfd1466ffp+2', '-0x1.3ba2e5abc1f81p+5'),
    (1.0, -1.0, 0.9, '0x1.407ccbb192a36p+0', '-0x1.60c9794d31ca2p+1'),
    (1.0, -1.0, -1.7, '0x1.959b517218b36p-3', '0x1.d34d89cf7d066p-1'),  # cn < 0
    (1.0, -1.0, 2.3, '-0x1.ab720029f86d6p-2', '-0x1.0fb56287f73ecp+0'),  # cn < 0
    (1.0, -1.0, 5.1, '0x1.99112be38f460p+1', '0x1.6a8e07bd114b4p+3'),
    (1.0, -1.0, -12.3, '0x1.0f0522e5737dbp+0', '0x1.1520e0fc0ac7cp+1'),
    # (3, -1), the double root 1/2: the sn kind at m = 1
    (3.0, -1.0, 0.1, '0x1.900188481fb30p+6', '-0x1.f3fe16d02f09ap+10'),  # 0.51 (0.09)
    (3.0, -1.0, -0.1, '0x1.900188481fb30p+6', '0x1.f3fe16d02f09ap+10'),  # 0.51 (0.09)
    (3.0, -1.0, 0.37, '0x1.d4c4622dfba98p+2', '-0x1.3b0acab41e0a2p+5'),  # 0.55 (0.18)
    (3.0, -1.0, 0.9, '0x1.560905784a3f0p+0', '-0x1.4722e2275a185p+1'),  # 0.20 (0.35)
    (3.0, -1.0, -1.7, '0x1.3144b3136a7d5p-1', '0x1.f1f8fb38c8ec5p-3'),  # 0.27 (0.76)
    (3.0, -1.0, 2.3, '0x1.0b0f99f281fd6p-1', '-0x1.b49bf30e4e9d8p-5'),
    (3.0, -1.0, 5.1, '0x1.0002f40170135p-1', '-0x1.cef5e1dc54f14p-15'),  # 0.42 (1.42)
    (3.0, -1.0, -12.3, '0x1.000000000115ep-1', '0x1.545a150ce808dp-40'),
    # (3, 1), the double root -1/2: the sn kind at m = 0
    (3.0, 1.0, 0.1, '0x1.90018a27798d6p+6', '-0x1.f3fe1221cd263p+10'),  # 0.25 (0.04)
    (3.0, 1.0, -0.1, '0x1.90018a27798d6p+6', '0x1.f3fe1221cd263p+10'),  # 0.25 (0.04)
    (3.0, 1.0, 0.37, '0x1.d4da5558570dcp+2', '-0x1.3aed1b69797bcp+5'),  # 0.05 (0.42)
    (3.0, 1.0, 0.9, '0x1.625c97eec5222p+0', '-0x1.2aff0e15f3e7dp+1'),
    (3.0, 1.0, -1.7, '0x1.78dd556791c5ap+0', '-0x1.5ae66e8c26054p+1'),  # 0.43 (0.27)
    (3.0, 1.0, 2.3, '0x1.c7adbed700607p+3', '0x1.ad1248beae4b5p+6'),  # 0.70 (0.67)
    (3.0, 1.0, 5.1, '0x1.121f86dc19baep+10', '0x1.1ba90510baf85p+16'),
    (3.0, 1.0, -12.3, '0x1.d530d86a49bfcp+1', '-0x1.b341efa519e58p+3'),
]

# (g2, g3, float.hex of z, message, float.hex of distance
# and of limit)
POLES = [
    (0.0, 0.0, '0x1.a36e2eb1c432dp-12', 'z within 1.000e-03 of a Weierstrass pole (distance 4.000e-04)', '0x1.a36e2eb1c432dp-12', '0x1.0624dd2f1a9fcp-10'),
    (4.0, 1.0, '0x1.39e74214247d3p+1', 'z within 2.451e-03 of a Weierstrass pole (distance 9.806e-04)', '0x1.010bfb8f85000p-10', '0x1.414efa7366f65p-9'),
    (1.0, 1.0, '0x1.6f53fb4542bc9p+1', 'z within 2.869e-03 of a Weierstrass pole (distance 1.147e-03)', '0x1.2ccb79845c800p-10', '0x1.77fe57e572e25p-9'),
    (1.0, -1.0, '0x1.6a69f15f348d2p+2', 'z within 5.660e-03 of a Weierstrass pole (distance 2.264e-03)', '0x1.28c54d2d1a800p-9', '0x1.72f6a0786130fp-8'),
    (3.0, -1.0, '0x1.a36e2eb1c432dp-12', 'z within 1.000e-03 of a Weierstrass pole (distance 4.000e-04)', '0x1.a36e2eb1c432dp-12', '0x1.0624dd2f1a9fcp-10'),
    (3.0, 1.0, '0x1.4876ce93ddb08p+1', 'z within 2.565e-03 of a Weierstrass pole (distance 1.026e-03)', '0x1.0cf85ea4b0000p-10', '0x1.5036764ddc442p-9'),
]

KINDS = {
    (0.0, 0.0): "rational",
    (4.0, 1.0): "sn",
    (1.0, 1.0): "cn",
    (1.0, -1.0): "cn",
    (3.0, -1.0): "sn",
    (3.0, 1.0): "sn",
}


@pytest.mark.parametrize("g2, g3", list(KINDS))
def test_eval_matches_pinned_bits(g2, g3):
    prep = prepare_weierstrass(WeierstrassInvariants(g2, g3))
    assert prep.kind == KINDS[g2, g3]
    rows = [row for row in PINNED if row[:2] == (g2, g3)]
    assert len(rows) == 8
    for *_, z, p, pp in rows:
        assert (prep.eval(z).hex(), prep.slope(z).hex()) == (p, pp), z


@pytest.mark.parametrize("g2, g3, z, message, distance, limit", POLES)
def test_pole_error_matches_pinned(g2, g3, z, message, distance, limit):
    prep = prepare_weierstrass(WeierstrassInvariants(g2, g3))
    for method in (prep.eval, prep.slope):
        with pytest.raises(PoleProximityError) as err:
            method(float.fromhex(z))
        assert str(err.value) == message
        assert err.value.distance.hex() == distance
        assert err.value.limit.hex() == limit
