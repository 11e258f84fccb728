"""Bit-for-bit pins of the prepared Weierstrass evaluator.

The table holds float.hex of p from ``_PreparedWeierstrass.eval`` and of
p' from ``_PreparedWeierstrass.slope`` for each of its five kinds
(rational, hyperbolic, trigonometric, sn, cn) at eight values of z, and
for the two degenerate invariant pairs again with ``force_general=True``,
which sends them through the sn kind at the Jacobi parameters m = 1 and
m = 0.  POLES holds the PoleProximityError message,
distance and limit at one z inside each exclusion radius.  Both tables
were generated by the evaluator as it stood before its pole test moved
inline, and must not change, except the eight cn rows and the cn pole
row, which moved (by up to 95 ulps of p at z = -12.3) when Cardano's
cube root became math.cbrt: each row's error against a 40-digit mpmath
p and p' stays within 4.2e-15 (8.3e-15 before).
"""

import pytest

from expwave.errors import PoleProximityError
from expwave.specfun.weierstrass import WeierstrassInvariants, prepare_weierstrass

# (g2, g3, force_general, z, then float.hex of p and p')
PINNED = [
    # rational
    (0.0, 0.0, False, 0.1, '0x1.8ffffffffffffp+6', '-0x1.f3ffffffffffep+10'),
    (0.0, 0.0, False, -0.1, '0x1.8ffffffffffffp+6', '0x1.f3ffffffffffep+10'),
    (0.0, 0.0, False, 0.37, '0x1.d37e98f6d64cbp+2', '-0x1.3bdfead04b9bap+5'),
    (0.0, 0.0, False, 0.9, '0x1.3c0ca4587e6b7p+0', '-0x1.5f2a7db7a8e92p+1'),
    (0.0, 0.0, False, -1.7, '0x1.6253443526171p-2', '0x1.a0da6e5ca5485p-2'),
    (0.0, 0.0, False, 2.3, '0x1.832543443c020p-3', '-0x1.50a5f7b5c4e06p-3'),
    (0.0, 0.0, False, 5.1, '0x1.3af4ae6821dbap-5', '-0x1.ee0c5cdf947bap-7'),
    (0.0, 0.0, False, -12.3, '0x1.b12e6a29cb940p-8', '0x1.19be72d6803efp-10'),
    # hyperbolic
    (3.0, -1.0, False, 0.1, '0x1.900188481fb2fp+6', '-0x1.f3fe16d02f09bp+10'),
    (3.0, -1.0, False, -0.1, '0x1.900188481fb2fp+6', '0x1.f3fe16d02f09bp+10'),
    (3.0, -1.0, False, 0.37, '0x1.d4c4622dfba9bp+2', '-0x1.3b0acab41e0a3p+5'),
    (3.0, -1.0, False, 0.9, '0x1.560905784a3f0p+0', '-0x1.4722e2275a184p+1'),
    (3.0, -1.0, False, -1.7, '0x1.3144b3136a7d5p-1', '0x1.f1f8fb38c8ec1p-3'),
    (3.0, -1.0, False, 2.3, '0x1.0b0f99f281fd6p-1', '-0x1.b49bf30e4e9d7p-5'),
    (3.0, -1.0, False, 5.1, '0x1.0002f40170135p-1', '-0x1.cef5e1dc54f14p-15'),
    (3.0, -1.0, False, -12.3, '0x1.000000000115ep-1', '0x1.545a150ce808dp-40'),
    # trigonometric
    (3.0, 1.0, False, 0.1, '0x1.90018a27798d6p+6', '-0x1.f3fe1221cd262p+10'),
    (3.0, 1.0, False, -0.1, '0x1.90018a27798d6p+6', '0x1.f3fe1221cd262p+10'),
    (3.0, 1.0, False, 0.37, '0x1.d4da5558570dep+2', '-0x1.3aed1b69797bbp+5'),
    (3.0, 1.0, False, 0.9, '0x1.625c97eec5222p+0', '-0x1.2aff0e15f3e7cp+1'),
    (3.0, 1.0, False, -1.7, '0x1.78dd556791c5bp+0', '-0x1.5ae66e8c26054p+1'),
    (3.0, 1.0, False, 2.3, '0x1.c7adbed700608p+3', '0x1.ad1248beae4b5p+6'),
    (3.0, 1.0, False, 5.1, '0x1.121f86dc19baep+10', '0x1.1ba90510baf84p+16'),
    (3.0, 1.0, False, -12.3, '0x1.d530d86a49bfcp+1', '-0x1.b341efa519e59p+3'),
    # sn
    (4.0, 1.0, False, 0.1, '0x1.90020d3a4c71ep+6', '-0x1.f3fd6e494aae1p+10'),
    (4.0, 1.0, False, -0.1, '0x1.90020d3a4c71ep+6', '0x1.f3fd6e494aae1p+10'),
    (4.0, 1.0, False, 0.37, '0x1.d54abae5bccbcp+2', '-0x1.3aa0d36773ca1p+5'),
    (4.0, 1.0, False, 0.9, '0x1.6d9a0040de0dap+0', '-0x1.1c737c77f87efp+1'),
    (4.0, 1.0, False, -1.7, '0x1.e5ec89f9eed54p+0', '-0x1.1539533bd4032p+2'),
    (4.0, 1.0, False, 2.3, '0x1.5d189852e5d99p+5', '0x1.202ebe81699f2p+9'),
    (4.0, 1.0, False, 5.1, '0x1.9b79f64249c5ap+4', '-0x1.04a302cbf072bp+8'),
    (4.0, 1.0, False, -12.3, '0x1.0dc007e6d0054p+9', '0x1.87983a66df2a2p+14'),
    # cn
    (1.0, 1.0, False, 0.1, '0x1.9000840229ab8p+6', '-0x1.f3ff59d18ff82p+10'),
    (1.0, 1.0, False, -0.1, '0x1.9000840229ab8p+6', '0x1.f3ff59d18ff82p+10'),
    (1.0, 1.0, False, 0.37, '0x1.d3f9c01c5013ap+2', '-0x1.3b853e254ad79p+5'),
    (1.0, 1.0, False, 0.9, '0x1.4c97c722738d2p+0', '-0x1.45a4daf4ce6a2p+1'),
    (1.0, 1.0, False, -1.7, '0x1.be370bfac0df4p-1', '-0x1.c31a9e76f3ebcp-1'),
    (1.0, 1.0, False, 2.3, '0x1.8e74ffd2d2a2ep+1', '0x1.597786ed6b4e5p+3'),
    (1.0, 1.0, False, 5.1, '0x1.3e9b97ae6863cp+1', '0x1.e83e581dee7e9p+2'),
    (1.0, 1.0, False, -12.3, '0x1.84a8e36e48254p+0', '0x1.b1ad5a4c05834p+1'),
    # (3, -1) forced general: the sn kind at m = 1
    (3.0, -1.0, True, 0.1, '0x1.900188481fb2ep+6', '-0x1.f3fe16d02f09ap+10'),
    (3.0, -1.0, True, -0.1, '0x1.900188481fb2ep+6', '0x1.f3fe16d02f09ap+10'),
    (3.0, -1.0, True, 0.37, '0x1.d4c4622dfba9ap+2', '-0x1.3b0acab41e0a2p+5'),
    (3.0, -1.0, True, 0.9, '0x1.560905784a3eep+0', '-0x1.4722e2275a185p+1'),
    (3.0, -1.0, True, -1.7, '0x1.3144b3136a7d6p-1', '0x1.f1f8fb38c8ec5p-3'),
    (3.0, -1.0, True, 2.3, '0x1.0b0f99f281fd6p-1', '-0x1.b49bf30e4e9d8p-5'),
    (3.0, -1.0, True, 5.1, '0x1.0002f40170136p-1', '-0x1.cef5e1dc54f14p-15'),
    (3.0, -1.0, True, -12.3, '0x1.000000000115ep-1', '0x1.545a150ce808dp-40'),
    # (3, 1) forced general: the sn kind at m = 0
    (3.0, 1.0, True, 0.1, '0x1.90018a27798d5p+6', '-0x1.f3fe1221cd263p+10'),
    (3.0, 1.0, True, -0.1, '0x1.90018a27798d5p+6', '0x1.f3fe1221cd263p+10'),
    (3.0, 1.0, True, 0.37, '0x1.d4da5558570dep+2', '-0x1.3aed1b69797bcp+5'),
    (3.0, 1.0, True, 0.9, '0x1.625c97eec5222p+0', '-0x1.2aff0e15f3e7dp+1'),
    (3.0, 1.0, True, -1.7, '0x1.78dd556791c5bp+0', '-0x1.5ae66e8c26054p+1'),
    (3.0, 1.0, True, 2.3, '0x1.c7adbed700608p+3', '0x1.ad1248beae4b5p+6'),
    (3.0, 1.0, True, 5.1, '0x1.121f86dc19baep+10', '0x1.1ba90510baf85p+16'),
    (3.0, 1.0, True, -12.3, '0x1.d530d86a49bfcp+1', '-0x1.b341efa519e58p+3'),
]

# (g2, g3, force_general, float.hex of z, message, float.hex of distance
# and of limit)
POLES = [
    (0.0, 0.0, False, '0x1.a36e2eb1c432dp-12', 'z within 1.000e-03 of a Weierstrass pole (distance 4.000e-04)', '0x1.a36e2eb1c432dp-12', '0x1.0624dd2f1a9fcp-10'),
    (3.0, -1.0, False, '0x1.0cf85ea4b0368p-10', 'z within 2.565e-03 of a Weierstrass pole (distance 1.026e-03)', '0x1.0cf85ea4b0368p-10', '0x1.5036764ddc442p-9'),
    (3.0, 1.0, False, '0x1.4876ce93ddb08p+1', 'z within 2.565e-03 of a Weierstrass pole (distance 1.026e-03)', '0x1.0cf85ea4b0000p-10', '0x1.5036764ddc442p-9'),
    (4.0, 1.0, False, '0x1.39e74214247d3p+1', 'z within 2.451e-03 of a Weierstrass pole (distance 9.806e-04)', '0x1.010bfb8f85800p-10', '0x1.414efa7366f64p-9'),
    (1.0, 1.0, False, '0x1.6f53fb4542bc9p+1', 'z within 2.869e-03 of a Weierstrass pole (distance 1.147e-03)', '0x1.2ccb79845b800p-10', '0x1.77fe57e572e27p-9'),
    (3.0, -1.0, True, '0x1.a36e2eb1c432dp-12', 'z within 1.000e-03 of a Weierstrass pole (distance 4.000e-04)', '0x1.a36e2eb1c432dp-12', '0x1.0624dd2f1a9fcp-10'),
    (3.0, 1.0, True, '0x1.4876ce93ddb08p+1', 'z within 2.565e-03 of a Weierstrass pole (distance 1.026e-03)', '0x1.0cf85ea4b0000p-10', '0x1.5036764ddc442p-9'),
]

KINDS = {
    (0.0, 0.0, False): "rational",
    (3.0, -1.0, False): "hyperbolic",
    (3.0, 1.0, False): "trigonometric",
    (4.0, 1.0, False): "sn",
    (1.0, 1.0, False): "cn",
    (3.0, -1.0, True): "sn",
    (3.0, 1.0, True): "sn",
}


@pytest.mark.parametrize("g2, g3, force_general", list(KINDS))
def test_eval_matches_pinned_bits(g2, g3, force_general):
    prep = prepare_weierstrass(WeierstrassInvariants(g2, g3),
                               force_general=force_general)
    assert prep.kind == KINDS[g2, g3, force_general]
    rows = [row for row in PINNED if row[:3] == (g2, g3, force_general)]
    assert len(rows) == 8
    for *_, z, p, pp in rows:
        assert (prep.eval(z).hex(), prep.slope(z).hex()) == (p, pp), z


@pytest.mark.parametrize("g2, g3, force_general, z, message, distance, limit",
                         POLES)
def test_pole_error_matches_pinned(g2, g3, force_general, z, message,
                                   distance, limit):
    prep = prepare_weierstrass(WeierstrassInvariants(g2, g3),
                               force_general=force_general)
    with pytest.raises(PoleProximityError) as err:
        prep.eval(float.fromhex(z))
    assert str(err.value) == message
    assert err.value.distance.hex() == distance
    assert err.value.limit.hex() == limit
