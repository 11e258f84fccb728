"""Bit-for-bit pins of the Jacobi kernels.

The table holds float.hex of (sn, cn, dn) and am for every (u, m) pair of
m in {-1e6, -3, -1e-3, 0, 1e-12, 0.3, 0.5, 0.999999, 1, 1 + 1e-9, 2, 4,
1e6} and u in {0, 1e-130, +-1e-8, +-0.3, +-1.7, +-7.5, +-1e4}, as the
per-call Landen descent computed them before the descent data moved into
_PreparedJacobi.  The exception is m = 1 at u = +-1e4, where cosh
overflowed and sn_cn_dn raised OverflowError; those rows hold the
saturated values tanh = +-1, sech = 0 that it returns now; the am
column of the m > 1 rows, which holds atan2(sn(u; m), cn(u; m)) since am
stopped taking asin(sn(u; m)) there (14 of those 48 values changed);
the ten m = 1 + 1e-9 rows at u != 0, 1e-130, which moved when the
descent of 1/m started from (m - 1)/m in place of 1 - fl(1/m); and the
am column of 18 rows at m in {-1e6, -1e-3, 0.3, 0.5, 0.999999}, which
moved by 1 to 6 ulps when K(m), by which am reduces u, came to be read
off the Landen ladder's AGM in place of Carlson's R_F.  Their error
against a 40-digit mpmath am went, in ulps of am, 1.07 -> 2.93 at m =
-1e6; 3.59 -> 2.41, 1.31 -> 1.69 and 0.75 -> 1.25 at -1e-3; 3.67 ->
0.33 and 2.16 -> 0.16 at 0.3; 1.16 -> 0.84 and 0.75 -> 0.25 at 0.5; and
1.24 -> 0.24 at 0.999999 (u = +-1.7, +-7.5, +-1e4 in that order, where
a row moved), each within the jacobi_am docstring's bound.  Last, the am
column of the two m = 1 rows at u = +-7.5, which moved when am at m = 1
came to be atan2(sn, cn) = atan2(tanh u, sech u) in place of asin(tanh
u): their error against the 40-digit gd(u) = 2 atan(e^u) - pi/2 went
from 101 ulps of am to 0.115 (the other ten m = 1 rows kept their bits).
"""

import math

import pytest

from expwave.errors import DomainError
from expwave.specfun import jacobi_am, jacobi_sn_cn_dn
from expwave.specfun.elliptic import _PreparedJacobi

# (u, m, then float.hex of sn, cn, dn and am)
PINNED = [
    (0.0, -1000000.0,
     "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    (1e-130, -1000000.0,
     "0x1.1bebdf578b2f4p-432", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1bebdf578b2f4p-432"),
    (1e-08, -1000000.0,
     "0x1.5798ee23215c2p-27", "0x1.fffffffffffffp-1", "0x1.0000000036f9cp+0", "0x1.5798ee23215c2p-27"),
    (-1e-08, -1000000.0,
     "-0x1.5798ee23215c2p-27", "0x1.fffffffffffffp-1", "0x1.0000000036f9cp+0", "-0x1.5798ee23215c2p-27"),
    (0.3, -1000000.0,
     "0x1.fb4d8a998675ap-10", "0x1.ffffc12b387d9p-1", "0x1.16d2cc728b270p+1", "0x1.c467a28809df9p+5"),
    (-0.3, -1000000.0,
     "-0x1.fb4d8a998675ap-10", "0x1.ffffc12b387d9p-1", "0x1.16d2cc728b270p+1", "-0x1.c467a28809df9p+5"),
    (1.7, -1000000.0,
     "0x1.ec976d148d990p-1", "0x1.1744852bd3b84p-2", "0x1.e10bf18da2124p+9", "0x1.41bcadb428258p+8"),
    (-1.7, -1000000.0,
     "-0x1.ec976d148d990p-1", "0x1.1744852bd3b84p-2", "0x1.e10bf18da2124p+9", "-0x1.41bcadb428258p+8"),
    (7.5, -1000000.0,
     "0x1.1e65c8ff8f797p-8", "0x1.fffebf98062bbp-1", "0x1.1eea0c2700eb4p+2", "0x1.6300459fc42c5p+10"),
    (-7.5, -1000000.0,
     "-0x1.1e65c8ff8f797p-8", "0x1.fffebf98062bbp-1", "0x1.1eea0c2700eb4p+2", "-0x1.6300459fc42c5p+10"),
    (10000.0, -1000000.0,
     "-0x1.ad91c98107877p-11", "0x1.fffff4bcb81ecp-1", "0x1.4af48a1c40f98p+0", "0x1.ce5fbff6662ddp+20"),
    (-10000.0, -1000000.0,
     "0x1.ad91c98107877p-11", "0x1.fffff4bcb81ecp-1", "0x1.4af48a1c40f98p+0", "-0x1.ce5fbff6662ddp+20"),
    (0.0, -3.0,
     "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    (1e-130, -3.0,
     "0x1.1bebdf578b2f4p-432", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1bebdf578b2f4p-432"),
    (1e-08, -3.0,
     "0x1.5798ee2308c3cp-27", "0x1.0000000000000p+0", "0x1.0000000000001p+0", "0x1.5798ee2308c3cp-27"),
    (-1e-08, -3.0,
     "-0x1.5798ee2308c3cp-27", "0x1.0000000000000p+0", "0x1.0000000000001p+0", "-0x1.5798ee2308c3cp-27"),
    (0.3, -3.0,
     "0x1.3bb7e96556453p-2", "0x1.e70e94400f26ep-1", "0x1.22376fd175878p+0", "0x1.40f287cfa0108p-2"),
    (-0.3, -3.0,
     "-0x1.3bb7e96556453p-2", "0x1.e70e94400f26ep-1", "0x1.22376fd175878p+0", "-0x1.40f287cfa0108p-2"),
    (1.7, -3.0,
     "0x1.edea1a24a731fp-2", "-0x1.c0811b32f3d08p-1", "0x1.4d94f97ea80e1p+0", "0x1.51b2d91f57be9p+1"),
    (-1.7, -3.0,
     "-0x1.edea1a24a731fp-2", "-0x1.c0811b32f3d08p-1", "0x1.4d94f97ea80e1p+0", "-0x1.51b2d91f57be9p+1"),
    (7.5, -3.0,
     "-0x1.fdaabe2f893e2p-1", "-0x1.869367e7356f0p-4", "0x1.fe40502e0a4a7p+0", "0x1.5ccd677fdc540p+3"),
    (-7.5, -3.0,
     "0x1.fdaabe2f893e2p-1", "-0x1.869367e7356f0p-4", "0x1.fe40502e0a4a7p+0", "-0x1.5ccd677fdc540p+3"),
    (10000.0, -3.0,
     "-0x1.edeb1addb3ad3p-3", "-0x1.f0e318f4c4106p-1", "0x1.156fed421f3a4p+0", "0x1.c73e783b69554p+13"),
    (-10000.0, -3.0,
     "0x1.edeb1addb3ad3p-3", "-0x1.f0e318f4c4106p-1", "0x1.156fed421f3a4p+0", "-0x1.c73e783b69554p+13"),
    (0.0, -0.001,
     "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    (1e-130, -0.001,
     "0x1.1bebdf578b2f4p-432", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1bebdf578b2f4p-432"),
    (1e-08, -0.001,
     "0x1.5798ee2308c3bp-27", "0x1.0000000000000p+0", "0x1.0000000000001p+0", "0x1.5798ee2308c3bp-27"),
    (-1e-08, -0.001,
     "-0x1.5798ee2308c3bp-27", "0x1.0000000000000p+0", "0x1.0000000000001p+0", "-0x1.5798ee2308c3bp-27"),
    (0.3, -0.001,
     "0x1.2e9df4b65870dp-2", "0x1.e921b16f6e642p-1", "0x1.0002dc99b84c2p+0", "0x1.33345bcd39e4dp-2"),
    (-0.3, -0.001,
     "-0x1.2e9df4b65870dp-2", "0x1.e921b16f6e642p-1", "0x1.0002dc99b84c2p+0", "-0x1.33345bcd39e4dp-2"),
    (1.7, -0.001,
     "0x1.fbb3c2aa3dea0p-1", "-0x1.08cd2a36fbed0p-3", "0x1.002036577f6d5p+0", "0x1.b35124af4f45ep+0"),
    (-1.7, -0.001,
     "-0x1.fbb3c2aa3dea0p-1", "-0x1.08cd2a36fbed0p-3", "0x1.002036577f6d5p+0", "-0x1.b35124af4f45ep+0"),
    (7.5, -0.001,
     "0x1.e092d2863861ap-1", "0x1.613b364055a98p-2", "0x1.001cdccd5af63p+0", "0x1.e01d62931b03dp+2"),
    (-7.5, -0.001,
     "-0x1.e092d2863861ap-1", "0x1.613b364055a98p-2", "0x1.001cdccd5af63p+0", "-0x1.e01d62931b03dp+2"),
    (10000.0, -0.001,
     "-0x1.4d7a9be03a04bp-2", "0x1.e416ba6cebcd7p-1", "0x1.000379a45d128p+0", "0x1.3893fe8ef8227p+13"),
    (-10000.0, -0.001,
     "0x1.4d7a9be03a04bp-2", "0x1.e416ba6cebcd7p-1", "0x1.000379a45d128p+0", "-0x1.3893fe8ef8227p+13"),
    (0.0, 0.0,
     "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    (1e-130, 0.0,
     "0x1.1bebdf578b2f4p-432", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1bebdf578b2f4p-432"),
    (1e-08, 0.0,
     "0x1.5798ee2308c3ap-27", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.5798ee2308c3ap-27"),
    (-1e-08, 0.0,
     "-0x1.5798ee2308c3ap-27", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.5798ee2308c3ap-27"),
    (0.3, 0.0,
     "0x1.2e9cd95baba33p-2", "0x1.e921dd42f09bap-1", "0x1.0000000000000p+0", "0x1.3333333333333p-2"),
    (-0.3, 0.0,
     "-0x1.2e9cd95baba33p-2", "0x1.e921dd42f09bap-1", "0x1.0000000000000p+0", "-0x1.3333333333333p-2"),
    (1.7, 0.0,
     "0x1.fbbb7d72f98b6p-1", "-0x1.07df9f4a26c86p-3", "0x1.0000000000000p+0", "0x1.b333333333333p+0"),
    (-1.7, 0.0,
     "-0x1.fbbb7d72f98b6p-1", "-0x1.07df9f4a26c86p-3", "0x1.0000000000000p+0", "-0x1.b333333333333p+0"),
    (7.5, 0.0,
     "0x1.e041886fcae30p-1", "0x1.62f45e66f5c2fp-2", "0x1.0000000000000p+0", "0x1.e000000000000p+2"),
    (-7.5, 0.0,
     "-0x1.e041886fcae30p-1", "0x1.62f45e66f5c2fp-2", "0x1.0000000000000p+0", "-0x1.e000000000000p+2"),
    (10000.0, 0.0,
     "-0x1.38f2fa75d9289p-2", "-0x1.e780e88ec4409p-1", "0x1.0000000000000p+0", "0x1.3880000000000p+13"),
    (-10000.0, 0.0,
     "0x1.38f2fa75d9289p-2", "-0x1.e780e88ec4409p-1", "0x1.0000000000000p+0", "-0x1.3880000000000p+13"),
    (0.0, 1e-12,
     "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    (1e-130, 1e-12,
     "0x1.1bebdf578b2f4p-432", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1bebdf578b2f4p-432"),
    (1e-08, 1e-12,
     "0x1.5798ee2308c3bp-27", "0x1.0000000000000p+0", "0x1.ffffffffffffep-1", "0x1.5798ee2308c3bp-27"),
    (-1e-08, 1e-12,
     "-0x1.5798ee2308c3bp-27", "0x1.0000000000000p+0", "0x1.ffffffffffffep-1", "-0x1.5798ee2308c3bp-27"),
    (0.3, 1e-12,
     "0x1.2e9cd95bab9e7p-2", "0x1.e921dd42f09c5p-1", "0x1.ffffffffffe76p-1", "0x1.33333333332e4p-2"),
    (-0.3, 1e-12,
     "-0x1.2e9cd95bab9e7p-2", "0x1.e921dd42f09c5p-1", "0x1.ffffffffffe76p-1", "-0x1.33333333332e4p-2"),
    (1.7, 1e-12,
     "0x1.fbbb7d72f9ac8p-1", "-0x1.07df9f4a22cc0p-3", "0x1.fffffffffeeb3p-1", "0x1.b333333332b28p+0"),
    (-1.7, 1e-12,
     "-0x1.fbbb7d72f9ac8p-1", "-0x1.07df9f4a22cc0p-3", "0x1.fffffffffeeb3p-1", "-0x1.b333333332b28p+0"),
    (7.5, 1e-12,
     "0x1.e041886fc9850p-1", "0x1.62f45e66fd294p-2", "0x1.ffffffffff085p-1", "0x1.dfffffffff81cp+2"),
    (-7.5, 1e-12,
     "-0x1.e041886fc9850p-1", "0x1.62f45e66fd294p-2", "0x1.ffffffffff085p-1", "-0x1.dfffffffff81cp+2"),
    (10000.0, 1e-12,
     "-0x1.38f2fa4cefc10p-2", "-0x1.e780e89555152p-1", "0x1.ffffffffffe5cp-1", "0x1.387fffffffaa1p+13"),
    (-10000.0, 1e-12,
     "0x1.38f2fa4cefc10p-2", "-0x1.e780e89555152p-1", "0x1.ffffffffffe5cp-1", "-0x1.387fffffffaa1p+13"),
    (0.0, 0.3,
     "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    (1e-130, 0.3,
     "0x1.1bebdf578b2f4p-432", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1bebdf578b2f4p-432"),
    (1e-08, 0.3,
     "0x1.5798ee2308c3bp-27", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.5798ee2308c3bp-27"),
    (-1e-08, 0.3,
     "-0x1.5798ee2308c3bp-27", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.5798ee2308c3bp-27"),
    (0.3, 0.3,
     "0x1.2d51241934256p-2", "0x1.e9550c7540af5p-1", "0x1.f94e7367fb0dcp-1", "0x1.31d80e1940b6ap-2"),
    (-0.3, 0.3,
     "-0x1.2d51241934256p-2", "0x1.e9550c7540af5p-1", "0x1.f94e7367fb0dcp-1", "-0x1.31d80e1940b6ap-2"),
    (1.7, 0.3,
     "0x1.fff7265b7bc9ap-1", "0x1.7cc8a13753fa4p-7", "0x1.ac61e051093d6p-1", "0x1.8f261f9e77200p+0"),
    (-1.7, 0.3,
     "-0x1.fff7265b7bc9ap-1", "0x1.7cc8a13753fa4p-7", "0x1.ac61e051093d6p-1", "-0x1.8f261f9e77200p+0"),
    (7.5, 0.3,
     "0x1.2e8b172b840bep-1", "0x1.9d0d2ed32cf78p-1", "0x1.e471351f27ef4p-1", "0x1.ba9558bb6ae16p+2"),
    (-7.5, 0.3,
     "-0x1.2e8b172b840bep-1", "0x1.9d0d2ed32cf78p-1", "0x1.e471351f27ef4p-1", "-0x1.ba9558bb6ae16p+2"),
    (10000.0, 0.3,
     "-0x1.ca3925419f3d4p-1", "-0x1.c8d6cb182f5e4p-2", "0x1.be441fedc66bcp-1", "0x1.1e6912b1d8c2ep+13"),
    (-10000.0, 0.3,
     "0x1.ca3925419f3d4p-1", "-0x1.c8d6cb182f5e4p-2", "0x1.be441fedc66bcp-1", "-0x1.1e6912b1d8c2ep+13"),
    (0.0, 0.5,
     "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    (1e-130, 0.5,
     "0x1.1bebdf578b2f4p-432", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1bebdf578b2f4p-432"),
    (1e-08, 0.5,
     "0x1.5798ee2308c3ap-27", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.5798ee2308c3ap-27"),
    (-1e-08, 0.5,
     "-0x1.5798ee2308c3ap-27", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.5798ee2308c3ap-27"),
    (0.3, 0.5,
     "0x1.2c746334c1039p-2", "0x1.e976fa97fa398p-1", "0x1.f4dbf07a1a557p-1", "0x1.30f11b51bb8a7p-2"),
    (-0.3, 0.5,
     "-0x1.2c746334c1039p-2", "0x1.e976fa97fa398p-1", "0x1.f4dbf07a1a557p-1", "-0x1.30f11b51bb8a7p-2"),
    (1.7, 0.5,
     "0x1.fcf3d1fab125cp-1", "0x1.be3ddc7b5fd99p-4", "0x1.6c2e4e5c2d1c7p-1", "0x1.762da447ea5f2p+0"),
    (-1.7, 0.5,
     "-0x1.fcf3d1fab125cp-1", "0x1.be3ddc7b5fd99p-4", "0x1.6c2e4e5c2d1c7p-1", "-0x1.762da447ea5f2p+0"),
    (7.5, 0.5,
     "0x1.563dbcf57df8ep-4", "0x1.fe35a9d621c71p-1", "0x1.ff1b084b93fa0p-1", "0x1.977a454904602p+2"),
    (-7.5, 0.5,
     "-0x1.563dbcf57df8ep-4", "0x1.fe35a9d621c71p-1", "0x1.ff1b084b93fa0p-1", "-0x1.977a454904602p+2"),
    (10000.0, 0.5,
     "0x1.7a161e58a4091p-1", "-0x1.593eedd25846ap-1", "0x1.b4a8313e3085bp-1", "0x1.08c05b60a4b32p+13"),
    (-10000.0, 0.5,
     "-0x1.7a161e58a4091p-1", "-0x1.593eedd25846ap-1", "0x1.b4a8313e3085bp-1", "-0x1.08c05b60a4b32p+13"),
    (0.0, 0.999999,
     "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    (1e-130, 0.999999,
     "0x1.1bebdf578b2f4p-432", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1bebdf578b2f4p-432"),
    (1e-08, 0.999999,
     "0x1.5798ee2308c3ap-27", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.5798ee2308c3ap-27"),
    (-1e-08, 0.999999,
     "-0x1.5798ee2308c3ap-27", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.5798ee2308c3ap-27"),
    (0.3, 0.999999,
     "0x1.2a4ddac599cbfp-2", "0x1.e9cb222d230b8p-1", "0x1.e9cb23aa25626p-1", "0x1.2eb16ba3ad998p-2"),
    (-0.3, 0.999999,
     "-0x1.2a4ddac599cbfp-2", "0x1.e9cb222d230b8p-1", "0x1.e9cb23aa25626p-1", "-0x1.2eb16ba3ad998p-2"),
    (1.7, 0.999999,
     "0x1.deedf61da476dp-1", "0x1.6a0d6f1603246p-2", "0x1.6a0dc21fefb93p-2", "0x1.359c352fe0dbap+0"),
    (-1.7, 0.999999,
     "-0x1.deedf61da476dp-1", "0x1.6a0d6f1603246p-2", "0x1.6a0dc21fefb93p-2", "-0x1.359c352fe0dbap+0"),
    (7.5, 0.999999,
     "0x1.fffff300b9705p-1", "0x1.cd75d58d5e551p-11", "0x1.5d38c3e9bdfc4p-10", "0x1.91e6068914322p+0"),
    (-7.5, 0.999999,
     "-0x1.fffff300b9705p-1", "0x1.cd75d58d5e551p-11", "0x1.5d38c3e9bdfc4p-10", "-0x1.91e6068914322p+0"),
    (10000.0, 0.999999,
     "0x1.faaa80b567327p-1", "-0x1.26d9a27ca3c5fp-3", "0x1.26db6af38e780p-3", "0x1.d93d0f1565505p+10"),
    (-10000.0, 0.999999,
     "-0x1.faaa80b567327p-1", "-0x1.26d9a27ca3c5fp-3", "0x1.26db6af38e780p-3", "-0x1.d93d0f1565505p+10"),
    (0.0, 1.0,
     "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    (1e-130, 1.0,
     "0x1.1bebdf578b2f4p-432", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1bebdf578b2f4p-432"),
    (1e-08, 1.0,
     "0x1.5798ee2308c3ap-27", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.5798ee2308c3ap-27"),
    (-1e-08, 1.0,
     "-0x1.5798ee2308c3ap-27", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.5798ee2308c3ap-27"),
    (0.3, 1.0,
     "0x1.2a4dda7d914fap-2", "0x1.e9cb22381acbcp-1", "0x1.e9cb22381acbcp-1", "0x1.2eb16b58610cdp-2"),
    (-0.3, 1.0,
     "-0x1.2a4dda7d914fap-2", "0x1.e9cb22381acbcp-1", "0x1.e9cb22381acbcp-1", "-0x1.2eb16b58610cdp-2"),
    (1.7, 1.0,
     "0x1.deedf00d3e7f5p-1", "0x1.6a0d8f2c2aee1p-2", "0x1.6a0d8f2c2aee1p-2", "0x1.359c2c9c8a71fp+0"),
    (-1.7, 1.0,
     "-0x1.deedf00d3e7f5p-1", "0x1.6a0d8f2c2aee1p-2", "0x1.6a0d8f2c2aee1p-2", "-0x1.359c2c9c8a71fp+0"),
    (7.5, 1.0,
     "0x1.ffffeb78a3c73p-1", "0x1.21f9b470bdb03p-10", "0x1.21f9b470bdb03p-10", "0x1.91d736d62e993p+0"),
    (-7.5, 1.0,
     "-0x1.ffffeb78a3c73p-1", "0x1.21f9b470bdb03p-10", "0x1.21f9b470bdb03p-10", "-0x1.91d736d62e993p+0"),
    (10000.0, 1.0,
     "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x1.921fb54442d18p+0"),
    (-10000.0, 1.0,
     "-0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "-0x1.921fb54442d18p+0"),
    (0.0, 1.000000001,
     "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    (1e-130, 1.000000001,
     "0x1.1bebdf578b2f4p-432", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1bebdf578b2f4p-432"),
    (1e-08, 1.000000001,
     "0x1.5798ee2308c39p-27", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.5798ee2308c39p-27"),
    (-1e-08, 1.000000001,
     "-0x1.5798ee2308c39p-27", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.5798ee2308c39p-27"),
    (0.3, 1.000000001,
     "0x1.2a4dda7d7ededp-2", "0x1.e9cb22381d9a8p-1", "0x1.e9cb2237bc10bp-1", "0x1.2eb16b584dc5fp-2"),
    (-0.3, 1.000000001,
     "-0x1.2a4dda7d7ededp-2", "0x1.e9cb22381d9a8p-1", "0x1.e9cb2237bc10bp-1", "-0x1.2eb16b584dc5fp-2"),
    (1.7, 1.000000001,
     "0x1.deedf00bb1155p-1", "0x1.6a0d8f3461c10p-2", "0x1.6a0d8f1f1fb99p-2", "0x1.359c2c9a58705p+0"),
    (-1.7, 1.000000001,
     "-0x1.deedf00bb1155p-1", "0x1.6a0d8f3461c10p-2", "0x1.6a0d8f1f1fb99p-2", "-0x1.359c2c9a58705p+0"),
    (7.5, 1.000000001,
     "0x1.ffffeb767df8cp-1", "0x1.2208df249e963p-10", "0x1.21ea89aa9e50fp-10", "0x1.91d7330b817a1p+0"),
    (-7.5, 1.000000001,
     "-0x1.ffffeb767df8cp-1", "0x1.2208df249e963p-10", "0x1.21ea89aa9e50fp-10", "-0x1.91d7330b817a1p+0"),
    (10000.0, 1.000000001,
     "-0x1.ffffff59fd05dp-1", "0x1.9c4e3bd3402b1p-13", "0x1.96efea7547c15p-13", "-0x1.9212d2d262d30p+0"),
    (-10000.0, 1.000000001,
     "0x1.ffffff59fd05dp-1", "0x1.9c4e3bd3402b1p-13", "0x1.96efea7547c15p-13", "0x1.9212d2d262d30p+0"),
    (0.0, 2.0,
     "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    (1e-130, 2.0,
     "0x1.1bebdf578b2f4p-432", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1bebdf578b2f4p-432"),
    (1e-08, 2.0,
     "0x1.5798ee2308c3ap-27", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.5798ee2308c3ap-27"),
    (-1e-08, 2.0,
     "-0x1.5798ee2308c3ap-27", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.5798ee2308c3ap-27"),
    (0.3, 2.0,
     "0x1.260694657f87ap-2", "0x1.ea70985a2ee39p-1", "0x1.d3e32056746afp-1", "0x1.2a393e821b3f0p-2"),
    (-0.3, 2.0,
     "-0x1.260694657f87ap-2", "0x1.ea70985a2ee39p-1", "0x1.d3e32056746afp-1", "-0x1.2a393e821b3f0p-2"),
    (1.7, 2.0,
     "0x1.4da9ec097b4c9p-1", "0x1.84588969439d3p-1", "-0x1.8d65809fe960cp-2", "0x1.6b6bc2704ddb5p-1"),
    (-1.7, 2.0,
     "-0x1.4da9ec097b4c9p-1", "0x1.84588969439d3p-1", "-0x1.8d65809fe960cp-2", "-0x1.6b6bc2704ddb5p-1"),
    (7.5, 2.0,
     "0x1.5f8a5e22b6ee7p-2", "0x1.e0e224ccbf24ap-1", "-0x1.bf9bda637b3eap-1", "0x1.66d6fff293905p-2"),
    (-7.5, 2.0,
     "-0x1.5f8a5e22b6ee7p-2", "0x1.e0e224ccbf24ap-1", "-0x1.bf9bda637b3eap-1", "-0x1.66d6fff293905p-2"),
    (10000.0, 2.0,
     "-0x1.dae3c4abf943dp-2", "0x1.c59cb2ad31d9ep-1", "0x1.828089f17643ap-1", "-0x1.edceba2420e06p-2"),
    (-10000.0, 2.0,
     "0x1.dae3c4abf943dp-2", "0x1.c59cb2ad31d9ep-1", "0x1.828089f17643ap-1", "0x1.edceba2420e06p-2"),
    (0.0, 4.0,
     "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    (1e-130, 4.0,
     "0x1.1bebdf578b2f4p-432", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1bebdf578b2f4p-432"),
    (1e-08, 4.0,
     "0x1.5798ee2308c3ap-27", "0x1.0000000000000p+0", "0x1.fffffffffffffp-1", "0x1.5798ee2308c3ap-27"),
    (-1e-08, 4.0,
     "-0x1.5798ee2308c3ap-27", "0x1.0000000000000p+0", "0x1.fffffffffffffp-1", "-0x1.5798ee2308c3ap-27"),
    (0.3, 4.0,
     "0x1.1d8f48f21d685p-2", "0x1.ebb057b0b8c64p-1", "0x1.a8f85db6883cep-1", "0x1.2165908ab58b5p-2"),
    (-0.3, 4.0,
     "-0x1.1d8f48f21d685p-2", "0x1.ebb057b0b8c64p-1", "0x1.a8f85db6883cep-1", "-0x1.2165908ab58b5p-2"),
    (1.7, 4.0,
     "-0x1.d2da76cff4f25p-7", "0x1.fff2b253754b9p-1", "-0x1.ffcac73aacb2ap-1", "-0x1.d2de81fa72dfbp-7"),
    (-1.7, 4.0,
     "0x1.d2da76cff4f25p-7", "0x1.fff2b253754b9p-1", "-0x1.ffcac73aacb2ap-1", "0x1.d2de81fa72dfbp-7"),
    (7.5, 4.0,
     "0x1.fa55308c5894fp-2", "0x1.bd076a5897402p-1", "0x1.2fdf24da9bb1dp-3", "0x1.08d10c00cbad4p-1"),
    (-7.5, 4.0,
     "-0x1.fa55308c5894fp-2", "0x1.bd076a5897402p-1", "0x1.2fdf24da9bb1dp-3", "-0x1.08d10c00cbad4p-1"),
    (10000.0, 4.0,
     "0x1.045dcb2bb2124p-3", "0x1.fbd874c666fa1p-1", "0x1.ef2c4c2c04a99p-1", "0x1.0512a954d3ffcp-3"),
    (-10000.0, 4.0,
     "-0x1.045dcb2bb2124p-3", "0x1.fbd874c666fa1p-1", "0x1.ef2c4c2c04a99p-1", "-0x1.0512a954d3ffcp-3"),
    (0.0, 1000000.0,
     "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    (1e-130, 1000000.0,
     "0x1.1bebdf578b2f4p-432", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1bebdf578b2f4p-432"),
    (1e-08, 1000000.0,
     "0x1.5798ee22f02b1p-27", "0x1.0000000000000p+0", "0x1.ffffffff920c8p-1", "0x1.5798ee22f02b1p-27"),
    (-1e-08, 1000000.0,
     "-0x1.5798ee22f02b1p-27", "0x1.0000000000000p+0", "0x1.ffffffff920c8p-1", "-0x1.5798ee22f02b1p-27"),
    (0.3, 1000000.0,
     "-0x1.06145e072862ap-10", "0x1.ffffef3b24987p-1", "-0x1.6b426945c615ap-6", "-0x1.061460e3a01a8p-10"),
    (-0.3, 1000000.0,
     "0x1.06145e072862ap-10", "0x1.ffffef3b24987p-1", "-0x1.6b426945c615ap-6", "0x1.061460e3a01a8p-10"),
    (1.7, 1000000.0,
     "-0x1.965a7e50e32bep-12", "0x1.fffffd7afcd5cp-1", "-0x1.d7fdb6d44e832p-1", "-0x1.965a7efb8702ap-12"),
    (-1.7, 1000000.0,
     "0x1.965a7e50e32bep-12", "0x1.fffffd7afcd5cp-1", "-0x1.d7fdb6d44e832p-1", "0x1.965a7efb8702ap-12"),
    (7.5, 1000000.0,
     "-0x1.bdc6b08229d2fp-11", "0x1.fffff3df0e6bep-1", "-0x1.0d817457f0abap-1", "-0x1.bdc6b40746d1dp-11"),
    (-7.5, 1000000.0,
     "0x1.bdc6b08229d2fp-11", "0x1.fffff3df0e6bep-1", "-0x1.0d817457f0abap-1", "0x1.bdc6b40746d1dp-11"),
    (10000.0, 1000000.0,
     "0x1.b0218ee6d1778p-13", "0x1.ffffff49a3ae3p-1", "0x1.f503378176932p-1", "0x1.b0218f1a1f6a8p-13"),
    (-10000.0, 1000000.0,
     "-0x1.b0218ee6d1778p-13", "0x1.ffffff49a3ae3p-1", "0x1.f503378176932p-1", "-0x1.b0218f1a1f6a8p-13"),
]

PARAMETERS = list(dict.fromkeys(row[1] for row in PINNED))


def _hex(values):
    return tuple(v.hex() for v in values)


@pytest.mark.parametrize("m", PARAMETERS)
def test_kernels_match_pinned_bits(m):
    rows = [row for row in PINNED if row[1] == m]
    assert len(rows) == 12
    # one prepared parameter reused across every u returns the same bits
    prepared = _PreparedJacobi(m)
    for u, _, sn, cn, dn, am in rows:
        assert _hex(jacobi_sn_cn_dn(u, m)) == (sn, cn, dn)
        assert jacobi_am(u, m).hex() == am
        assert _hex(prepared.sn_cn_dn(u)) == (sn, cn, dn)
        assert prepared.am(u).hex() == am


def test_m1_saturates_instead_of_overflowing():
    for u in (710.0, 711.0, -750.0, 1e300):
        sn, cn, dn = jacobi_sn_cn_dn(u, 1.0)
        assert sn == math.copysign(1.0, u)
        assert cn == dn == pytest.approx(2.0 * math.exp(-abs(u)), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("u, m", [
    (math.nan, 0.5), (math.inf, 0.5), (-math.inf, 2.0), (0.3, math.nan),
    (0.3, math.inf), (0.3, -math.inf), (math.nan, math.nan),
])
def test_non_finite_arguments_raise(u, m):
    with pytest.raises(DomainError, match="^jacobi_sn_cn_dn requires finite arguments$"):
        jacobi_sn_cn_dn(u, m)
    with pytest.raises(DomainError, match="^jacobi_am requires finite arguments$"):
        jacobi_am(u, m)
    prepared = _PreparedJacobi(m)
    with pytest.raises(DomainError, match="^jacobi_sn_cn_dn requires finite arguments$"):
        prepared.sn_cn_dn(u)
    with pytest.raises(DomainError, match="^jacobi_am requires finite arguments$"):
        prepared.am(u)


def test_overflowing_reciprocal_argument_raises():
    # m > 1 scales u by sqrt(m) before the 1/m descent; an overflow there
    # reports the non-finite argument, from am as from sn_cn_dn
    for f in (jacobi_sn_cn_dn, jacobi_am):
        with pytest.raises(DomainError, match="^jacobi_sn_cn_dn requires finite arguments$"):
            f(1e308, 4.0)
