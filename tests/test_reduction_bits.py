"""Bit-for-bit pins of the traveling-ODE and first-integral descriptors.

PINNED holds float.hex of ``source``, ``f``, ``g`` and ``g_prime`` at each
h of HS, and of ``rhs_psi``, ``source_psi``, ``g_psi`` and ``g_psi_prime``
at each psi of PSIS, for the seven catalogued families at lambda gamma =
0.7 and c1 = 0.3; an exception is recorded by its type name.  GENERIC holds
the exception type and message at h = 0 with a negative exponent and at
h < 0 with a non-integral exponent.  Both tables were generated by the
descriptors as they stood while they re-read the equation parameters on
every call, and must not change.  The table forms (``sources``,
``sources_psi``, ``gs``, ``gs_psi``) must equal their scalar methods element
by element, exceptions included.
"""

import math

import pytest

from expwave.reduction import (
    EquationParams,
    FamilyLabel,
    FrameParams,
    family_params,
    first_integral,
    traveling_ode,
)

FRAME = FrameParams.from_lambda_gamma(0.7)
C1 = 0.3
HS = (2.5, 0.3, 1.0, 1e-160, 5e-324, 1e150, 1e300, 0.0, -0.7, -2.0, -1e-05,
      -1e100)
PSIS = (0.0, 0.3, -1.2, 3.0, 20.0, -40.0, 300.0, 800.0, -800.0, 1e10)
H_METHODS = ("source", "f", "g", "g_prime")
OWNER = {"source": "ode", "f": "ode", "rhs_psi": "ode", "source_psi": "ode",
         "g": "quad", "g_prime": "quad", "g_psi": "quad", "g_psi_prime": "quad"}

PINNED = {
    ('Liouville', 'source'): (
        '0x1.4000000000000p+1', '0x1.3333333333333p-2', '0x1.0000000000000p+0',
        '0x1.67e9c127b6e74p-532', '0x0.0000000000001p-1022',
        '0x1.38d352e5096afp+498', '0x1.7e43c8800759cp+996', '0x0.0p+0',
        '-0x1.6666666666666p-1', '-0x1.0000000000000p+1',
        '-0x1.4f8b588e368f1p-17', '-0x1.249ad2594c37dp+332'),
    ('Liouville', 'f'): (
        '0x1.6524924924925p+4', '0x1.3bfa2608c6f2dp-5', '0x1.6db6db6db6db7p+0',
        '0x0.0p+0', '0x0.0p+0', 'inf', 'inf', '0x0.0p+0',
        '-0x1.f5c28f5c28f5bp-2', '-0x1.6db6db6db6db7p+3',
        '-0x1.9bc1f754a7afcp-50', '-0x1.110bd85b72f70p+997'),
    ('Liouville', 'g'): (
        '0x1.6666666666666p+1', '0x1.3333333333333p-1', '0x1.4cccccccccccdp+0',
        '0x1.3333333333333p-2', '0x1.3333333333333p-2',
        '0x1.38d352e5096afp+498', '0x1.7e43c8800759cp+996',
        '0x1.3333333333333p-2', '-0x1.9999999999999p-2',
        '-0x1.b333333333333p+0', '0x1.3330941c8216cp-2',
        '-0x1.249ad2594c37dp+332'),
    ('Liouville', 'g_prime'): (
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ('Liouville', 'rhs_psi'): (
        '0x1.6db6db6db6db7p+0', '0x1.eda9a367f0169p+0', '0x1.b89aa6940ad3fp-2',
        '0x1.cb1915a9f8f2dp+4', '0x1.4a7e188265c95p+29',
        '0x1.bfd1a20022558p-58', '0x1.4041be510037ep+433', 'OverflowError',
        '0x0.0p+0', 'OverflowError'),
    ('Liouville', 'source_psi'): (
        '0x1.0000000000000p+0', '0x1.599058c8c1a96p+0', '0x1.346c4167a12dfp-2',
        '0x1.415e5bf6fb106p+4', '0x1.ceb088b68e804p+28',
        '0x1.39792499b1a24p-58', '0x1.c05c0a7166b4ap+432', 'OverflowError',
        '0x0.0p+0', 'OverflowError'),
    ('Liouville', 'g_psi'): (
        '0x1.4cccccccccccdp+0', '0x1.a65d25958e763p+0', '0x1.33cfba4d6a309p-1',
        '0x1.462b28c3c7dd3p+4', '0x1.ceb088bb5b4d1p+28',
        '0x1.3333333333333p-2', '0x1.c05c0a7166b4ap+432', 'OverflowError',
        '0x1.3333333333333p-2', 'OverflowError'),
    ('Liouville', 'g_psi_prime'): (
        '0x1.0000000000000p+0', '0x1.599058c8c1a96p+0', '0x1.346c4167a12dfp-2',
        '0x1.415e5bf6fb106p+4', '0x1.ceb088b68e804p+28',
        '0x1.39792499b1a24p-58', '0x1.c05c0a7166b4ap+432', 'OverflowError',
        '0x0.0p+0', 'OverflowError'),
    ('Tzitzeica', 'source'): (
        '0x1.2b851eb851eb8p+1', '-0x1.59f49f49f49f5p+3', '0x0.0p+0',
        'OverflowError', 'OverflowError', '0x1.38d352e5096afp+498',
        '0x1.7e43c8800759cp+996', 'DomainError', '-0x1.5ed311c3655aep+1',
        '-0x1.2000000000000p+1', '-0x1.2a05f20000004p+33',
        '-0x1.249ad2594c37dp+332'),
    ('Tzitzeica', 'f'): (
        '0x1.4e49249249249p+4', '-0x1.63d70a3d70a3dp+0', '0x0.0p+0',
        'OverflowError', 'OverflowError', 'inf', 'inf', 'DomainError',
        '-0x1.eb277f44c118dp+0', '-0x1.9b6db6db6db6ep+3',
        '-0x1.6db6db6db6dbdp+0', '-0x1.110bd85b72f70p+997'),
    ('Tzitzeica', 'g'): (
        '0x1.70a3d70a3d70ap+1', '0x1.89f49f49f49f5p+2', '0x1.ccccccccccccdp+0',
        'OverflowError', 'OverflowError', '0x1.38d352e5096afp+498',
        '0x1.7e43c8800759cp+996', 'DomainError', '0x1.3da62386cab5ep-1',
        '-0x1.9333333333333p+0', '0x1.2a05f2004ccc1p+32',
        '-0x1.249ad2594c37dp+332'),
    ('Tzitzeica', 'g_prime'): (
        '0x1.df3b645a1cac0p-1', '-0x1.204bda12f684cp+5', '0x0.0p+0',
        'OverflowError', 'OverflowError', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', 'DomainError', '0x1.f52d871723144p+1',
        '0x1.2000000000000p+0', '0x1.c6bf526340006p+49',
        '0x1.0000000000000p+0'),
    ('Tzitzeica', 'rhs_psi'): (
        '0x0.0p+0', '0x1.24f4532cab4c7p+0', '-0x1.ea25d35b1ae06p+3',
        '0x1.cb0a9494039b8p+4', '0x1.4a7e188265c95p+29',
        '-0x1.e7cf709071350p+115', '0x1.4041be510037ep+433', 'OverflowError',
        'OverflowError', 'OverflowError'),
    ('Tzitzeica', 'source_psi'): (
        '0x0.0p+0', '0x1.9a22dad823049p-1', '-0x1.571a7a595f9d1p+3',
        '0x1.415434ce02867p+4', '0x1.ceb088b68e804p+28',
        '-0x1.55779b984f3ebp+115', '0x1.c05c0a7166b4ap+432', 'OverflowError',
        'OverflowError', 'OverflowError'),
    ('Tzitzeica', 'g_psi'): (
        '0x1.ccccccccccccdp+0', '0x1.ec9c9b43e689cp+0', '0x1.8737d3ae49ec9p+2',
        '0x1.46303c5844222p+4', '0x1.ceb088bb5b4d1p+28',
        '0x1.55779b984f3ebp+114', '0x1.c05c0a7166b4ap+432', 'OverflowError',
        'OverflowError', 'OverflowError'),
    ('Tzitzeica', 'g_psi_prime'): (
        '0x0.0p+0', '0x1.9a22dad823049p-1', '-0x1.571a7a595f9d1p+3',
        '0x1.415434ce02867p+4', '0x1.ceb088b68e804p+28',
        '-0x1.55779b984f3ebp+115', '0x1.c05c0a7166b4ap+432', 'OverflowError',
        'OverflowError', 'OverflowError'),
    ('DoddBullough', 'source'): (
        '-0x1.2b851eb851eb8p+1', '0x1.59f49f49f49f5p+3', '0x0.0p+0',
        'OverflowError', 'OverflowError', '-0x1.38d352e5096afp+498',
        '-0x1.7e43c8800759cp+996', 'DomainError', '0x1.5ed311c3655aep+1',
        '0x1.2000000000000p+1', '0x1.2a05f20000004p+33',
        '0x1.249ad2594c37dp+332'),
    ('DoddBullough', 'f'): (
        '-0x1.4e49249249249p+4', '0x1.63d70a3d70a3dp+0', '0x0.0p+0',
        'OverflowError', 'OverflowError', '-inf', '-inf', 'DomainError',
        '0x1.eb277f44c118dp+0', '0x1.9b6db6db6db6ep+3', '0x1.6db6db6db6dbdp+0',
        '0x1.110bd85b72f70p+997'),
    ('DoddBullough', 'g'): (
        '-0x1.23d70a3d70a3ep+1', '-0x1.638e38e38e38fp+2',
        '-0x1.3333333333333p+0', 'OverflowError', 'OverflowError',
        '-0x1.38d352e5096afp+498', '-0x1.7e43c8800759cp+996', 'DomainError',
        '-0x1.4e5e0a72f0540p-6', '0x1.1666666666666p+1',
        '-0x1.2a05f1ffb3328p+32', '0x1.249ad2594c37dp+332'),
    ('DoddBullough', 'g_prime'): (
        '-0x1.df3b645a1cac0p-1', '0x1.204bda12f684cp+5', '0x0.0p+0',
        'OverflowError', 'OverflowError', '-0x1.0000000000000p+0',
        '-0x1.0000000000000p+0', 'DomainError', '-0x1.f52d871723144p+1',
        '-0x1.2000000000000p+0', '-0x1.c6bf526340006p+49',
        '-0x1.0000000000000p+0'),
    ('DoddBullough', 'rhs_psi'): (
        '0x0.0p+0', '-0x1.24f4532cab4c7p+0', '0x1.ea25d35b1ae06p+3',
        '-0x1.cb0a9494039b8p+4', '-0x1.4a7e188265c95p+29',
        '0x1.e7cf709071350p+115', '-0x1.4041be510037ep+433', 'OverflowError',
        'OverflowError', 'OverflowError'),
    ('DoddBullough', 'source_psi'): (
        '0x0.0p+0', '-0x1.9a22dad823049p-1', '0x1.571a7a595f9d1p+3',
        '-0x1.415434ce02867p+4', '-0x1.ceb088b68e804p+28',
        '0x1.55779b984f3ebp+115', '-0x1.c05c0a7166b4ap+432', 'OverflowError',
        'OverflowError', 'OverflowError'),
    ('DoddBullough', 'g_psi'): (
        '-0x1.3333333333333p+0', '-0x1.530301aa4cf02p+0',
        '-0x1.60d16d47e3863p+2', '-0x1.3c96a2beaa888p+4',
        '-0x1.ceb088b1c1b37p+28', '-0x1.55779b984f3ebp+114',
        '-0x1.c05c0a7166b4ap+432', 'OverflowError', 'OverflowError',
        'OverflowError'),
    ('DoddBullough', 'g_psi_prime'): (
        '0x0.0p+0', '-0x1.9a22dad823049p-1', '0x1.571a7a595f9d1p+3',
        '-0x1.415434ce02867p+4', '-0x1.ceb088b68e804p+28',
        '0x1.55779b984f3ebp+115', '-0x1.c05c0a7166b4ap+432', 'OverflowError',
        'OverflowError', 'OverflowError'),
    ('TzitzeicaDoddBullough', 'source'): (
        '0x1.547ae147ae148p+1', '0x1.6d27d27d27d29p+3', '0x1.0000000000000p+1',
        'OverflowError', 'OverflowError', '0x1.38d352e5096afp+498',
        '0x1.7e43c8800759cp+996', 'DomainError', '0x1.573fbd20644f7p+0',
        '-0x1.c000000000000p+0', '0x1.2a05f1ffffffap+33',
        '-0x1.249ad2594c37dp+332'),
    ('TzitzeicaDoddBullough', 'f'): (
        '0x1.7c00000000001p+4', '0x1.7796ac9dfd131p+0', '0x1.6db6db6db6db7p+1',
        'OverflowError', 'OverflowError', 'inf', 'inf', 'DomainError',
        '0x1.e08c6f2d593c0p-1', '-0x1.4000000000000p+3',
        '0x1.6db6db6db6db1p+0', '-0x1.110bd85b72f70p+997'),
    ('TzitzeicaDoddBullough', 'g'): (
        '0x1.5c28f5c28f5c2p+1', '-0x1.3d27d27d27d29p+2',
        '0x1.999999999999ap-1', 'OverflowError', 'OverflowError',
        '0x1.38d352e5096afp+498', '0x1.7e43c8800759cp+996', 'DomainError',
        '-0x1.6b9fde903227bp+0', '-0x1.d333333333333p+0',
        '-0x1.2a05f1ffb333dp+32', '-0x1.249ad2594c37dp+332'),
    ('TzitzeicaDoddBullough', 'g_prime'): (
        '0x1.10624dd2f1aa0p+0', '0x1.304bda12f684cp+5', '0x1.0000000000000p+1',
        'OverflowError', 'OverflowError', '0x1.0000000000000p+0',
        '0x1.0000000000000p+0', 'DomainError', '-0x1.ea5b0e2e46288p+0',
        '0x1.c000000000000p-1', '-0x1.c6bf52633fff6p+49',
        '0x1.0000000000000p+0'),
    ('TzitzeicaDoddBullough', 'rhs_psi'): (
        '0x1.6db6db6db6db7p+1', '0x1.5b2f79d19a706p+1', '0x1.02d7bee22dc6dp+4',
        '0x1.cb2796bfee4a3p+4', '0x1.4a7e188265c95p+29',
        '0x1.e7cf709071350p+115', '0x1.4041be510037ep+433', 'OverflowError',
        'OverflowError', 'OverflowError'),
    ('TzitzeicaDoddBullough', 'source_psi'): (
        '0x1.0000000000000p+1', '0x1.e60f442571d08p+0', '0x1.6a613e6fd9affp+3',
        '0x1.4168831ff39a5p+4', '0x1.ceb088b68e804p+28',
        '0x1.55779b984f3ebp+115', '0x1.c05c0a7166b4ap+432', 'OverflowError',
        'OverflowError', 'OverflowError'),
    ('TzitzeicaDoddBullough', 'g_psi'): (
        '0x1.999999999999ap-1', '0x1.601dafe73662ap+0',
        '-0x1.3a43e51aef607p+2', '0x1.4626152f4b984p+4',
        '0x1.ceb088bb5b4d1p+28', '-0x1.55779b984f3ebp+114',
        '0x1.c05c0a7166b4ap+432', 'OverflowError', 'OverflowError',
        'OverflowError'),
    ('TzitzeicaDoddBullough', 'g_psi_prime'): (
        '0x1.0000000000000p+1', '0x1.e60f442571d08p+0', '0x1.6a613e6fd9affp+3',
        '0x1.4168831ff39a5p+4', '0x1.ceb088b68e804p+28',
        '0x1.55779b984f3ebp+115', '0x1.c05c0a7166b4ap+432', 'OverflowError',
        'OverflowError', 'OverflowError'),
    ('DoddBulloughMikhailov', 'source'): (
        '-0x1.547ae147ae148p+1', '-0x1.6d27d27d27d29p+3',
        '-0x1.0000000000000p+1', 'OverflowError', 'OverflowError',
        '-0x1.38d352e5096afp+498', '-0x1.7e43c8800759cp+996', 'DomainError',
        '-0x1.573fbd20644f7p+0', '0x1.c000000000000p+0',
        '-0x1.2a05f1ffffffap+33', '0x1.249ad2594c37dp+332'),
    ('DoddBulloughMikhailov', 'f'): (
        '-0x1.7c00000000001p+4', '-0x1.7796ac9dfd131p+0',
        '-0x1.6db6db6db6db7p+1', 'OverflowError', 'OverflowError', '-inf',
        '-inf', 'DomainError', '-0x1.e08c6f2d593c0p-1', '0x1.4000000000000p+3',
        '-0x1.6db6db6db6db1p+0', '0x1.110bd85b72f70p+997'),
    ('DoddBulloughMikhailov', 'g'): (
        '-0x1.0f5c28f5c28f6p+1', '0x1.638e38e38e38fp+2',
        '-0x1.9999999999998p-3', 'OverflowError', 'OverflowError',
        '-0x1.38d352e5096afp+498', '-0x1.7e43c8800759cp+996', 'DomainError',
        '0x1.029cbc14e5e0ap+1', '0x1.3666666666666p+1',
        '0x1.2a05f2004ccd6p+32', '0x1.249ad2594c37dp+332'),
    ('DoddBulloughMikhailov', 'g_prime'): (
        '-0x1.10624dd2f1aa0p+0', '-0x1.304bda12f684cp+5',
        '-0x1.0000000000000p+1', 'OverflowError', 'OverflowError',
        '-0x1.0000000000000p+0', '-0x1.0000000000000p+0', 'DomainError',
        '0x1.ea5b0e2e46288p+0', '-0x1.c000000000000p-1',
        '0x1.c6bf52633fff6p+49', '-0x1.0000000000000p+0'),
    ('DoddBulloughMikhailov', 'rhs_psi'): (
        '-0x1.6db6db6db6db7p+1', '-0x1.5b2f79d19a706p+1',
        '-0x1.02d7bee22dc6dp+4', '-0x1.cb2796bfee4a3p+4',
        '-0x1.4a7e188265c95p+29', '-0x1.e7cf709071350p+115',
        '-0x1.4041be510037ep+433', 'OverflowError', 'OverflowError',
        'OverflowError'),
    ('DoddBulloughMikhailov', 'source_psi'): (
        '-0x1.0000000000000p+1', '-0x1.e60f442571d08p+0',
        '-0x1.6a613e6fd9affp+3', '-0x1.4168831ff39a5p+4',
        '-0x1.ceb088b68e804p+28', '-0x1.55779b984f3ebp+115',
        '-0x1.c05c0a7166b4ap+432', 'OverflowError', 'OverflowError',
        'OverflowError'),
    ('DoddBulloughMikhailov', 'g_psi'): (
        '-0x1.9999999999998p-3', '-0x1.8d082c9b39920p-1',
        '0x1.60aa4b8155c6dp+2', '-0x1.3c8c7b95b1feap+4',
        '-0x1.ceb088b1c1b37p+28', '0x1.55779b984f3ebp+114',
        '-0x1.c05c0a7166b4ap+432', 'OverflowError', 'OverflowError',
        'OverflowError'),
    ('DoddBulloughMikhailov', 'g_psi_prime'): (
        '-0x1.0000000000000p+1', '-0x1.e60f442571d08p+0',
        '-0x1.6a613e6fd9affp+3', '-0x1.4168831ff39a5p+4',
        '-0x1.ceb088b68e804p+28', '-0x1.55779b984f3ebp+115',
        '-0x1.c05c0a7166b4ap+432', 'OverflowError', 'OverflowError',
        'OverflowError'),
    ('SineGordon', 'source'): (
        '0x1.9631d728dd11ap-1', '-0x1.ddeff35f84561p-1', '0x0.0p+0',
        '0x1.7fbbae8397aabp-1', '-0x1.dfb6ace19deacp-4',
        '-0x1.7d9be576883c6p-3', '-0x1.76ecfe3058210p-2', 'ValueError',
        'ValueError', 'ValueError', 'ValueError', 'ValueError'),
    ('SineGordon', 'f'): (
        '0x1.c557a0222d960p+2', '-0x1.eb97b87f80cd8p-4', '0x0.0p+0',
        '0x0.0000000000877p-1022', '-0x0.0p+0', '-0x1.9704e7ea1ec65p+994',
        '-inf', 'ValueError', 'ValueError', 'ValueError', 'ValueError',
        'ValueError'),
    ('SineGordon', 'g'): (
        '-0x1.3c2d701c97a37p-2', '-0x1.e07a5c201d4f8p-5',
        '-0x1.6666666666666p-1', '0x1.ec8efbb0acff0p-1',
        '0x1.4b09c8f2dc89ep+0', '-0x1.5d6ee6f7151ecp-1',
        '-0x1.42d8cfe73e9acp-1', 'ValueError', 'ValueError', 'ValueError',
        'ValueError', 'ValueError'),
    ('SineGordon', 'g_prime'): (
        'UnsupportedFamilyError', 'UnsupportedFamilyError',
        'UnsupportedFamilyError', 'UnsupportedFamilyError',
        'UnsupportedFamilyError', 'UnsupportedFamilyError',
        'UnsupportedFamilyError', 'UnsupportedFamilyError',
        'UnsupportedFamilyError', 'UnsupportedFamilyError',
        'UnsupportedFamilyError', 'UnsupportedFamilyError'),
    ('SineGordon', 'rhs_psi'): (
        '0x0.0p+0', '0x1.b04dc8cc19c49p-2', '-0x1.54dc2985bf41ep+0',
        '0x1.9ce077829c314p-3', '0x1.4de08af429932p+0',
        '-0x1.107f9f7b8a3dcp+0', '-0x1.6d9fff8883d24p+0',
        '0x1.46effe1f2cebfp+0', '-0x1.46effe1f2cebfp+0',
        '-0x1.649369f470810p-1'),
    ('SineGordon', 'source_psi'): (
        '0x0.0p+0', '0x1.2e9cd95baba33p-2', '-0x1.dd343a21a55c4p-1',
        '0x1.210386db6d55bp-3', '0x1.d36d8f55d3ce0p-1',
        '-0x1.7d7f78e027f00p-1', '-0x1.ffdfff58b88ccp-1',
        '0x1.c9b663c53ee3ep-1', '-0x1.c9b663c53ee3ep-1',
        '-0x1.f334c7896a4e3p-2'),
    ('SineGordon', 'g_psi'): (
        '-0x1.6666666666666p-1', '-0x1.4f8843a957020p-1',
        '-0x1.fed5b08423508p-5', '0x1.4a3cf2c0fbfb6p+0',
        '-0x1.bab4418c5d430p-4', '0x1.ef1281701bb28p-1',
        '0x1.49d3b237d1025p-2', '0x1.7f0a91c5038d4p-1', '0x1.7f0a91c5038d4p-1',
        '-0x1.256fef682f980p-1'),
    ('SineGordon', 'g_psi_prime'): (
        '0x0.0p+0', '0x1.2e9cd95baba33p-2', '-0x1.dd343a21a55c4p-1',
        '0x1.210386db6d55bp-3', '0x1.d36d8f55d3ce0p-1',
        '-0x1.7d7f78e027f00p-1', '-0x1.ffdfff58b88ccp-1',
        '0x1.c9b663c53ee3ep-1', '-0x1.c9b663c53ee3ep-1',
        '-0x1.f334c7896a4e3p-2'),
    ('SinhGordon', 'source'): (
        '0x1.85c28f5c28f5cp+1', '-0x1.60acf13579be1p+2', '0x0.0p+0',
        'OverflowError', 'OverflowError', '0x1.7e43c8800759bp+995',
        'OverflowError', 'DomainError', '-0x1.8d024c7c8d453p-1',
        '0x1.e000000000000p+0', '-0x1.2a05f1fffffffp+32',
        '0x1.4e718d7d7625ap+663'),
    ('SinhGordon', 'f'): (
        '0x1.b300000000000p+4', '-0x1.6ac083126e979p-1', '0x0.0p+0',
        'OverflowError', 'OverflowError', 'inf', 'OverflowError',
        'DomainError', '-0x1.15e802572fb07p-1', '0x1.56db6db6db6dcp+3',
        '-0x1.6db6db6db6db7p-1', 'inf'),
    ('SinhGordon', 'g'): (
        '0x1.e70a3d70a3d71p+0', '0x1.8cd5e6f8091a4p+1', '0x1.999999999999ap-1',
        'OverflowError', 'OverflowError', '0x1.7e43c8800759bp+994',
        'OverflowError', 'DomainError', '0x1.dd8b63aeea79ap-1',
        '0x1.5cccccccccccdp+0', '0x1.2a05f20099999p+31',
        '0x1.4e718d7d7625ap+662'),
    ('SinhGordon', 'g_prime'): (
        '0x1.37ced916872b0p+0', '-0x1.25e573ac901e6p+4', '0x0.0p+0',
        'OverflowError', 'OverflowError', '0x1.38d352e5096afp+497',
        '0x1.7e43c8800759cp+995', 'DomainError', '0x1.1b93ed7d897aap+0',
        '-0x1.e000000000000p-1', '0x1.c6bf52633fffep+48',
        '-0x1.249ad2594c37dp+331'),
    ('SinhGordon', 'rhs_psi'): (
        '0x0.0p+0', '0x1.d1aaa79d2a622p-1', '-0x1.f3c4ffcb47302p+2',
        '0x1.2029621dc6a4dp+8', '0x1.2aa9bbb56bfcdp+57',
        '-0x1.e7cf709071350p+114', '0x1.187318df4a372p+865', 'OverflowError',
        'OverflowError', 'OverflowError'),
    ('SinhGordon', 'source_psi'): (
        '0x0.0p+0', '0x1.45f775546a77ep-1', '-0x1.5dd6b30e4b6e8p+2',
        '0x1.936d22f67c805p+7', '0x1.a220d397972ebp+56',
        '-0x1.55779b984f3ebp+114', '0x1.88a122d234b39p+864', 'OverflowError',
        'OverflowError', 'OverflowError'),
    ('SinhGordon', 'g_psi'): (
        '0x1.999999999999ap-1', '0x1.c9143fa07efcap-1', '0x1.8a0b6c215444ep+1',
        '0x1.94a19b0ecec4cp+6', '0x1.a220d397972ebp+55',
        '0x1.55779b984f3ebp+113', '0x1.88a122d234b39p+863', 'OverflowError',
        'OverflowError', 'OverflowError'),
    ('SinhGordon', 'g_psi_prime'): (
        '0x0.0p+0', '0x1.45f775546a77ep-1', '-0x1.5dd6b30e4b6e8p+2',
        '0x1.936d22f67c805p+7', '0x1.a220d397972ebp+56',
        '-0x1.55779b984f3ebp+114', '0x1.88a122d234b39p+864', 'OverflowError',
        'OverflowError', 'OverflowError'),
}
GENERIC = [
    ('source', 0.0, 'DomainError: h = 0 with a negative exponent'),
    ('f', 0.0, 'DomainError: h = 0 with a negative exponent'),
    ('g', 0.0, 'DomainError: h = 0 with a negative exponent'),
    ('g_prime', 0.0, 'DomainError: h = 0 with a negative exponent'),
    ('source', -0.0, 'DomainError: h = 0 with a negative exponent'),
    ('f', -0.0, 'DomainError: h = 0 with a negative exponent'),
    ('g', -0.0, 'DomainError: h = 0 with a negative exponent'),
    ('g_prime', -0.0, 'DomainError: h = 0 with a negative exponent'),
    ('source', -2.0, 'DomainError: h <= 0 with a non-integer exponent'),
    ('f', -2.0, 'DomainError: h <= 0 with a non-integer exponent'),
    ('g', -2.0, 'DomainError: h <= 0 with a non-integer exponent'),
    ('g_prime', -2.0, 'DomainError: h <= 0 with a non-integer exponent'),
    ('source', -1e-05, 'DomainError: h <= 0 with a non-integer exponent'),
    ('f', -1e-05, 'DomainError: h <= 0 with a non-integer exponent'),
    ('g', -1e-05, 'DomainError: h <= 0 with a non-integer exponent'),
    ('g_prime', -1e-05, 'DomainError: h <= 0 with a non-integer exponent'),
]


def _outcome(fn, x, message=False):
    try:
        return fn(x).hex()
    except (ArithmeticError, ValueError) as e:
        return f"{type(e).__name__}: {e}" if message else type(e).__name__


def _descriptors(params):
    return {"ode": traveling_ode(params, FRAME),
            "quad": first_integral(params, FRAME, C1)}


def test_table_covers_every_family_and_method():
    families = {f.name for f in FamilyLabel} - {"GenericTwoExponential"}
    assert set(PINNED) == {(f, m) for f in families for m in OWNER}


@pytest.mark.parametrize("family, method", sorted(PINNED))
def test_descriptor_bits(family, method):
    desc = _descriptors(family_params(FamilyLabel[family]))[OWNER[method]]
    xs = HS if method in H_METHODS else PSIS
    fn = getattr(desc, method)
    assert tuple(_outcome(fn, x) for x in xs) == PINNED[family, method]


#: each table form and the scalar method it equals element by element
TABLES = {"sources": "source", "sources_psi": "source_psi", "gs": "g",
          "gs_psi": "g_psi"}
#: added to HS and PSIS: signed zeros, negatives, NaN, infinities, 1e+-300
EDGES = (0.0, -0.0, -0.7, -1e-300, -1e300, 1e-300, 1e300, math.nan,
         math.inf, -math.inf)


#: beside the catalogued tuples: non-integral exponents, and an imaginary
#: pair whose two terms differ (sine-Gordon's are mirror images)
GENERIC_PARAMS = {"generic": EquationParams(1.0, 1.0, 1.5, -1.0),
                  "generic-imaginary": EquationParams(-0.5, 0.3, 1.0, -2.0,
                                                      imaginary_pair=True)}


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("family", sorted(
    {f for f, _ in PINNED}) + sorted(GENERIC_PARAMS))
def test_table_forms_equal_the_scalar_methods(family, table):
    params = GENERIC_PARAMS.get(family) or family_params(FamilyLabel[family])
    scalar = TABLES[table]
    desc = _descriptors(params)[OWNER[scalar]]
    fn, xs = getattr(desc, table), (HS if scalar in H_METHODS else PSIS) + EDGES
    expected = [_outcome(getattr(desc, scalar), x, True) for x in xs]
    # element by element, where the scalar raises the table raises the same
    assert [_outcome(lambda x: fn([x])[0], x, True) for x in xs] == expected
    # and in one call over every element that does not raise
    passing = [(x, e) for x, e in zip(xs, expected) if ":" not in e]
    assert [v.hex() for v in fn([x for x, _ in passing])] == [
        e for _, e in passing]


def test_generic_exceptions():
    descs = _descriptors(EquationParams(1.0, 1.0, 1.5, -1.0))
    for method, h, expected in GENERIC:
        assert _outcome(getattr(descs[OWNER[method]], method), h, True) == expected
