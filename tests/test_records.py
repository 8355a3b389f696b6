"""Record classes: each constructor keeps every check it makes, with its
message, and a record compares, hashes and prints by its field values."""

import math

import numpy as np
import pytest

from cvoodg import oracle, state_bounds as sb
from cvoodg.coherent_bounds import InDistributionGuarantee
from cvoodg.cvcore import FockMatrix, GaussianChannel

_I = np.eye(2)
_ZERO = np.zeros((2, 2))

#: One bad argument per check of each record class, and the message of the
#: ValueError it raises.
BAD_RECORDS = {
    "channel_d_shape": (lambda: GaussianChannel(np.zeros(3), _I, _ZERO),
                        "expected shape (2,), got (3,)"),
    "channel_M_shape": (lambda: GaussianChannel(np.zeros(2), np.eye(3), _ZERO),
                        "expected shape (2, 2), got (3, 3)"),
    "channel_N_shape": (lambda: GaussianChannel(np.zeros(2), _I, np.zeros(2)),
                        "expected shape (2, 2), got (2,)"),
    "channel_N_symmetric": (lambda: GaussianChannel(np.zeros(2), _I, [[1.0, 0.5], [0.0, 1.0]]),
                            "noise matrix N must be symmetric"),
    "channel_N_psd": (lambda: GaussianChannel(np.zeros(2), _I, -_I),
                      "noise matrix N must be positive semidefinite"),
    "channel_det": (lambda: GaussianChannel(np.zeros(2), 2.0 * _I, _ZERO),
                    "channel violates det N >= (det M - 1)^2: "
                    "det N = 0.000e+00, (det M - 1)^2 = 9.000e+00"),
    "fock_matrix_square": (lambda: FockMatrix(np.zeros((2, 3))),
                           "entries must be a square matrix, got shape (2, 3)"),
    "fock_matrix_finite": (lambda: FockMatrix([[math.inf, 0.0], [0.0, 0.0]]),
                           "Fock matrix entries must be finite"),
    "fock_matrix_hermitian": (lambda: FockMatrix([[0.5, 0.1], [0.2, 0.5]]),
                              "Fock matrix must be Hermitian"),
    "fock_matrix_trace": (lambda: FockMatrix(_I), "trace 2.0 outside [0, 1]"),
    "fock_matrix_psd": (lambda: FockMatrix(np.diag([1.5, -0.5])),
                        "Fock matrix has a significantly negative eigenvalue"),
    "guarantee_eps0": (lambda: InDistributionGuarantee(2.5, 1.0),
                       "eps0 must lie in [0, 2], got 2.5"),
    "guarantee_tau": (lambda: InDistributionGuarantee(0.1, 1e200),
                      "tau must be positive with tau^2 positive and finite, got 1e+200"),
    "pair_guarantee": (lambda: oracle.ChannelPairSample("phase_rotation", math.pi, 0.1, 1.0),
                       "pair exceeds its declared guarantee: achieved "
                       "1.9815997185216452 > 0.1"),
    "profile_negativity": (lambda: sb.NegativityProfile(-1.0, 0.0, 0.0),
                           "negativity must be non-negative"),
    "profile_partial_nbar": (lambda: sb.NegativityProfile(0.0, 1.0, -1.0),
                             "partial mean photon numbers must be non-negative"),
    "profile_overflow": (lambda: sb.NegativityProfile(1e308, 1.0, 0.0),
                         "profile overflows: state energy 1e+308 and mu_P inf must be finite"),
    "profile_energy": (lambda: sb.NegativityProfile(1.0, 0.0, 1.0),
                       "profile implies negative state energy -1.0"),
    "classical_nbar": (lambda: sb.Classical(-1.0), "nbar must be non-negative"),
    "spat_q": (lambda: sb.SPAT(0.0), "SPAT requires q > 0"),
    "spat_finite": (lambda: sb.SPAT(1e308),
                    "SPAT requires a finite mean photon number 1 + 2q, got q 1e+308"),
    "fock_index": (lambda: sb.Fock(1.5), "Fock index must be a non-negative integer"),
    "squeezed_vacuum_lambda": (lambda: sb.SqueezedVacuum(1.0),
                               "squeezed vacuum requires lambda in (0, 1)"),
    "energy_only_nbar": (lambda: sb.EnergyOnly(-1.0), "nbar must be non-negative"),
    "params_s": (lambda: sb.ExtensionParams(s=0.5), "s must lie in [0, 1/2), got 0.5"),
    "params_M": (lambda: sb.ExtensionParams(M=0), "M must be a positive integer, got 0"),
    "params_kappa": (lambda: sb.ExtensionParams(kappa=1.0), "kappa must exceed 1, got 1.0"),
}


@pytest.mark.parametrize("build, message", BAD_RECORDS.values(), ids=BAD_RECORDS)
def test_each_check_keeps_its_message(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_records_compare_hash_and_print_by_value():
    assert sb.Fock(2) == sb.Fock(2)
    assert hash(sb.Fock(2)) == hash(sb.Fock(2))
    assert sb.Fock(2) != sb.Fock(3)
    # Same field value, other class.
    assert sb.Classical(2.0) != sb.EnergyOnly(2.0)
    assert repr(sb.ExtensionParams(s=0.25, M=3)) == "ExtensionParams(s=0.25, M=3, kappa=None)"
    assert repr(InDistributionGuarantee(eps0=0.1, tau=1.0)) == (
        "InDistributionGuarantee(eps0=0.1, tau=1.0)"
    )


def test_each_report_holds_its_own_intermediates():
    first, second = sb.BoundReport(1.0, "trivial"), sb.BoundReport(1.0, "trivial")
    first.intermediate["curve_value"] = 0.5
    assert second.intermediate == {}


def test_pair_records_its_achieved_guarantee():
    pair = oracle.ChannelPairSample("phase_rotation", 0.01, 0.1, 1.0)
    assert pair.achieved_eps0 == oracle.exact_coherent_distance(pair, 1.0)
    assert 0.0 < pair.achieved_eps0 <= 0.1
