"""passlab: passivity certification for linear time-invariant systems.

Decides passivity from either a polynomial-matrix pair (P, Q) with
P(d/dt) i = Q(d/dt) v, or a state-space quadruple (A, B, C, D), and
produces machine-checkable certificates (Lur'e triples, spectral
factors, controllable/autonomous decompositions, passive input-output
partitions) or concrete witnesses of non-passivity.
"""

from .behavior import Decomposition, Partition, decompose, passive_partition
from .certificate import (Certificate, CertifyResult, are_solve,
                          construct_certificate, spectral_factor_poly,
                          verify_certificate)
from .numeric import Tolerance
from .poly import Poly, TwoVarPoly, bdf_phi
from .polymatrix import PolyMat
from .prpair import PRPairVerdict, check_pair
from .signals import Signal, parse_signal
from .statespace import (StateSpace, Trajectory, realize_behavior,
                         realize_statespace, simulate, storage_check)

__version__ = "0.1.0"

__all__ = [
    "Certificate", "CertifyResult", "Decomposition", "PRPairVerdict",
    "Partition", "Poly", "PolyMat", "Signal", "StateSpace", "Tolerance",
    "Trajectory", "TwoVarPoly", "are_solve", "bdf_phi", "check_pair",
    "construct_certificate", "decompose", "parse_signal", "passive_partition",
    "realize_behavior", "realize_statespace", "simulate",
    "spectral_factor_poly", "storage_check", "verify_certificate",
]
