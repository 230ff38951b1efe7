"""Exact stationary states of the multispecies ASEP on a ring.

Three independent constructions of the stationary vector of each basic
sector (Markov-kernel null space, multiline-queue sums, matrix-product
traces of oscillator-valued layer operators), plus exact verification
of the algebraic identities that tie them together.
"""

from .asep_core import (
    Multiplicity,
    SectorBasis,
    SectorVector,
    basic_multiplicities,
    cyclic_shift,
    gillespie,
    markov_sector,
    stationary_kernel,
)
from .ctm import build_T, build_X, check_recursion, mp_stationary, mp_trace
from .mlq import (
    BallSystem,
    PairingOutcome,
    bigM_apply,
    enumerate_pairings,
    m_element,
    mlq_state,
    pairing_weight,
    project_pi,
)
from .oscillator import (
    FockTruncation,
    normal_order,
    s_element,
    s_weight,
    trace_qh,
)
from .scalar import Poly, RatFunc, random_point

__version__ = "0.1.0"
