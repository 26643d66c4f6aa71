"""Asymptotic reduced coin states of discrete-time coined quantum walks.

The long-time coin state of any coined walk is fixed by one constant matrix
per walk (the k-integrated characteristic matrix); this package computes it
by Brillouin-zone quadrature for arbitrary walks and initial states, carries
the known closed forms for the general U(2) line walk, and cross-checks both
against a brute-force time-evolution simulator.
"""

from .asymptotics import (
    AsymptoticResult,
    eigenvalues_distributed_example,
    eigenvalues_entangled_example,
    eigenvalues_local_general,
    entropy_of_pair,
    rho_asymptotic,
    rho_distributed_example_closed,
    rho_from_characteristic,
    rho_local_closed,
)
from .characteristic import (
    QuadratureGrid,
    c_local,
    c_local_u2,
    c_of_k_u2,
    characteristic_at_k,
)
from .errors import (
    CoinWalkError,
    DegenerateDispersion,
    FormatError,
    InvalidArgument,
    NumericalFailure,
)
from .grammar import (
    parse_angle,
    parse_complex,
    parse_state,
    parse_walk_config,
)
from .linalg import DensityMatrix, von_neumann_entropy
from .simulate import cesaro_rho, rho_series
from .states import (
    BlochCoin,
    DistributedState,
    GeneralState,
    InitialState,
    LocalState,
    bloch_coin,
)
from .walk import U2Params, WalkSpec, build_uk, dispersion_gamma, line_walk, u2_coin

__version__ = "0.1.0"
