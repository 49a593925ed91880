"""Collective-spin squeezing simulator in the Dicke basis.

Core layers: dicke (states, spin action, rotations), hamiltonians (quadratic
generators as (cz, cx, cy) triples, the drive), propagator (evolution
engines), protocols (pulse and drive schedules with freeze), diagnostics
(squeezing observables), cli (scenario runner and figure-data emission).
"""

from .dicke import (
    DickeState,
    RotationSpec,
    fidelity,
    make_css,
    make_dicke_state,
    rotate,
)
from .errors import DegenerateDirectionError, DomainError, ResourceError

__version__ = "0.1.0"
