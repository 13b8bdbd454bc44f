"""Lorentz quantum computation toolkit: simulator, gate synthesis, and the
hyperbolic search algorithm for registers of qubits and hybits."""

from .core import (
    EPS_ISO,
    EPS_RECON,
    BitKind,
    GuardError,
    IsometryError,
    LqcError,
    RegisterLayout,
    StateVector,
    basis_state,
    metric_vector,
    normalize,
    pseudo_norm,
)

__all__ = [
    "EPS_ISO",
    "EPS_RECON",
    "BitKind",
    "GuardError",
    "IsometryError",
    "LqcError",
    "RegisterLayout",
    "StateVector",
    "basis_state",
    "metric_vector",
    "normalize",
    "pseudo_norm",
]

__version__ = "0.1.0"
