"""Shared constants, units, and errors."""

from repro.common import params, units
from repro.common.errors import (AddressError, AlignmentError, ConfigError,
                                 ProtectionFault, ReproError, SimulationError)

__all__ = [
    "params", "units", "ReproError", "ConfigError", "SimulationError",
    "AddressError", "ProtectionFault", "AlignmentError",
]
