"""Exception hierarchy for the ``repro`` library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class GraphError(ReproError):
    """Raised for malformed graphs or invalid graph operations."""


class CongestError(ReproError):
    """Raised for violations of the CONGEST simulation contract."""


class BandwidthExceededError(CongestError):
    """Raised (in strict mode) when a message exceeds the per-round budget."""

    def __init__(self, round_index: int, edge: tuple, bits: int, budget: int):
        self.round_index = round_index
        self.edge = edge
        self.bits = bits
        self.budget = budget
        super().__init__(
            f"round {round_index}: message on edge {edge} uses {bits} bits, "
            f"budget is {budget} bits"
        )


class ProtocolError(ReproError):
    """Raised when a node program violates the scheduler protocol."""


class ConfigurationError(ReproError):
    """Raised for invalid user-supplied parameters (k, epsilon, ...)."""
