"""Discrete-event steady-state stream simulator (allocation validation substrate)."""

from .engine import StreamSimulator
from .metrics import SimulationReport
from .processor import ProcessorInstance, ProcessorPool
from .scenarios import (
    DEFAULT_SCENARIO,
    ArrivalProcess,
    BatchArrivals,
    BurstyArrivals,
    DeterministicArrivals,
    FailureWindow,
    PoissonArrivals,
    ScenarioSpec,
    arrival_process_from_dict,
    parse_arrival_spec,
)
from .validate import ValidationResult, simulate_allocation, static_check, validate_allocation

__all__ = [
    "StreamSimulator",
    "SimulationReport",
    "ProcessorInstance",
    "ProcessorPool",
    "ArrivalProcess",
    "DeterministicArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "BatchArrivals",
    "arrival_process_from_dict",
    "parse_arrival_spec",
    "FailureWindow",
    "ScenarioSpec",
    "DEFAULT_SCENARIO",
    "ValidationResult",
    "simulate_allocation",
    "static_check",
    "validate_allocation",
]
