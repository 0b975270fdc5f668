"""Simulator of the synchronous CONGEST model and its sleeping variant.

One engine loop serves two runner classes sharing the
:class:`NodeAlgorithm`/:class:`Context`/:class:`Inbox` API: the
synchronous :class:`Runner` (lock-step rounds, the model the paper's
guarantees are stated in) and :class:`EventRunner`, the same loop with
per-edge latency models and bandwidth/duration stopping conditions.
Under the default unit latency model the two run the same code path;
:func:`make_runner` plus the :func:`simulation_engine` context select
the engine library-wide.  :class:`ReferenceRunner` is the separate,
deliberately simple oracle the differential tests compare against.

Both engines honor the seeded fault plane of :mod:`repro.sim.faults`
(message drop/duplication, node crash-restart) — installed per run via
``simulation_engine(..., faults=...)`` and metered into :class:`Metrics`.
"""

from .metrics import Metrics
from .kernels import (
    BatchKernel,
    available_backends,
    current_backend,
    default_backend,
    set_backend,
    use_backend,
)
from .runner import Context, Inbox, Mode, NodeAlgorithm, Runner, SimulationError
from .reference import ReferenceRunner
from .trace import TracingMetrics
from .faults import FaultModel, canonical_fault, parse_fault_model
from .events import (
    EdgeTableLatency,
    EngineStats,
    EventRunner,
    LatencyModel,
    RandomDelayLatency,
    UniformLatency,
    canonical_latency,
    current_engine,
    current_faults,
    fault_horizon_factor,
    latency_bound,
    make_runner,
    parse_latency_model,
    simulation_engine,
)

__all__ = [
    "Metrics",
    "TracingMetrics",
    "Context",
    "Inbox",
    "Mode",
    "NodeAlgorithm",
    "Runner",
    "ReferenceRunner",
    "SimulationError",
    "EventRunner",
    "LatencyModel",
    "UniformLatency",
    "RandomDelayLatency",
    "EdgeTableLatency",
    "parse_latency_model",
    "canonical_latency",
    "FaultModel",
    "parse_fault_model",
    "canonical_fault",
    "EngineStats",
    "simulation_engine",
    "current_engine",
    "current_faults",
    "fault_horizon_factor",
    "latency_bound",
    "make_runner",
    "BatchKernel",
    "available_backends",
    "current_backend",
    "default_backend",
    "set_backend",
    "use_backend",
]
