"""Synchronous distributed-system simulator substrate.

Round-based engine, topology model, fault injection, multi-path routing and
hardware-clock simulation.  The agreement protocols in :mod:`repro.core`
and the clock-synchronization algorithms in :mod:`repro.clocksync` run on
top of this package.
"""

from repro.sim.engine import FaultInjector, SynchronousEngine
from repro.sim.faults import (
    ByzantineRelayInjector,
    CrashInjector,
    MessageCorruptor,
    OmissionInjector,
    SpuriousTimeoutInjector,
    behavior_injectors,
)
from repro.sim.messages import ClockReadingPayload, Envelope, Message, RelayPayload
from repro.sim.network import Topology
from repro.sim.multiplex import MultiplexProcess, run_concurrent_agreements
from repro.sim.node import IdleProcess, Process, RecordingProcess, ScriptedProcess
from repro.sim.routing import (
    RoutedTransport,
    constant_corruptor,
    partition_corruptor,
    silent_corruptor,
)
from repro.sim.trace import EventKind, EventTrace, TraceEvent

__all__ = [
    "ByzantineRelayInjector",
    "ClockReadingPayload",
    "CrashInjector",
    "Envelope",
    "EventKind",
    "EventTrace",
    "FaultInjector",
    "IdleProcess",
    "Message",
    "MessageCorruptor",
    "MultiplexProcess",
    "OmissionInjector",
    "Process",
    "RecordingProcess",
    "RelayPayload",
    "RoutedTransport",
    "run_concurrent_agreements",
    "ScriptedProcess",
    "SpuriousTimeoutInjector",
    "SynchronousEngine",
    "Topology",
    "TraceEvent",
    "behavior_injectors",
    "constant_corruptor",
    "partition_corruptor",
    "silent_corruptor",
]
