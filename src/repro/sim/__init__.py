"""Synchronous distributed-system simulator substrate.

Round-based engine, topology model, fault injection, multi-path routing and
hardware-clock simulation.  The agreement protocols in :mod:`repro.core`
and the clock-synchronization algorithms in :mod:`repro.clocksync` run on
top of this package.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "engine": ("FaultInjector", "SynchronousEngine"),
    "faults": (
        "ByzantineRelayInjector", "CrashInjector", "MessageCorruptor",
        "OmissionInjector", "SpuriousTimeoutInjector", "behavior_injectors",
    ),
    "messages": ("ClockReadingPayload", "Envelope", "Message", "RelayPayload"),
    "network": ("Topology",),
    "multiplex": ("MultiplexProcess", "run_concurrent_agreements"),
    "node": ("IdleProcess", "Process", "RecordingProcess", "ScriptedProcess"),
    "routing": (
        "RoutedTransport", "constant_corruptor", "partition_corruptor",
        "silent_corruptor",
    ),
    "trace": ("EventKind", "EventTrace", "TraceEvent"),
})
