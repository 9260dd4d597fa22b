"""Discrete-event simulation infrastructure: event loop, churn, faults, metrics."""

from .churn import ChurnProcess, ChurnStats
from .event_loop import EventHandle, EventLoop, Ticker
from .faults import (
    FaultController,
    FaultEvent,
    FaultSchedule,
    GilbertElliott,
    LinkConditioner,
    burst_loss,
    clear_burst_loss,
    crash,
    heal,
    latency_spike,
    partition,
    restart,
)
from .metrics import BandwidthMeter, ConsistencyOracle, LookupRecord, LookupTracker
from .monitors import (
    FailureDetectorMonitor,
    LookupHealthMonitor,
    Monitor,
    MonitorAlarm,
    MonitorRunner,
    Observation,
    RingInvariantMonitor,
    RobustnessReport,
    StagnationMonitor,
)
from .shards import ShardedEventLoop, lookahead_for
from .workload import LookupWorkload

__all__ = [
    "EventLoop",
    "EventHandle",
    "Ticker",
    "ShardedEventLoop",
    "lookahead_for",
    "ChurnProcess",
    "ChurnStats",
    "BandwidthMeter",
    "ConsistencyOracle",
    "LookupRecord",
    "LookupTracker",
    "LookupWorkload",
    "FaultController",
    "FaultEvent",
    "FaultSchedule",
    "GilbertElliott",
    "LinkConditioner",
    "partition",
    "heal",
    "burst_loss",
    "clear_burst_loss",
    "latency_spike",
    "crash",
    "restart",
    "Monitor",
    "MonitorAlarm",
    "MonitorRunner",
    "Observation",
    "RingInvariantMonitor",
    "FailureDetectorMonitor",
    "StagnationMonitor",
    "LookupHealthMonitor",
    "RobustnessReport",
]
