"""A run's whole trace, kept through run_simulation's sink, and a world
that keeps its trace while it is stepped by hand."""

from hotcold.engine import (
    CycleRecord, MetricsReport, WorldConfig, WorldState, init_world, run_simulation,
)


def traced_run(config: WorldConfig) -> tuple[MetricsReport, list[CycleRecord]]:
    """The run's metrics and every CycleRecord of it, in order."""
    trace: list[CycleRecord] = []
    return run_simulation(config, sink=trace.extend), trace


def traced_world(config: WorldConfig) -> WorldState:
    """init_world(config), keeping each stepped cycle's CycleRecord in state.trace."""
    state = init_world(config)
    state.trace = []
    return state
