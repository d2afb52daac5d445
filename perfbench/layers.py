"""Which hotcold functions the traced pass wraps, and the per-layer metrics.

The layers are the package's modules. Each span is patched on every module
attribute through which a workload reaches the function: the package's own
callers (``engine`` calling ``rssi``, ``cli`` calling ``run_scenario``) and the
benchmark's calls (``experiments.run_grid`` from the grid workload).
"""

from __future__ import annotations

from tracing import Patcher, Span, Tracer

# (span name, [(module name, attribute)])
TIMED_SPANS: list[tuple[str, list[tuple[str, str]]]] = [
    ("channel.rssi", [("engine", "rssi")]),
    ("geometry.advance", [("engine", "advance")]),
    ("geometry.rotate", [("engine", "rotate")]),
    ("tracker.ingest_sample", [("engine", "ingest_sample")]),
    ("trilateration.record_observation", [("engine", "record_observation")]),
    ("trilateration.update_estimate", [("engine", "update_estimate")]),
    ("trilateration.decide", [("engine", "trilateration_decide")]),
    ("trilateration.estimate_target", [("trilateration", "estimate_target")]),
    ("engine.step_world", [("engine", "step_world")]),
    ("engine.random_waypoint_step", [("engine", "random_waypoint_step")]),
    ("engine.sensor_reading_cm", [("engine", "sensor_reading_cm")]),
    ("engine.init_world", [("engine", "init_world")]),
    ("engine.compute_metrics", [("engine", "compute_metrics")]),
    ("engine.trace_csv_lines", [("engine", "trace_csv_lines")]),
    ("engine.run_simulation", [("experiments", "run_simulation"), ("cli", "run_simulation")]),
    ("analysis.rotation_sweep", [("analysis", "rotation_sweep")]),
    ("analysis.exhaustive_sweep", [("analysis", "exhaustive_sweep")]),
    ("analysis.verify_convergence", [("analysis", "verify_convergence")]),
    ("experiments.run_grid", [("experiments", "run_grid")]),
    ("experiments.run_scenario", [("cli", "run_scenario")]),
    (
        "experiments.write_figures",
        [("experiments", name) for name in (
            "write_grid_runs_csv", "write_sws_difference_csv", "write_sigma_comparison_csv",
            "write_rotation_sweep_csvs", "write_exhaustive_csv",
        )]
        + [("cli", "write_scenario_csv")],
    ),
    ("config.build_world", [("cli", "build_world")]),
    ("cli.main", [("cli", "main")]),
]

# Construction counters: dataclass __init__ looks __post_init__ up on the class.
OBJECT_COUNTERS = ("Vec2", "Pose")

# (metric, unit, numerator, denominator, scale, what it is). A numerator or
# denominator is (span, key): key "ns" is the span's total time, "self_ns" its
# self time, "calls" its call count, anything else one of its counters; the
# span None with key "passes" is the number of traced passes.
PASSES = (None, "passes")
PER_LAYER: list[tuple[str, str, tuple, tuple, float, str]] = [
    ("channel.rssi.calls", "count", ("channel.rssi", "calls"), PASSES, 1,
     "rssi samples per traced pass"),
    ("channel.rssi.us_per_call", "us", ("channel.rssi", "ns"), ("channel.rssi", "calls"), 1e3,
     "mean time of one rssi sample"),
    ("channel.in_range_frac", "frac", ("channel.rssi", "in_range"), ("channel.rssi", "calls"), 1,
     "in-range samples per rssi sample"),
    ("geometry.advance.calls", "count", ("geometry.advance", "calls"), PASSES, 1,
     "forward steps per traced pass"),
    ("geometry.advance.us_per_call", "us", ("geometry.advance", "ns"),
     ("geometry.advance", "calls"), 1e3, "mean time of one advance"),
    ("geometry.rotate.calls", "count", ("geometry.rotate", "calls"), PASSES, 1,
     "in-place turns per traced pass"),
    ("geometry.objects_per_cycle", "count", ("geometry.objects", "calls"),
     ("engine.step_world", "calls"), 1, "Vec2 plus Pose constructions per simulated cycle"),
    ("tracker.ingest_sample.calls", "count", ("tracker.ingest_sample", "calls"), PASSES, 1,
     "Hot-Cold samples per traced pass"),
    ("tracker.ingest_sample.us_per_call", "us", ("tracker.ingest_sample", "ns"),
     ("tracker.ingest_sample", "calls"), 1e3, "mean time of one Hot-Cold decision"),
    ("tracker.cold_turn_frac", "frac", ("tracker.ingest_sample", "cold_turns"),
     ("tracker.ingest_sample", "comparisons"), 1, "rotate decisions per window comparison"),
    ("trilateration.record_observation.us_per_call", "us",
     ("trilateration.record_observation", "ns"), ("trilateration.record_observation", "calls"),
     1e3, "mean time of one range fix"),
    ("trilateration.update_estimate.us_per_call", "us", ("trilateration.update_estimate", "ns"),
     ("trilateration.update_estimate", "calls"), 1e3, "mean time of one estimate refresh"),
    ("trilateration.decide.us_per_call", "us", ("trilateration.decide", "ns"),
     ("trilateration.decide", "calls"), 1e3, "mean time of one steering decision"),
    ("trilateration.solve_accept_frac", "frac", ("trilateration.estimate_target", "accepted"),
     ("trilateration.estimate_target", "calls"), 1, "non-None estimates per solve attempt"),
    ("engine.step_world.calls", "count", ("engine.step_world", "calls"), PASSES, 1,
     "simulated cycles per traced pass"),
    ("engine.step_world.us_per_call", "us", ("engine.step_world", "ns"),
     ("engine.step_world", "calls"), 1e3, "mean time of one cycle, children included"),
    ("engine.step_world.self_us", "us", ("engine.step_world", "self_ns"),
     ("engine.step_world", "calls"), 1e3, "mean self time of one cycle, traced children excluded"),
    ("engine.random_waypoint_step.us_per_call", "us", ("engine.random_waypoint_step", "ns"),
     ("engine.random_waypoint_step", "calls"), 1e3, "mean time of one target mobility step"),
    ("engine.sensor_reading_cm.us_per_call", "us", ("engine.sensor_reading_cm", "ns"),
     ("engine.sensor_reading_cm", "calls"), 1e3, "mean time of one obstacle sensor reading"),
    ("engine.init_world.us_per_call", "us", ("engine.init_world", "ns"),
     ("engine.init_world", "calls"), 1e3, "mean time to set up one world"),
    ("engine.compute_metrics.us_per_cycle", "us", ("engine.compute_metrics", "ns"),
     ("engine.compute_metrics", "cycles"), 1e3, "KPI computation time per trace record"),
    ("engine.trace_csv_lines.us_per_cycle", "us", ("engine.trace_csv_lines", "ns"),
     ("engine.trace_csv_lines", "cycles"), 1e3, "trace CSV formatting time per trace record"),
    ("engine.trace_bytes", "bytes", ("engine.trace_csv_lines", "bytes"),
     ("engine.trace_csv_lines", "calls"), 1, "mean size of one formatted trace"),
    ("analysis.rotation_sweep.s", "s", ("analysis.rotation_sweep", "ns"),
     ("analysis.rotation_sweep", "calls"), 1e9, "mean time of one rotation_sweep call"),
    ("analysis.exhaustive_sweep.s", "s", ("analysis.exhaustive_sweep", "ns"),
     ("analysis.exhaustive_sweep", "calls"), 1e9, "mean time of one exhaustive_sweep call"),
    ("analysis.exhaustive.element_steps", "count", ("analysis.exhaustive_sweep", "element_steps"),
     ("analysis.exhaustive_sweep", "calls"), 1, "trajectory steps of one exhaustive sweep"),
    ("analysis.exhaustive.ns_per_element_step", "ns", ("analysis.exhaustive_sweep", "ns"),
     ("analysis.exhaustive_sweep", "element_steps"), 1,
     "exhaustive_sweep time per trajectory step"),
    ("analysis.verify_convergence.s", "s", ("analysis.verify_convergence", "ns"),
     ("analysis.verify_convergence", "calls"), 1e9, "mean time of one verify_convergence call"),
    ("experiments.run_grid.s", "s", ("experiments.run_grid", "ns"),
     ("experiments.run_grid", "calls"), 1e9, "mean time of one run_grid call"),
    ("experiments.write_figures.s", "s", ("experiments.write_figures", "ns"), PASSES, 1e9,
     "time in the CSV/JSON figure writers per traced pass"),
    ("experiments.run_scenario.s", "s", ("experiments.run_scenario", "ns"),
     ("experiments.run_scenario", "calls"), 1e9, "mean time of one run_scenario call"),
    ("config.build_world.us_per_call", "us", ("config.build_world", "ns"),
     ("config.build_world", "calls"), 1e3, "mean time of one build_world call"),
    ("cli.main.simulate.s", "s", ("cli.main.simulate", "ns"), ("cli.main.simulate", "calls"),
     1e9, "mean time of one in-process `simulate` command"),
    ("cli.main.scenario.s", "s", ("cli.main.scenario", "ns"), ("cli.main.scenario", "calls"),
     1e9, "mean time of one in-process `scenario` command"),
]
OVERHEAD = [
    ("trace.overhead_s", "s", "median traced pass minus median untraced pass"),
    ("trace.overhead_frac", "frac", "trace.overhead_s over the median untraced pass"),
]
PER_LAYER_UNITS = {m[0]: m[1] for m in PER_LAYER} | {name: unit for name, unit, _ in OVERHEAD}


def element_steps(result) -> int:
    """Trajectory steps of an exhaustive sweep, derived from its result.

    Every start is stepped until it is within the smallest tau, so the
    smallest-tau cell means times the number of starts count every step.
    Exact when no trajectory hit the step cap.
    """
    taus = sorted({c.tau for c in result.cells})
    phis = sorted(result.overall_means)
    starts = result.total_runs // (len(taus) * len(phis))
    return sum(round(result.cell(phi, taus[0]).mean_steps * starts) for phi in phis)


def install(hc, tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every traced function of the package for one traced pass."""
    modules = {name: getattr(hc, name) for name in (
        "engine", "experiments", "cli", "analysis", "config", "trilateration",
    )}
    rotate_kind = hc.tracker.DecisionKind.ROTATE_THEN_MOVE

    def cli_span_name(args: tuple) -> str:
        argv = args[0] if args else None
        command = next((a for a in argv or () if a in hc.cli.COMMANDS), "unknown")
        return f"cli.main.{command}"

    def in_range(span: Span, args, token, result) -> None:
        if result.in_range:
            span.add("in_range")

    def hotcold_decision(span: Span, args, comparisons_before, result) -> None:
        if args[0].comparisons > comparisons_before:
            span.add("comparisons")
            if result.kind is rotate_kind:
                span.add("cold_turns")

    def accepted(span: Span, args, token, result) -> None:
        if result is not None:
            span.add("accepted")

    def records(span: Span, args, token, result) -> None:
        span.add("cycles", len(args[0]))

    def trace_lines(span: Span, args, token, result) -> None:
        span.add("cycles", len(args[0]))
        span.add("bytes", sum(map(len, result)) + len(result))  # joined by and ended with "\n"

    def sweep_steps(span: Span, args, token, result) -> None:
        span.add("element_steps", element_steps(result))

    hooks = {
        "channel.rssi": (None, in_range),
        "tracker.ingest_sample": (lambda args: args[0].comparisons, hotcold_decision),
        "trilateration.estimate_target": (None, accepted),
        "engine.compute_metrics": (None, records),
        "engine.trace_csv_lines": (None, trace_lines),
        "analysis.exhaustive_sweep": (None, sweep_steps),
    }
    for name, sites in TIMED_SPANS:
        pre, post = hooks.get(name, (None, None))
        label = cli_span_name if name == "cli.main" else name
        for module_name, attr in sites:
            owner = modules[module_name]
            patcher.patch(owner, attr, tracer.wrap(label, getattr(owner, attr), pre, post))
    for cls_name in OBJECT_COUNTERS:
        cls = getattr(hc.geometry, cls_name)
        patcher.patch(cls, "__post_init__", tracer.counter("geometry.objects", cls.__post_init__))


def per_layer_metrics(
    tracer: Tracer, traced_passes: int, traced_wall_s: float, untraced_wall_s: float
) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer values, plus a reason for every metric with nothing to divide by.

    The pass times are medians of traced and untraced passes that took
    turns within one run, so both kinds saw the host at the same speeds."""

    def part(span_name: str | None, key: str) -> float:
        if span_name is None:
            return traced_passes
        span = tracer.spans.get(span_name) or Span(span_name)
        if key == "ns":
            return span.total_ns
        if key == "self_ns":
            return span.total_ns - span.child_ns
        if key == "calls":
            return span.calls
        return span.counts.get(key, 0)

    values: dict[str, float] = {}
    missing: dict[str, str] = {}
    for name, _, num, den, scale, _ in PER_LAYER:
        calls, base = part(num[0], "calls"), part(*den)
        if calls and base:
            values[name] = part(*num) / scale / base
        else:
            values[name] = 0.0
            missing[name] = f"{num[0]} not called" if not calls else f"{den[0]} has no {den[1]}"
    overhead = traced_wall_s - untraced_wall_s
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / untraced_wall_s
    return values, missing
