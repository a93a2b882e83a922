"""Simulation-based assertion checking (dynamic ABV).

The paper motivates formal RTL checking by noting that "dynamic testing
of a design in simulation will by definition be incomplete and not
capture all possible interleavings, even for the tested programs" (§1).
This module provides that baseline: drive the design with random
arbiter schedules, enforce the generated assumptions as trace filters,
and monitor the generated assertions on each concrete trace.

It uses the same monitors as the formal explorer, so a violation found
in simulation is exactly a (lucky) counterexample — and the benchmark
harness quantifies the luck: the explorer finds the V-scale bug
deterministically, while random simulation needs hundreds to thousands
of schedules to stumble on an exposing interleaving.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.rtl.design import Design, Frame
from repro.sva.ast import Directive
from repro.sva.monitor import AssumptionChecker, PropertyMonitor


@dataclass
class SimulationReport:
    """Outcome of a random-simulation campaign."""

    schedules_run: int = 0
    cycles_simulated: int = 0
    #: Traces truncated because an assumption's consequent failed (the
    #: run up to that cycle is still a valid constrained trace).
    truncated_traces: int = 0
    #: assertion name -> number of schedules on which it was violated.
    violations: Dict[str, int] = field(default_factory=dict)
    #: First schedule index (0-based) that violated any assertion.
    first_violation_schedule: Optional[int] = None
    #: The violating trace, for replay/diagnosis.
    first_violation_trace: Optional[List[Frame]] = None

    @property
    def bug_found(self) -> bool:
        return bool(self.violations)

    def summary(self) -> str:
        if not self.bug_found:
            return (
                f"{self.schedules_run} random schedules, "
                f"{self.cycles_simulated} cycles: no assertion violated"
            )
        names = ", ".join(sorted(self.violations))
        return (
            f"{self.schedules_run} random schedules: violations of [{names}] "
            f"(first on schedule {self.first_violation_schedule})"
        )


def simulate_check(
    design: Design,
    assumptions: Sequence[Directive],
    assertions: Sequence[Directive],
    num_schedules: int = 100,
    max_cycles: int = 60,
    seed: int = 0,
    stop_on_violation: bool = True,
) -> SimulationReport:
    """Run a random-schedule simulation campaign.

    Each schedule draws the free inputs uniformly per cycle.  A frame
    that violates an assumption truncates the trace at that cycle (the
    prefix is still a legal constrained execution).  Every assertion is
    then monitored over the trace; pending verdicts at the end of a
    finite trace count as passes (weak semantics).
    """
    rng = random.Random(seed)
    checker = AssumptionChecker(assumptions)
    monitors = [PropertyMonitor(d) for d in assertions]
    input_space = design.input_space()
    report = SimulationReport()

    for schedule_index in range(num_schedules):
        trace: List[Frame] = []
        design.reset()
        for cycle in range(max_cycles):
            inputs = rng.choice(input_space)
            frame = design.eval_comb(inputs)
            frame["first"] = 1 if cycle == 0 else 0
            report.cycles_simulated += 1
            if not checker.frame_ok(frame):
                report.truncated_traces += 1
                break
            design.tick()
            trace.append(frame)
        report.schedules_run += 1

        violated_here = False
        for monitor in monitors:
            state = monitor.initial()
            verdict = None
            for frame in trace:
                state = monitor.step(state, frame)
                verdict = monitor.verdict(state)
                if verdict is not None:
                    break
            if verdict is False:
                name = monitor.directive.name
                report.violations[name] = report.violations.get(name, 0) + 1
                violated_here = True
        if violated_here and report.first_violation_schedule is None:
            report.first_violation_schedule = schedule_index
            report.first_violation_trace = trace
            if stop_on_violation:
                break
    return report
