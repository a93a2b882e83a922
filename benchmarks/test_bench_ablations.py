"""Ablation benchmarks for RTLCheck's design choices.

The paper motivates three translation mechanisms with semantics
arguments (§3.3, §3.4, §4.1); these ablations demonstrate each is
load-bearing by disabling it:

1. **Delay-cycle event exclusion (§3.3/§4.3)** — mapping µhb edges with
   standard unbounded SVA delays (``##[0:$] src ##[1:$] dst``) lets the
   delay swallow out-of-order events: the naive encoding misses the
   V-scale bug that the strict encoding catches.
2. **Match-attempt filtering (§3.4/§4.4)** — without the ``first |->``
   guard, SVA starts a match attempt every cycle, and attempts anchored
   after an event has passed fail spuriously on correct designs.
3. **Final-value assumptions (§4.1)** — removing the covering-trace
   shortcut forces every test through the proof phase, inflating
   runtime for the tests whose outcome is simply unreachable.
4. **µspec axiom coverage** — dropping the memory-pipelining axiom from
   the model weakens microarchitectural verification until forbidden
   outcomes appear observable.
"""

from conftest import save_table

from repro import RTLCheck, get_test, paper_suite
from repro.core.assertions import AssertionGenerator
from repro.litmus import compile_test
from repro.mapping import MultiVScaleNodeMapping, MultiVScaleProgramMapping
from repro.memodel import sc_allowed
from repro.rtl import Simulator
from repro.sva import (
    AssumptionChecker,
    BConst,
    PSeq,
    PropertyMonitor,
    SBool,
    SRepeat,
    run_monitor_on_trace,
    scat,
)
from repro.uhb import microarch_observable
from repro.uspec import multi_vscale_model, parse_uspec, model_source
from repro.verifier import FAILED, GraphExplorer, PROVEN
from repro.verifier.config import EXPLORER_BUDGET
from repro.vscale import MultiVScale


class NaiveAssertionGenerator(AssertionGenerator):
    """§3.3's straw-man: unbounded delays instead of event exclusion."""

    def _edge_property(self, edge, env):
        seq = scat(
            SRepeat(BConst(True), 0, None),
            SBool(self._map(edge.src, env)),
            SRepeat(BConst(True), 0, None),
            SBool(self._map(edge.dst, env)),
        )
        return PSeq(seq)


def _explorer_for(compiled, variant):
    design = MultiVScale(compiled, variant)
    checker = AssumptionChecker(
        MultiVScaleProgramMapping(compiled).all_assumptions()
    )
    return GraphExplorer(design, checker)


def test_ablation_naive_delay_encoding_misses_the_bug(benchmark, results_dir):
    model = multi_vscale_model()
    compiled = compile_test(get_test("mp"))
    node_mapping = MultiVScaleNodeMapping(compiled)

    def run(generator_cls):
        generator = generator_cls(
            model=model, compiled=compiled, node_mapping=node_mapping
        )
        explorer = _explorer_for(compiled, "buggy")
        verdicts = {}
        for directive in generator.generate():
            if "Read_Values" not in directive.name:
                continue
            result = explorer.check_property(
                PropertyMonitor(directive), EXPLORER_BUDGET
            )
            verdicts[directive.name] = result.verdict
        return verdicts

    def both():
        return run(AssertionGenerator), run(NaiveAssertionGenerator)

    strict, naive = benchmark.pedantic(both, rounds=1, iterations=1)
    lines = [
        "Ablation 1 (paper §3.3): edge mapping with vs without",
        "delay-cycle event exclusion, checked on the buggy memory",
        "",
        f"{'Read_Values property':32s} {'strict':>8s} {'naive':>8s}",
    ]
    for name in strict:
        lines.append(f"{name:32s} {strict[name]:>8s} {naive.get(name, '-'):>8s}")
    lines += [
        "",
        "The naive ##[0:$] encoding never empties its NFA, so the",
        "reversed-order counterexample goes unnoticed — 'this naive",
        "property would incorrectly' miss the RTL bug (paper §3.3).",
    ]
    save_table(results_dir, "ablation_delay_encoding.txt", "\n".join(lines))
    assert FAILED in strict.values()
    assert FAILED not in naive.values()


def test_ablation_match_attempt_filtering(benchmark, results_dir):
    """§3.4: without `first |->`, match attempts anchored mid-execution
    fail on a perfectly correct design."""
    compiled = compile_test(get_test("mp"))
    model = multi_vscale_model()
    generator = AssertionGenerator(
        model=model,
        compiled=compiled,
        node_mapping=MultiVScaleNodeMapping(compiled),
    )
    directive = next(
        d for d in generator.generate() if "Instruction_Path" in d.name
    )

    def run():
        soc = MultiVScale(compiled, "fixed")
        sim = Simulator(soc)
        for _ in range(40):
            sim.step({"arb_select": 0})
            if soc.drained():
                break
        trace = sim.trace
        monitor = PropertyMonitor(directive)
        anchored, _ = run_monitor_on_trace(monitor, trace)
        # Unfiltered semantics: one attempt per start cycle; the
        # property holds only if every attempt holds.
        attempt_verdicts = []
        for start in range(len(trace)):
            verdict, _ = run_monitor_on_trace(monitor, trace[start:])
            attempt_verdicts.append(verdict)
        return anchored, attempt_verdicts

    anchored, attempts = benchmark(run)
    spurious = sum(1 for v in attempts[1:] if v is False)
    lines = [
        "Ablation 2 (paper §3.4): match-attempt filtering",
        "",
        f"anchored attempt (with first |->):  {anchored}",
        f"attempts without filtering:         {len(attempts)}",
        f"spuriously failing late attempts:   {spurious}",
        "",
        "A µhb axiom is enforced once per execution; unfiltered SVA",
        "attempts that begin after the instruction's events have passed",
        "can never match and would flag a correct design.",
    ]
    save_table(results_dir, "ablation_match_filtering.txt", "\n".join(lines))
    assert anchored is not False
    assert spurious > 0


def test_ablation_final_value_assumption_speedup(benchmark, results_dir):
    """§4.1: 'a final value assumption forces JasperGold to try and find
    a covering trace of the litmus test outcome, possibly leading to
    quicker verification'."""
    rtlcheck = RTLCheck()
    names = ["mp", "lb", "sb", "co-mp", "safe000", "podwr000"]

    def run():
        rows = []
        for name in names:
            test = get_test(name)
            with_cover = rtlcheck.verify_test(test)
            without = rtlcheck.verify_test(test, skip_cover_shortcut=True)
            rows.append((name, with_cover.modeled_hours, without.modeled_hours))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Ablation 3 (paper §4.1): final-value covering-trace shortcut",
        "",
        f"{'test':12s} {'with shortcut':>14s} {'without':>10s} {'speedup':>8s}",
    ]
    for name, with_h, without_h in rows:
        lines.append(
            f"{name:12s} {with_h:>13.2f}h {without_h:>9.2f}h "
            f"{without_h / max(with_h, 1e-9):>7.1f}x"
        )
    save_table(results_dir, "ablation_final_value.txt", "\n".join(lines))
    assert all(with_h <= without_h for _name, with_h, without_h in rows)
    assert any(without_h / with_h > 5 for _name, with_h, without_h in rows)


def test_ablation_dropped_axiom_weakens_microarch_model(benchmark, results_dir):
    """Axiom ablation at the Check layer, in both failure directions:

    * dropping ``Fetch_FIFO`` (the in-order pipeline) lets forbidden
      outcomes *escape* — the model no longer forbids what the hardware
      forbids;
    * dropping ``Mem_WB_Follows_DX`` (the pipelined memory ordering that
      justifies reads-from edges) makes SC-*allowed* outcomes appear
      unobservable — the model becomes over-strict, so RTL verification
      would chase phantom violations.
    """
    source = model_source("multi_vscale")
    full_model = multi_vscale_model()
    forbidden_names = ["mp", "sb", "iriw", "wrc", "co-mp", "lb"]
    allowed_names = ["iwp24", "n5", "amd3"]

    def drop(axiom_name):
        weakened = parse_uspec(source)
        weakened.axioms = [a for a in weakened.axioms if a.name != axiom_name]
        return weakened

    def run():
        no_fifo = drop("Fetch_FIFO")
        no_mem = drop("Mem_WB_Follows_DX")
        escapes = []
        for name in forbidden_names:
            test = get_test(name)
            assert microarch_observable(full_model, test).observable == sc_allowed(test)
            escapes.append(
                (name, microarch_observable(no_fifo, test).observable)
            )
        over_strict = []
        for name in allowed_names:
            test = get_test(name)
            assert microarch_observable(full_model, test).observable == sc_allowed(test)
            over_strict.append(
                (name, microarch_observable(no_mem, test).observable)
            )
        return escapes, over_strict

    escapes, over_strict = benchmark.pedantic(run, rounds=1, iterations=1)
    escaped = sum(1 for _n, obs in escapes if obs)
    lost = sum(1 for _n, obs in over_strict if not obs)
    lines = [
        "Ablation 4: dropping load-bearing axioms from the µspec model",
        "",
        "without Fetch_FIFO (in-order pipeline): forbidden outcomes that",
        "become observable:",
    ]
    for name, obs in escapes:
        lines.append(f"  {name:8s} {'ESCAPES' if obs else 'still forbidden'}")
    lines += [
        "",
        "without Mem_WB_Follows_DX (memory pipelining): allowed outcomes",
        "that become unobservable (over-strict model):",
    ]
    for name, obs in over_strict:
        lines.append(f"  {name:8s} {'still observable' if obs else 'LOST'}")
    lines += ["", f"escaped: {escaped}, lost: {lost}"]
    save_table(results_dir, "ablation_dropped_axiom.txt", "\n".join(lines))
    assert escaped > 0
    assert lost > 0
