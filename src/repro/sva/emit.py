"""Emission of generated SVA into a SystemVerilog file.

RTLCheck's output is one file per litmus test holding all assumptions
and assertions, concatenated with the design's top-level module
(paper §6).  We emit the properties into a standalone checker module
that binds to the Multi-V-scale hierarchy.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.sva.ast import Directive, SvaText


def emit_sva_file(
    test_name: str,
    directives: Sequence[Directive],
    design_name: str = "multi_vscale",
    text: Optional[SvaText] = None,
) -> str:
    """Render all ``directives`` for ``test_name`` as SystemVerilog.

    ``text`` is the renderer that already rendered the directives'
    properties (the Assertion Generator's, which renders each property
    to deduplicate it); those texts are reused, not rebuilt."""
    text = text or SvaText()
    lines = [
        f"// Generated by RTLCheck (reproduction) for litmus test {test_name}",
        f"// Properties bind into the {design_name} top-level module.",
        "//",
        "// `first` is 1 on the first cycle after reset and 0 afterwards;",
        "// it anchors initialization assumptions and filters assertion",
        "// match attempts to the one starting at the beginning of the",
        "// execution.",
        "",
        "reg first;",
        "always @(posedge clk) begin",
        "  if (reset) first <= 1'b1;",
        "  else first <= 1'b0;",
        "end",
        "",
    ]
    assumes = [d for d in directives if d.kind == "assume"]
    asserts = [d for d in directives if d.kind == "assert"]
    if assumes:
        lines.append("// ------- assumptions (Assumption Generator) -------")
        for d in assumes:
            lines.append(text(d))
        lines.append("")
    if asserts:
        lines.append("// ------- assertions (Assertion Generator) -------")
        for d in asserts:
            lines.append(text(d))
        lines.append("")
    return "\n".join(lines)
