"""Plain-text table/series rendering for the benchmark harness.

Each benchmark prints the same rows/series the paper's table or figure
reports, so ``pytest benchmarks/ -s`` regenerates the evaluation in
readable form, and the same text is appended to
``benchmarks/results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Render a fixed-width table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines += [fmt(row) for row in cells]
    return "\n".join(lines)


def format_series(name: str, xs: Sequence, ys: Sequence[float],
                  y_format: str = "{:.2f}") -> str:
    """Render one figure series as `x: y` pairs."""
    pairs = ", ".join(f"{x}={y_format.format(y)}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def results_dir() -> str:
    """benchmarks/results/, created on demand."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    path = os.path.join(here, "benchmarks", "results")
    os.makedirs(path, exist_ok=True)
    return path


def emit(experiment: str, text: str) -> None:
    """Print the table/series and persist it for EXPERIMENTS.md."""
    banner = f"\n=== {experiment} ===\n{text}\n"
    print(banner)
    path = os.path.join(results_dir(), f"{experiment}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")


def emit_json(experiment: str, payload: Dict) -> str:
    """Persist a machine-readable result next to the text one."""
    path = os.path.join(results_dir(), f"{experiment}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def format_telemetry(telemetry) -> str:
    """Render a :class:`repro.telemetry.Telemetry` sink as tables.

    Per-sandbox cycle attribution first, read from the registered
    ``sandbox_manager`` component (the one per-sandbox ledger); then
    one table of scalar counters per registered component; then the
    span count.
    """
    components = telemetry.collect()
    sections = []

    manager = components.get("sandbox_manager")
    if manager is not None and manager.sandboxes:
        total = manager.total_cycles
        rows = [(f"sandbox {s.sandbox_id}", f"{s.cycles:,}",
                 f"{100 * s.cycles / total:.1f}%" if total else "-")
                for s in manager.sandboxes]
        rows.append(("total", f"{total:,}", "100.0%" if total else "-"))
        sections.append(format_table(
            ["owner", "cycles", "share"], rows,
            title="per-sandbox cycle attribution"))

    for name, stats in components.items():
        rows = [(field, f"{value:,}" if isinstance(value, int)
                 else f"{value:.3f}")
                for field, value in stats.as_dict().items()
                if isinstance(value, (int, float))
                and not isinstance(value, bool)]
        if rows:
            sections.append(format_table(["counter", "value"], rows,
                                         title=name))

    spans = telemetry.spans
    if spans.spans:
        sections.append(
            f"spans recorded: {len(spans.spans)}"
            + (f" (+{spans.dropped} dropped)" if spans.dropped else ""))
    return "\n\n".join(sections) if sections else "(no telemetry recorded)"
