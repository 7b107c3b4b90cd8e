"""Plain-text rendering of experiment results (Table II style).

Besides the paper's quality tables, :func:`render_robustness_report`
surfaces the fault-tolerance telemetry -- skipped, failed, degraded and
resumed repetitions -- so partial failures are reported rather than
silently averaged away.
"""

from __future__ import annotations

from collections import defaultdict

from repro.evaluation.runner import ExperimentResult


def render_results_table(results: list[ExperimentResult]) -> str:
    """A flat table: one row per (system, dataset, fraction).

    Besides P/R/F1 the table surfaces the F1 spread and per-cell health
    (skipped/failed repetition counts), so a cell whose average hides
    bad repetitions is visible at a glance.  ``train#`` is the number
    of sources each repetition trained on: two fractions showing the
    same count ran the same splits.  When any result carries
    candidate-generation stats (a blocked run), two extra columns show
    pair recall and the candidate reduction factor; unblocked tables
    omit them.
    """
    blocked = any(result.pair_recall is not None for result in results)
    header = (
        f"{'system':<32} {'dataset':<12} {'train%':>6} {'train#':>6}  "
        f"{'P':>5} {'R':>5} {'F1':>5} {'±F1':>5}  "
        f"{'skip':>4} {'fail':>4} {'quar':>4}"
    )
    if blocked:
        header += f"  {'pairR':>6} {'redux':>6}"
    lines = [header, "-" * len(header)]
    for result in results:
        row = result.as_row()
        train_sources = row["train_sources"]
        line = (
            f"{row['system']:<32} {row['dataset']:<12} "
            f"{row['train_fraction']:>6.0%} "
            f"{'-' if train_sources is None else train_sources:>6}  "
            f"{row['precision']:>5.2f} {row['recall']:>5.2f} {row['f1']:>5.2f} "
            f"{row['f1_std']:>5.2f}  {row['skipped']:>4d} {row['failed']:>4d} "
            f"{row['quarantined']:>4d}"
        )
        if blocked:
            if result.pair_recall is not None:
                line += (
                    f"  {result.pair_recall:>6.4f}"
                    f" {result.reduction_ratio:>6.1%}"
                )
            else:
                line += f"  {'-':>6} {'-':>6}"
        lines.append(line)
    return "\n".join(lines)


def render_robustness_report(results: list[ExperimentResult]) -> str:
    """Per-cell health summary: completed/skipped/degraded/resumed/failures.

    Returns an empty string when every cell is fully healthy, so callers
    can print it unconditionally without adding noise to clean runs.
    """
    lines: list[str] = []
    for result in results:
        flags: list[str] = []
        if result.skipped_repetitions:
            flags.append(f"{result.skipped_repetitions} skipped")
        if result.quarantined_repetitions:
            flags.append(
                f"{result.quarantined_repetitions} quarantined "
                f"(crash/timeout poison)"
            )
        if result.degraded_repetitions:
            flags.append(f"{result.degraded_repetitions} degraded")
        if result.resumed_repetitions:
            flags.append(f"{result.resumed_repetitions} resumed")
        if not flags:
            continue
        lines.append(
            f"{result.matcher_name} on {result.dataset_name} "
            f"@{result.settings.train_fraction:.0%}: "
            f"{len(result.qualities)} completed, " + ", ".join(flags)
        )
        for failure in result.failures:
            lines.append(f"  - {failure.describe()}")
    if not lines:
        return ""
    return "robustness report:\n" + "\n".join(f"  {line}" for line in lines)


def format_table2(
    results: list[ExperimentResult],
    systems: list[str] | None = None,
    title: str = "",
) -> str:
    """Pivot results into the layout of the paper's Table II.

    Rows are (dataset, training fraction); columns are systems, each with
    a P/R/F1 triple.  The best F1 of every row is marked with ``*``, the
    paper's boldface.
    """
    cells: dict[tuple[str, float], dict[str, ExperimentResult]] = defaultdict(dict)
    ordered_systems: list[str] = list(systems) if systems else []
    for result in results:
        key = (result.dataset_name, result.settings.train_fraction)
        cells[key][result.matcher_name] = result
        if result.matcher_name not in ordered_systems:
            ordered_systems.append(result.matcher_name)
    column_width = 18
    header_parts = [f"{'dataset':<12} {'tr%':>4}"]
    header_parts.extend(f"{system[:column_width]:^{column_width}}" for system in ordered_systems)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(header_parts))
    lines.append("-" * len(lines[-1]))
    for (dataset, fraction), row in sorted(cells.items()):
        best_f1 = max((res.f1 for res in row.values()), default=0.0)
        parts = [f"{dataset:<12} {fraction:>4.0%}"]
        for system in ordered_systems:
            result = row.get(system)
            if result is None:
                parts.append(f"{'-':^{column_width}}")
                continue
            marker = "*" if result.f1 >= best_f1 and best_f1 > 0 else " "
            parts.append(
                f"{result.precision:>5.2f} {result.recall:>5.2f} "
                f"{result.f1:>5.2f}{marker}"
            )
        lines.append(" | ".join(parts))
    return "\n".join(lines)
