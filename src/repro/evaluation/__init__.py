"""Evaluation harness: metrics, experiment runner, reporting.

Implements the protocol of Section V: per-pair precision/recall/F1,
repeated random source splits, the 3 x 3 feature-configuration grid, the
baseline comparison and the transfer-learning extension.
"""

from repro.evaluation.active import ActiveLearningCurve, run_active_learning
from repro.evaluation.checkpoint import (
    QUARANTINE_REASONS,
    REASON_TIMEOUT,
    REASON_WORKER_CRASH,
    JournalEntry,
    RunJournal,
    run_key,
)
from repro.evaluation.curves import (
    PrecisionRecallCurve,
    precision_recall_curve,
    render_pr_curve,
)
from repro.evaluation.markdown import results_to_markdown, summary_to_markdown
from repro.evaluation.metrics import MatchQuality, evaluate_predictions, evaluate_scores
from repro.evaluation.reporting import (
    format_table2,
    render_results_table,
    render_robustness_report,
)
from repro.evaluation.runner import (
    ExperimentResult,
    ExperimentRunner,
    PhaseTimings,
    RepetitionFailure,
    RetryPolicy,
    RunSettings,
    evaluate_matcher,
)
from repro.evaluation.supervisor import (
    PoolSupervisor,
    QuarantineRecord,
    SupervisorPolicy,
)
from repro.evaluation.significance import (
    ComparisonResult,
    bootstrap_confidence_interval,
    compare_results,
    paired_permutation_test,
)
from repro.evaluation.table2 import TABLE2_BLOCKS, run_table2_block
from repro.evaluation.transfer import TransferResult, run_transfer_experiment

__all__ = [
    "ActiveLearningCurve",
    "run_active_learning",
    "PrecisionRecallCurve",
    "precision_recall_curve",
    "render_pr_curve",
    "MatchQuality",
    "evaluate_predictions",
    "evaluate_scores",
    "ExperimentRunner",
    "ExperimentResult",
    "PhaseTimings",
    "RunSettings",
    "RetryPolicy",
    "RepetitionFailure",
    "RunJournal",
    "JournalEntry",
    "run_key",
    "QUARANTINE_REASONS",
    "REASON_TIMEOUT",
    "REASON_WORKER_CRASH",
    "PoolSupervisor",
    "QuarantineRecord",
    "SupervisorPolicy",
    "evaluate_matcher",
    "render_results_table",
    "render_robustness_report",
    "results_to_markdown",
    "summary_to_markdown",
    "format_table2",
    "TABLE2_BLOCKS",
    "run_table2_block",
    "ComparisonResult",
    "paired_permutation_test",
    "bootstrap_confidence_interval",
    "compare_results",
    "TransferResult",
    "run_transfer_experiment",
]
