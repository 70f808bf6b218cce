"""Boundary-FDR control for multiple hypothesis testing.

The package implements the Domino rejection procedure, which keeps the k
least significant discoveries trustworthy at level alpha under arbitrary
dependence, for both p-values and e-values; the classical BH and generalized
Holm baselines; per-run error metrics; and a reproducible Monte Carlo
harness with a CSV-emitting CLI.
"""

from .baselines import bh, external_boundary, holm_k
from .core import (
    CapExceededError,
    DimensionMismatchError,
    EmptyInputError,
    EvidenceKind,
    EvidenceVector,
    GroundTruth,
    InvalidRhoError,
    OutOfRangeError,
    RejectionSet,
    SubsetTooSmallError,
    reject_by_rank,
    sort_evidence,
)
from .engine import (
    ConditionTrace,
    DominoConfig,
    check_condition_bruteforce,
    check_condition_rectangular,
    domino_bruteforce,
    domino_e,
    domino_e_mean_reduction_check,
    domino_p,
    domino_p_fast_harmonic,
)
from .local_tests import (
    LocalTestDescriptor,
    TestId,
    bonferroni_k,
    e_average,
    e_closure_k,
    harmonic_mean_test,
    local_test,
    simes,
)
from .metrics import (
    MetricsReport,
    RunSample,
    aggregate,
    kbfdr_indicator,
    kfwer_indicator,
    run_sample,
)
from .simulate import (
    CSV_HEADER,
    ProcedureSpec,
    SimInstance,
    SimScenario,
    emit_table,
    gen_instance,
    iter_run_samples,
    make_procedure,
    run_grid,
    substream_seed,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "CapExceededError",
    "ConditionTrace",
    "DimensionMismatchError",
    "DominoConfig",
    "EmptyInputError",
    "EvidenceKind",
    "EvidenceVector",
    "GroundTruth",
    "InvalidRhoError",
    "LocalTestDescriptor",
    "MetricsReport",
    "OutOfRangeError",
    "ProcedureSpec",
    "RejectionSet",
    "RunSample",
    "SimInstance",
    "SimScenario",
    "SubsetTooSmallError",
    "TestId",
    "aggregate",
    "bh",
    "bonferroni_k",
    "check_condition_bruteforce",
    "check_condition_rectangular",
    "domino_bruteforce",
    "domino_e",
    "domino_e_mean_reduction_check",
    "domino_p",
    "domino_p_fast_harmonic",
    "e_average",
    "e_closure_k",
    "emit_table",
    "external_boundary",
    "gen_instance",
    "harmonic_mean_test",
    "holm_k",
    "iter_run_samples",
    "kbfdr_indicator",
    "kfwer_indicator",
    "local_test",
    "make_procedure",
    "reject_by_rank",
    "run_grid",
    "run_sample",
    "simes",
    "sort_evidence",
    "substream_seed",
]
