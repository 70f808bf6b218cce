"""The names other code reaches into kbfdr by resolve.

``bench/tracing.py`` wraps kbfdr attributes by (module, attribute) name, so
a renamed or moved function would otherwise fail only in a traced benchmark
run.  The tracer is loaded from its file and read, not edited.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import kbfdr

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# Names that left the package: test-only reference code that lives in
# tests/reference.py, then the scalar combined-evidence layer, the
# enumeration caps, the sorted-view wrapper with its head sort, and the
# external boundary plug-in with its rank-selector type, and the Domino
# configuration wrapper, which are deleted.
MOVED = (
    "domino_p_fast_bonferroni",
    "significance_order",
    "marginal_of",
    "holm_critical_values",
    "CombinedEvidence",
    "scaled_harmonic_mean",
    "arithmetic_e_mean",
    "SubsetTooLargeError",
    "DEFAULT_BRUTE_FORCE_CAP",
    "SortedView",
    "sort_head",
    "external_boundary",
    "RankSelector",
    "DominoConfig",
)


def _traced_layers():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


@pytest.mark.parametrize("module_name, attr", sorted(_traced_layers()))
def test_every_traced_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_all_names_resolve_once():
    assert len(set(kbfdr.__all__)) == len(kbfdr.__all__)
    for name in kbfdr.__all__:
        assert hasattr(kbfdr, name), name


@pytest.mark.parametrize("name", MOVED)
def test_reference_code_is_not_in_the_package(name):
    assert name not in kbfdr.__all__
    for module in (kbfdr, kbfdr.core, kbfdr.engine, kbfdr.baselines,
                   kbfdr.local_tests):
        assert not hasattr(module, name)


def test_no_traced_name_has_left():
    assert not {attr for _, attr in _traced_layers()} & set(MOVED)


def test_each_job_has_one_handle():
    # The order is sort_evidence(ev)[0], a call takes its test and its level
    # as they are, and passed is read off the failing subset, not stored
    # beside it.
    assert not hasattr(kbfdr.EvidenceVector.p_values([0.5]), "perm")
    entry_points = (kbfdr.domino_p, kbfdr.domino_e, kbfdr.domino_bruteforce)
    checks = (kbfdr.check_condition_bruteforce, kbfdr.check_condition_rectangular,
              kbfdr.domino_e_mean_reduction_check)
    for func in entry_points:
        assert list(inspect.signature(func).parameters)[1:] == ["test", "alpha"], func
    for func in checks:
        assert list(inspect.signature(func).parameters) == ["ev", "r", "test", "alpha"], func
    fields = [f.name for f in dataclasses.fields(kbfdr.ConditionTrace)]
    assert fields == ["r", "evaluated_subsets", "first_failing_subset"]
    assert not kbfdr.ConditionTrace(2, 1, frozenset({0})).passed
    assert kbfdr.ConditionTrace(2, 1, None).passed
