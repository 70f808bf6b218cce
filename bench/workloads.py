"""The benchmark's workloads: which inputs each one hands to kbfdr.

Every input is derived from the benchmark seed, so one seed always gives the
same inputs.  Simulation scenarios use the scenario seed ``BASE_SEED + seed``;
benchmark seed 0 therefore runs the first replications of the bundled
``table1.cfg`` grid.  Building a workload imports kbfdr and constructs its
scenarios or CLI argument lists; it writes no file.  ``write_inputs``
produces the files a workload reads, outside every timed region.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

BASE_SEED = 20260810  # the seed of the bundled table1.cfg

# Why each workload exists; mirrored in BENCHMARK.json.
WHY = {
    "table1": "the paper's m=100 reference grid: rectangular Simes and "
    "Bonferroni checks do most of the work",
    "wide_1e3": "m=1e3 harmonic and e-closure Domino: the e-value mean "
    "reduction and the fast harmonic scan dominate",
    "baselines_1e4": "m=1e4 BH and Holm: the engine is bypassed, so "
    "run_sample and the core rank helpers dominate",
    "cli_run": "kbfdr run on a 1e4-row p-value CSV, one caller in a closed "
    "loop: CSV parsing and writing dominate",
}

TABLE1_PROCEDURES = (
    "simes:1", "harmonic:1", "eavg:1", "bonferroni:2",
    "eclosure:2", "bonferroni:3", "eclosure:3",
)


@dataclass(frozen=True)
class SimulateWorkload:
    """A scenario grid run through the ``kbfdr simulate`` path."""

    scenarios: list
    procedures: list

    @property
    def decisions(self) -> int:
        """(replication, procedure) decisions in one pass over the grid."""
        return sum(sc.reps for sc in self.scenarios) * len(self.procedures)


@dataclass(frozen=True)
class CliWorkload:
    """``kbfdr run`` calls made in turn on one generated evidence file."""

    scenario: object  # the SimScenario whose replication 0 is the input
    input_path: str
    calls: tuple  # (label, output path, argv) per call of one pass


def _grid(m, rhos, reps, procedures, seed):
    from kbfdr import SimScenario, make_procedure

    scenarios = [
        SimScenario(m=m, pi1=0.2, mu_c=3.0, sigma=1.0, rho=rho, alpha=0.05,
                    k=1, reps=reps, seed=BASE_SEED + seed)
        for rho in rhos
    ]
    return scenarios, [make_procedure(tok) for tok in procedures]


def build(name: str, seed: int, workdir: str):
    """Construct workload ``name`` for benchmark seed ``seed``."""
    # Few replications per pass, so that each one repeats often enough in a
    # run for its fastest repeat to be a fast one (see run.fastest_repeats).
    if name == "table1":
        # The bundled table1.cfg grid at 20 of its 100 reps.
        scenarios, procs = _grid(100, (0.0, 0.25), 20, TABLE1_PROCEDURES, seed)
        return SimulateWorkload(scenarios, procs)
    if name == "wide_1e3":
        scenarios, procs = _grid(1_000, (0.0, 0.25), 15,
                                 ("harmonic:1", "eclosure:2"), seed)
        return SimulateWorkload(scenarios, procs)
    if name == "baselines_1e4":
        scenarios, procs = _grid(10_000, (0.0, 0.25), 5,
                                 ("bh", "holm:1", "holm:2"), seed)
        return SimulateWorkload(scenarios, procs)
    if name == "cli_run":
        import kbfdr.cli  # noqa: F401  (every kbfdr run call pays this import)
        from kbfdr import SimScenario

        scenario = SimScenario(m=10_000, pi1=0.2, mu_c=3.0, sigma=1.0,
                               rho=0.0, alpha=0.05, k=1, reps=1,
                               seed=BASE_SEED + seed)
        inp = os.path.join(workdir, "evidence.csv")
        calls = []
        for label, extra in (("bh", ["--proc", "bh"]),
                             ("holm_k2", ["--proc", "holm", "--k", "2"])):
            out = os.path.join(workdir, f"rejections_{label}.csv")
            argv = ["run", inp, *extra, "--alpha", "0.05", "--out", out]
            calls.append((label, out, argv))
        return CliWorkload(scenario, inp, tuple(calls))
    raise ValueError(f"unknown workload {name!r}")


def write_inputs(workload) -> None:
    """Write the files a workload reads (only ``cli_run`` reads any).

    Values are written as ``repr(float(v))``: the repr of a numpy scalar is
    ``np.float64(...)``, which ``read_evidence_csv`` rejects.
    """
    if not isinstance(workload, CliWorkload):
        return
    from kbfdr import gen_instance

    values = gen_instance(workload.scenario, 0).pvalues.values
    lines = ["index,p_value"]
    lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(values, start=1))
    with open(workload.input_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
