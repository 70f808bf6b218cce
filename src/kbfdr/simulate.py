"""Synthetic one-sided Gaussian experiments and the Monte Carlo runner.

Observations are X ~ N(mu, Sigma) with equicorrelated covariance
Sigma = sigma^2 [(1 - rho) I + rho 11'].  Truth is Bernoulli(pi1) per
hypothesis; null means are 0 and signal means are drawn from N(mu_c, sigma^2)
truncated to (0, inf).  Per hypothesis the p-value is the one-sided Z-test
Phi(-x/sigma) and the e-value is the likelihood ratio
exp((mu_c * x - 0.5 * mu_c^2) / sigma^2).

Replications are reproducible regardless of scheduling: replication i uses an
independent substream seeded by a fixed 64-bit mix of the scenario seed and
i, so instances depend only on (seed, i) and the distribution parameters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    EmptyInputError,
    EvidenceKind,
    EvidenceVector,
    GroundTruth,
    InvalidRhoError,
    OutOfRangeError,
    RejectionSet,
    require_level,
)
from .engine import DominoConfig, domino_e, domino_p
from .local_tests import TestId, local_test
from .baselines import bh as bh_procedure
from .baselines import holm_k as holm_procedure
from .metrics import MetricsReport, RunSample, aggregate, run_sample

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# The MetricsReport fields of the metrics CSV, in order.  A cell's format
# depends on its column, not on its value's type (mu_c may be an int).
CSV_COLUMNS = (
    "scenario_id", "procedure", "k", "alpha", "rho", "pi1", "mu_c", "reps",
    "kbfdr", "kbfdr_se", "kfwer", "fdr", "tdr", "tdr_se", "power", "power_se",
)
_STR_COLUMNS = frozenset({"scenario_id", "procedure", "k", "reps"})
CSV_HEADER = ",".join(CSV_COLUMNS)


def substream_seed(base_seed: int, rep: int) -> int:
    """Fixed 64-bit mixing of (base seed, replication index).

    splitmix64 finalizer applied to base + (rep + 1) * golden-ratio odd
    constant; the full avalanche makes neighbouring replications
    statistically independent under PCG64.
    """
    z = (base_seed + (rep + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class SimScenario:
    """One synthetic-experiment configuration."""

    m: int
    pi1: float
    mu_c: float
    sigma: float
    rho: float
    alpha: float
    k: int
    reps: int
    seed: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0.0 <= self.pi1 <= 1.0:
            raise ValueError(f"pi1 must lie in [0, 1], got {self.pi1}")
        if not math.isfinite(self.mu_c):
            raise ValueError(f"mu_c must be finite, got {self.mu_c}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        # The e-values square both, and divide by the square of sigma.
        for name, value in (("mu_c", self.mu_c), ("sigma", self.sigma)):
            if math.isinf(value * value):
                raise ValueError(f"{name} must have a finite square, got {value}")
        if self.sigma * self.sigma == 0.0:
            raise ValueError(f"sigma must have a nonzero square, got {self.sigma}")
        lo = -1.0 / (self.m - 1) if self.m > 1 else 0.0
        if not lo - 1e-12 <= self.rho < 1.0:
            raise InvalidRhoError(
                f"rho must lie in [{lo:.6g}, 1), got {self.rho}"
            )
        require_level(self.alpha)
        if self.k < 1 or self.k > self.m:
            raise OutOfRangeError(f"need 1 <= k <= m, got k={self.k}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")

    @property
    def scenario_id(self) -> str:
        return (
            f"m{self.m}_pi{self.pi1:g}_mu{self.mu_c:g}_sd{self.sigma:g}"
            f"_rho{self.rho:g}_a{self.alpha:g}_k{self.k}"
            f"_r{self.reps}_s{self.seed}"
        )


@dataclass(frozen=True, eq=False)
class SimInstance:
    """One simulated dataset: observations, both evidence kinds, and truth.

    The p-values are built with the instance.  The e-values are built from
    ``x`` and the scenario's ``mu_c`` and ``sigma`` on first read and then
    kept, so a replication whose procedures all read p-values never
    computes them.  If the p-values' full order is cached by then, the
    e-values take it when it sorts them too, as it does for mu_c > 0.
    ``x`` is read-only: a writable one is frozen as a copy.
    """

    x: np.ndarray
    pvalues: EvidenceVector
    truth: GroundTruth
    scenario: SimScenario

    def __post_init__(self) -> None:
        if self.x.flags.writeable:  # the e-values are read from it later
            x = self.x.copy()
            x.flags.writeable = False
            object.__setattr__(self, "x", x)

    def __reduce__(self):
        # Rebuilt through the constructor, as EvidenceVector: x unpickles
        # writable, and the cached e-values are left behind.
        return type(self), (self.x, self.pvalues, self.truth, self.scenario)

    @functools.cached_property
    def evalues(self) -> EvidenceVector:
        """The likelihood ratios exp((mu_c x - mu_c^2 / 2) / sigma^2)."""
        sc = self.scenario
        with np.errstate(over="ignore"):  # the same steps, in place in one buffer
            evals = sc.mu_c * self.x
            evals -= 0.5 * sc.mu_c**2
            evals /= sc.sigma**2
            np.exp(evals, out=evals)
        ev = EvidenceVector.e_values(evals)
        ev._sort_like(self.pvalues)
        return ev


class SignalMeanError(RuntimeError):
    """No set of positive signal means could be drawn for a scenario."""


def _truncated_positive_normal(
    rng: np.random.Generator, mean: float, sd: float, size: int
) -> np.ndarray:
    """Rejection sampling from N(mean, sd^2) restricted to (0, inf)."""
    out = np.empty(size)
    filled = 0
    for _ in range(1000):
        if filled == size:
            return out
        draw = rng.normal(mean, sd, size=2 * (size - filled) + 8)
        keep = draw[draw > 0.0]
        take = min(keep.size, size - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    raise SignalMeanError(
        f"mu_c = {mean} with sigma = {sd} draws too few positive signal means"
    )


def _equicorrelated_noise(rng: np.random.Generator, m: int, sigma: float, rho: float) -> np.ndarray:
    """Exact draw from N(0, sigma^2[(1-rho)I + rho 11']).

    Uses the closed-form symmetric square root A = a I + b 11' of the
    covariance, valid on the whole admissible range including the singular
    boundary rho = -1/(m-1).
    """
    z = rng.standard_normal(m)
    if m == 1:
        return sigma * z
    a = sigma * math.sqrt(1.0 - rho)
    spread = 1.0 - rho + m * rho
    b = sigma * (math.sqrt(max(spread, 0.0)) - math.sqrt(1.0 - rho)) / m
    shift = b * z.sum()  # a * z + b * z.sum(), operation for operation, in place
    z *= a
    z += shift
    return z


def gen_instance(sc: SimScenario, rep: int) -> SimInstance:
    """Deterministically generate replication ``rep`` of a scenario.

    Draw order is fixed (truth, signal means, noise) so instances are
    bit-identical given (seed, rep).
    """
    # Imported here, its only use, so that importing kbfdr or running
    # `kbfdr run` never loads scipy.
    from scipy.special import ndtr

    rng = np.random.Generator(np.random.PCG64(substream_seed(sc.seed, rep)))
    alt = rng.random(sc.m) < sc.pi1
    mu = np.zeros(sc.m)
    # Written through indices: a boolean-mask write branches on every
    # element, and on a random mask most of those branches mispredict.
    idx = alt.nonzero()[0]
    if idx.size:
        mu[idx] = _truncated_positive_normal(rng, sc.mu_c, sc.sigma, idx.size)
    x = _equicorrelated_noise(rng, sc.m, sc.sigma, sc.rho)
    x += mu
    x.flags.writeable = False  # so the instance keeps it without a copy
    q = x / -sc.sigma  # = -x / sigma, one pass fewer
    return SimInstance(
        x=x,
        pvalues=EvidenceVector.p_values(ndtr(q, out=q)),
        truth=GroundTruth(alt),
        scenario=sc,
    )


@dataclass(frozen=True)
class ProcedureSpec:
    """A named rejection procedure to evaluate inside the harness.

    ``k`` is the boundary order used both by the procedure (where it has
    one) and by the metrics; None falls back to the scenario's k.
    """

    name: str
    evidence_kind: EvidenceKind
    k: int | None
    run: Callable[[SimInstance, SimScenario], RejectionSet]

    def order(self, sc: SimScenario) -> int:
        """The boundary order in effect for this procedure in ``sc``."""
        return self.k if self.k is not None else sc.k


def make_procedure(token: str) -> ProcedureSpec:
    """Parse a procedure token ``name[:k]``.

    Names: the ``TestId`` values simes, harmonic, bonferroni, eavg and
    eclosure (Domino variants, which decide like the full closure), bh and
    holm (baselines).
    """
    parts = [part.strip() for part in token.split(":")]
    if len(parts) > 2:
        raise ValueError(f"malformed procedure token {token!r}")
    name = parts[0].lower()
    k = int(parts[1]) if len(parts) > 1 and parts[1] else None
    if k is not None and k < 1:
        raise OutOfRangeError(f"procedure order must be >= 1, got {k} in {token!r}")

    if name == "bh":

        def run_bh(inst: SimInstance, sc: SimScenario) -> RejectionSet:
            return bh_procedure(inst.pvalues, sc.alpha)

        return ProcedureSpec("bh", EvidenceKind.P_VALUE, k, run_bh)
    kk = 1 if k is None else k
    if name == "holm":

        def run_holm(inst: SimInstance, sc: SimScenario) -> RejectionSet:
            return holm_procedure(inst.pvalues, kk, sc.alpha)

        return ProcedureSpec(f"holm_k{kk}", EvidenceKind.P_VALUE, kk, run_holm)
    try:
        test_id = TestId(name)
    except ValueError:
        raise ValueError(f"unknown procedure {name!r}") from None
    test = local_test(test_id, kk)
    kind = test.evidence_kind
    config = functools.cache(functools.partial(DominoConfig, test))  # one per alpha

    def run_domino(inst: SimInstance, sc: SimScenario) -> RejectionSet:
        cfg = config(sc.alpha)
        if kind is EvidenceKind.P_VALUE:
            return domino_p(inst.pvalues, cfg)
        return domino_e(inst.evalues, cfg)

    return ProcedureSpec(f"{name}_k{kk}", kind, kk, run_domino)


def iter_run_samples(
    sc: SimScenario, procedures: Sequence[ProcedureSpec]
) -> Iterator[tuple[int, list[RunSample]]]:
    """Evaluate all procedures on one shared instance per replication.

    Sharing instances across procedures reduces between-procedure variance;
    samples are yielded in replication order.
    """
    for rep in range(sc.reps):
        inst = gen_instance(sc, rep)
        samples = []
        for proc in procedures:
            rejection = proc.run(inst, sc)
            evidence = (
                inst.pvalues
                if proc.evidence_kind is EvidenceKind.P_VALUE
                else inst.evalues
            )
            samples.append(run_sample(rejection, inst.truth, evidence, proc.order(sc)))
        yield rep, samples


def run_grid(
    scenarios: Sequence[SimScenario], procedures: Sequence[ProcedureSpec]
) -> list[MetricsReport]:
    """One report per (scenario, procedure), scenario-major order."""
    if not scenarios or not procedures:
        raise EmptyInputError("need at least one scenario and one procedure")
    reports: list[MetricsReport] = []
    for sc in scenarios:
        per_proc: list[list[RunSample]] = [[] for _ in procedures]
        for _, samples in iter_run_samples(sc, procedures):
            for slot, sample in zip(per_proc, samples):
                slot.append(sample)
        for proc, samples in zip(procedures, per_proc):
            reports.append(
                aggregate(
                    samples,
                    scenario_id=sc.scenario_id,
                    procedure=proc.name,
                    k=proc.order(sc),
                    alpha=sc.alpha,
                    rho=sc.rho,
                    pi1=sc.pi1,
                    mu_c=sc.mu_c,
                )
            )
    return reports


def _fmt(x: float) -> str:
    return format(x, ".6g")


def emit_table(reports: Iterable[MetricsReport], path) -> None:
    """Write the plot-ready CSV; byte-stable given identical inputs."""
    reports = list(reports)
    if not reports:
        raise EmptyInputError("no reports to emit")
    columns = [map(str if col in _STR_COLUMNS else _fmt, map(attrgetter(col), reports))
               for col in CSV_COLUMNS]
    payload = "\n".join([CSV_HEADER, *map(",".join, zip(*columns))]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(payload)
