"""kbfdr benchmark: four workloads, end-to-end metrics and per-layer traces.

Run from the root of a kbfdr checkout:

    python3 bench/run.py --workload table1 --seed 0 --seconds 20 --trace 0

The benchmark imports kbfdr from ``src/`` of the current directory, builds
the workload's inputs from ``--seed`` (see ``workloads.py``), and repeats
passes over them for about ``--seconds`` seconds.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics.  Every output is
checked against the digests in ``reference.json`` that were recorded for
the shipped seeds; a seed without a reference is checked only for
determinism between passes, and its fail_frac is reported as unchecked.

Lines before the last describe the run for a reader; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  A record of the run (environment, every pass, every check)
is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
OUT_DIR = ".bench_out"

# A pass that runs longer than this is stopped and its unfinished
# operations count as failed, so a pathological slowdown ends the run
# instead of hanging it.
PASS_BUDGET_S = 60.0
# No pass starts, and none runs on, this long after measuring began; it
# keeps every run well inside the 180 s a benchmark run may take.
MEASURE_LIMIT_S = 110.0
SETUP_REPEATS = 7

# Runs in a fresh interpreter: the set-up every kbfdr user pays per process.
SETUP_SNIPPET = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5])
"""


class BudgetExceeded(Exception):
    """Raised inside a pass by the timer when the pass budget runs out."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


@dataclass
class Pass:
    """One pass over a workload's inputs."""

    traced: bool
    attempted: int
    done: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    cut: bool = False
    latencies: list = field(default_factory=list)
    broken: int = 0  # calls that exited non-zero or raised
    fingerprint: dict | None = None
    errors: list = field(default_factory=list)
    layers: dict | None = None


# ---------------------------------------------------------------------------
# Passes


def simulate_pass(wl, out_csv, p: Pass, tracer) -> None:
    """The ``kbfdr simulate`` path: replications, aggregation, CSV emission.

    This is ``run_grid`` plus ``emit_table`` driven step by step, so that
    each replication's latency, each run's |R| (for the harmonic invariant)
    and the progress of a pass stopped by its budget can be recorded.
    Module attributes are looked up at call time so a tracer can wrap them.
    """
    import kbfdr.metrics
    import kbfdr.simulate

    sizes = {}
    reports = []
    with tracer.span("simulate.grid") if tracer else nullcontext():
        for sc in wl.scenarios:
            per_proc = [[] for _ in wl.procedures]
            replications = kbfdr.simulate.iter_run_samples(sc, wl.procedures)
            while True:
                start = time.perf_counter()
                item = next(replications, None)
                if item is None:
                    break
                p.latencies.append(time.perf_counter() - start)
                for slot, sample in zip(per_proc, item[1]):
                    slot.append(sample)
                p.done += len(wl.procedures)
            for proc, samples in zip(wl.procedures, per_proc):
                reports.append(kbfdr.metrics.aggregate(
                    samples,
                    scenario_id=sc.scenario_id,
                    procedure=proc.name,
                    k=proc.k if proc.k is not None else sc.k,
                    alpha=sc.alpha, rho=sc.rho, pi1=sc.pi1, mu_c=sc.mu_c,
                ))
                sizes[f"{sc.scenario_id}/{proc.name}"] = [
                    s.rejections for s in samples
                ]
        kbfdr.simulate.emit_table(reports, out_csv)
    # Digested by run_pass once the timed region is over.
    p.fingerprint = {"csv": out_csv, "sizes": sizes}


def cli_pass(wl, p: Pass, tracer) -> None:
    """One ``kbfdr run`` call per entry of ``wl.calls``, one after another."""
    import kbfdr.cli

    outputs = {}
    for label, out, argv in wl.calls:
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                with tracer.span("cli.main") if tracer else nullcontext():
                    code = kbfdr.cli.main(argv)
        except BudgetExceeded:
            raise
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception:
            code = "exception"
            sink.write(traceback.format_exc())
        p.latencies.append(time.perf_counter() - start)
        if code != 0:
            p.broken += 1
            p.errors.append(f"{label}: exit {code}: {sink.getvalue()[-500:]}")
            continue
        with open(out, "rb") as fh:
            data = fh.read()
        outputs[label] = _digest(data)
        if tracer:
            tracer.counts["cli.bytes_out"] += len(data)
        p.done += 1
    p.fingerprint = {"outputs": outputs}


def run_pass(wl, traced: bool, tracer, workdir, budget: float) -> Pass:
    if isinstance(wl, workloads.SimulateWorkload):
        p = Pass(traced, attempted=wl.decisions)
        body = lambda: simulate_pass(  # noqa: E731
            wl, os.path.join(workdir, "metrics.csv"), p, tracer if traced else None)
    else:
        p = Pass(traced, attempted=len(wl.calls))
        body = lambda: cli_pass(wl, p, tracer if traced else None)  # noqa: E731
    if traced:
        tracer.install()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            body()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        p.cut = True
        p.fingerprint = None
        p.errors.append(f"pass stopped by its {budget:.1f} s budget")
    finally:
        p.wall = time.perf_counter() - start
        p.cpu = time.process_time() - cpu_start
        if traced:
            tracer.uninstall()
            p.layers = tracing.layer_metrics(*tracer.take())
    if p.fingerprint is not None and "csv" in p.fingerprint:
        p.fingerprint = _simulate_fingerprint(**p.fingerprint)
    return p


def warm_up(wl) -> None:
    """One untimed replication or round of calls at full size.

    Lazy imports, caches and the heap then reach their working size before
    the first timed pass.
    """
    import kbfdr.cli
    import kbfdr.simulate

    if isinstance(wl, workloads.SimulateWorkload):
        first = replace(wl.scenarios[0], reps=1)
        list(kbfdr.simulate.iter_run_samples(first, wl.procedures))
    else:
        for _, _, argv in wl.calls:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                kbfdr.cli.main(argv)


# ---------------------------------------------------------------------------
# Correctness


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _simulate_fingerprint(csv: str, sizes: dict) -> dict:
    """Row digests of the closure-exact procedures, |R| of the harmonic one.

    The harmonic default evaluates only part of the rectangular family, so
    a closure-exact fix can only shrink its sets: it is checked by
    |R| <= reference |R| per replication instead of by a digest.
    """
    with open(csv, "rb") as fh:
        lines = fh.read().decode("utf-8").splitlines()
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        if not fields[1].startswith("harmonic"):
            rows[f"{fields[0]}/{fields[1]}"] = _digest(line.encode("utf-8"))
    harmonic = {key: runs for key, runs in sizes.items()
                if key.split("/")[1].startswith("harmonic")}
    return {"rows": rows, "harmonic_sizes": harmonic}


def compare(wl, ref: dict, got: dict) -> tuple[int, list[str]]:
    """Failed operations of one pass against a reference fingerprint."""
    failed, notes = 0, []
    if isinstance(wl, workloads.CliWorkload):
        # A call that exited non-zero left no output; it is counted already.
        for label, digest in got["outputs"].items():
            if ref["outputs"].get(label) != digest:
                failed += 1
                notes.append(f"{label}: rejection CSV differs from reference")
        return failed, notes
    reps = {f"{sc.scenario_id}/{proc.name}": sc.reps
            for sc in wl.scenarios for proc in wl.procedures}
    for key, digest in ref["rows"].items():
        if got["rows"].get(key) != digest:
            failed += reps.get(key, 0)
            notes.append(f"{key}: metrics row differs from reference")
    for key, ref_sizes in ref["harmonic_sizes"].items():
        sizes = got["harmonic_sizes"].get(key, [])
        bad = sum(1 for now, then in zip(sizes, ref_sizes) if now > then)
        bad += abs(len(ref_sizes) - len(sizes))
        if bad:
            failed += bad
            notes.append(f"{key}: {bad} replications reject more than the "
                         "reference")
    return failed, notes


def load_reference(workload: str, seed: int):
    if not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def check_passes(wl, passes, reference):
    """Failed operations over all passes, wrong ones among them, and why.

    Unfinished operations of a pass stopped by its budget count as failed
    but not as wrong.
    """
    failed, wrong, notes = 0, 0, []
    baseline = reference
    for p in passes:
        failed += p.attempted - p.done
        wrong += p.broken
        notes.extend(p.errors)
        if p.fingerprint is None:
            continue
        if baseline is None:
            baseline = p.fingerprint  # no reference: later passes must agree
            continue
        bad, why = compare(wl, baseline, p.fingerprint)
        failed += bad
        wrong += bad
        notes.extend(why)
    return failed, wrong, notes


# ---------------------------------------------------------------------------
# Measurement helpers


def measure_setup(workload: str, seed: int, src: str, workdir: str) -> list:
    """Wall time of fresh interpreters that import kbfdr and build inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, src, BENCH_DIR, workload,
             str(seed), workdir],
            check=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
    return times


def fastest_repeats(passes):
    """Each operation's fastest time over the passes, in operation order.

    Every pass repeats the same operations in the same order, so the i-th
    latency of each pass belongs to the same replication or call.  The host
    this benchmark was tuned on runs a fixed loop at two speeds that differ
    1.6-fold and switch many times a second, in proportions that drift over
    minutes.  The fastest repeat of an operation is the time it takes when
    nothing else slows the machine, and it moves far less between runs
    than a mean or median over all repeats does.
    """
    best = {}
    for p in passes:
        for i, x in enumerate(p.latencies):
            best[i] = min(best.get(i, x), x)
    return [best[i] for i in sorted(best)]


def fastest_rate(passes, op_times):
    """Operations per second of a pass made of the fastest repeats.

    The time outside the timed operations (aggregation, CSV emission) is
    taken from the pass where it was shortest.  Passes stopped by their
    budget are left out; if every pass was, the plain rate is returned.
    """
    full = [p for p in passes if not p.cut]
    if not full or not op_times:
        return sum(p.done for p in passes) / sum(p.wall for p in passes)
    rest = min(p.wall - sum(p.latencies) for p in full)
    done = statistics.median(p.done for p in full)
    return done / (sum(op_times) + rest)


def tail(latencies):
    """The highest percentile with at least ten samples beyond it.

    With 20 samples or fewer that percentile would not lie above the
    median, so the maximum is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _git_sha(root: str) -> str:
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(root, ".git", ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, src: str) -> dict:
    import numpy
    import scipy

    code = hashlib.sha256()
    pkg = os.path.join(src, "kbfdr")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".cfg")):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    code.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
        "src_sha256": code.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# Entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 uses the seed of the bundled table1.cfg")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    parser.add_argument("--record-reference", action="store_true",
                        help="run one pass and store its output digests in "
                        "reference.json for this workload and seed")
    return parser.parse_args(argv)


def measure(wl, args, workdir, tracer):
    """Passes for about ``--seconds`` (at least one of each kind).

    Another pass starts unless it would end more than half a pass after
    ``--seconds``, so the measured time is ``--seconds`` give or take half
    a pass.
    """
    passes = []
    kinds = (False, True) if tracer else (False,)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        traced = kinds[len(passes) % len(kinds)]
        missing = len(passes) < len(kinds)
        predicted = elapsed + 0.5 * (passes[-1].wall if passes else 0.0)
        if not missing and predicted > args.seconds:
            break
        budget = min(PASS_BUDGET_S, MEASURE_LIMIT_S - elapsed)
        if budget <= 0:
            break
        passes.append(run_pass(wl, traced, tracer, workdir, budget))
    return passes


def record_reference(wl, args, workdir) -> int:
    p = run_pass(wl, False, None, workdir, PASS_BUDGET_S)
    if p.fingerprint is None or p.errors or p.done != p.attempted:
        print(f"pass failed, nothing recorded: {p.errors}", file=sys.stderr)
        return 1
    data = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
    data.setdefault(args.workload, {})[str(args.seed)] = p.fingerprint
    blocks = []  # one line per (workload, seed), so diffs stay readable
    for name in sorted(data):
        entries = ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(data[name][seed], sort_keys=True)}"
            for seed in sorted(data[name], key=int))
        blocks.append(f" {json.dumps(name)}: {{\n{entries}\n }}")
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"recorded {args.workload} seed {args.seed} ({p.wall:.2f} s)")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kbfdr", "__init__.py")):
        print(f"error: no kbfdr sources under {src}; run from the root of a "
              "kbfdr checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import kbfdr

    if not os.path.abspath(kbfdr.__file__).startswith(src + os.sep):
        print(f"error: imported kbfdr from {kbfdr.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workdir = os.path.join(root, OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        workloads.write_inputs(wl)
        if args.record_reference:
            return record_reference(wl, args, workdir)
        setup = measure_setup(args.workload, args.seed, src, workdir)
        warm_up(wl)
        tracer = tracing.Tracer() if args.trace else None
        passes = measure(wl, args, workdir, tracer)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)

    reference = load_reference(args.workload, args.seed)
    failed, wrong, notes = check_passes(wl, passes, reference)
    attempted = sum(p.attempted for p in passes)
    env = environment(root, src)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]

    # A pass stopped before its first operation finished still bounds latency.
    latencies = fastest_repeats(plain) or [p.wall for p in plain]
    tail_value, tail_pct = tail(latencies)
    values = {
        "decisions_per_s": fastest_rate(plain, latencies),
        "run_p50_s": statistics.median(latencies),
        "run_tail_s": tail_value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        values.update({name: statistics.median(p.layers[name] for p in traced)
                       for name in traced[0].layers})
        values["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced)
            / statistics.median(p.wall for p in plain) - 1.0)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    op = "kbfdr run call" if isinstance(wl, workloads.CliWorkload) else "replication"
    print(f"kbfdr benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print(f"  why: {workloads.WHY[args.workload]}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for kind, group in (("untraced", plain), ("traced", traced)):
        if group:
            walls = [p.wall for p in group]
            cpus = [p.cpu for p in group]
            print(f"  {kind} passes: {len(group)}  wall median "
                  f"{statistics.median(walls):.3f} s  cpu median "
                  f"{statistics.median(cpus):.3f} s  cpu/wall "
                  f"{sum(cpus) / sum(walls):.3f}")
    print(f"  setup: {len(setup)} fresh interpreters, "
          f"{min(setup):.3f}..{max(setup):.3f} s")
    for m in end_to_end:
        name, value, unit = m["name"], values[m["name"]], m["unit"]
        extra = ""
        if name == "run_p50_s":
            extra = (f"  (one {op}, fastest of {len(plain)} repeats, "
                     f"n={len(latencies)})")
        elif name == "run_tail_s":
            extra = f"  (p{tail_pct:.1f} of n={len(latencies)})"
        print(f"  {name:<16} {value:12.6g} {unit}{extra}")
    if reference is None:
        print(f"  {'fail_frac':<16} {'unchecked':>12}  (no reference for seed "
              f"{args.seed}; passes only checked against each other: "
              f"{failed} of {attempted} failed)")
    else:
        print(f"  {'fail_frac':<16} {failed / attempted:12.6g}  "
              f"({failed} of {attempted} failed)")
    for note in notes[:10]:
        print(f"  failure: {note}")
    if args.trace:
        times = {k: v for k, v in values.items()
                 if k in traced[0].layers and k.endswith(("_s", ".s"))}
        top = max(times, key=times.get)
        share = times[top] / statistics.median(p.wall for p in traced)
        print(f"  dominant layer: {top} ({share:.0%} of a traced pass)")
        print(f"  per traced pass, median of {len(traced)}:")
        for name, entry in metrics.items():
            print(f"  {name:<28} {entry['value']:12.6g} {entry['unit']}")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "args": vars(args), "env": env, "setup_s": setup,
            "passes": [{"traced": p.traced, "wall_s": p.wall, "cpu_s": p.cpu,
                        "attempted": p.attempted, "done": p.done, "cut": p.cut,
                        "latencies_s": p.latencies,
                        "layers": p.layers} for p in passes],
            "run_tail_percentile": tail_pct, "latency_samples": len(latencies),
            "reference": reference is not None, "failures": notes,
            "metrics": metrics,
        }, fh, indent=1)
    if tracer:
        tracer.write(stem + "-spans.json.gz")

    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
