"""Command-line front end.

Three subcommands:

* ``run``       apply a procedure to an evidence CSV and write rejections,
                deciding through the ``make_procedure`` token its flags name
* ``simulate``  execute a scenario grid from a config file, emit metrics CSV
* ``validate``  run the built-in self-check suites

Exit codes: 0 success, 1 validation-suite failure, 2 input/parse error,
3 configuration conflict.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import warnings
from importlib import resources

import numpy as np

# Not called here: bench/tracing.py wraps these names in this module.
from .baselines import bh, holm_k  # noqa: F401
from .core import EvidenceKind, EvidenceVector, RejectionSet, require_level
from .local_tests import TestId
from .simulate import SignalMeanError, SimScenario, emit_table, make_procedure, run_grid
from .validation import SUITES, run_suites

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_PARSE = 2
EXIT_CONFLICT = 3

class ParseFailure(Exception):
    pass


class ConfigConflict(Exception):
    pass


_HEADER_KINDS = {
    ("index", "p_value"): EvidenceKind.P_VALUE,
    ("index", "e_value"): EvidenceKind.E_VALUE,
}
_COMMA, _NEWLINE = ord(","), ord("\n")
# Bytes the plain reader scans at a time, and rows the writer builds at a time.
_SCAN_BLOCK, _WRITE_CHUNK = 1 << 16, 4096


def read_evidence_csv(path: str) -> EvidenceVector:
    """Read `index,p_value` or `index,e_value` rows; indices 1-based contiguous.

    The file must be UTF-8 text; a leading byte-order mark, as spreadsheets
    write, is dropped. The header's cells are matched after
    stripping whitespace and lowering case. Rows are read as ``csv.reader``
    reads them, so quoted cells, CRLF or CR line ends and blank or
    whitespace-only rows (which are skipped) are accepted. A file of the
    plain shape, a header and then one ``int,float`` line per row, is parsed
    by one ``np.loadtxt`` call over a single UTF-8 copy of the text where its
    guards allow (see ``_read_plain``); every other file goes through
    ``csv.reader``.

    Raises ParseFailure naming the file. A bad row, and an error of
    ``csv.reader`` itself such as a field over ``csv.field_size_limit()``,
    are named by their physical line number, blank lines counted; a row
    whose quoted cell spans lines is named by its last line.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseFailure(f"{path}: not UTF-8 text: {exc}") from exc
    kind, values = _read_plain(text) or _read_rows(path, text)
    try:
        return EvidenceVector(kind, values)
    except ValueError as exc:
        raise ParseFailure(f"{path}: {exc}") from exc


def _read_plain(text: str):
    """``(kind, values)`` for a file of the plain shape, else None.

    Only text on which ``csv.reader`` gives the same rows is taken: no quote,
    CR, empty field (so no blank line), field over ``csv.field_size_limit()``
    or ``\x1c``-``\x1f``, which numpy strips as whitespace but ``int`` and
    ``float`` reject. The text is encoded to UTF-8 once. The guards scan that
    buffer ``_SCAN_BLOCK`` bytes at a time, and one ``np.loadtxt`` call reads
    its lines after the header through an ``io.TextIOWrapper`` over an
    ``io.BytesIO``, which shares the buffer: lines end only at a line feed,
    as in an ``io.StringIO`` of the text, but a few kilobytes are decoded at
    a time instead of a copy of 4 bytes a character. Any error or warning of
    that call refuses the file: older numpy reads an index ``1.0`` through a
    float with a warning only. The indices must count 1, 2, ..., n; the
    values equal ``float``'s bit for bit, since both use
    ``PyOS_string_to_double``.
    """
    if any(char in text for char in '"\r\x1c\x1d\x1e\x1f'):
        return None
    head_end = text.find("\n")
    if head_end < 0 or head_end + 1 == len(text):
        return None
    head = text[:head_end]
    kind = _HEADER_KINDS.get(tuple(cell.strip().lower() for cell in head.split(",")))
    if kind is None:
        return None
    data = text.encode()
    # The body's bytes, less one final newline. A field spans one gap between
    # separators, less one, the body's ends counting as separators at -1 and
    # raw.size; UTF-8 continuation bytes are never "," or "\n", and a field
    # is never shorter in bytes. Each block's first gap starts at the last
    # separator before it.
    raw = np.frombuffer(data, dtype=np.uint8)[data.index(b"\n") + 1:
                                              len(data) - data.endswith(b"\n")]
    last, shortest, longest = -1, raw.size + 1, 0
    for start in range(0, raw.size, _SCAN_BLOCK):
        block = raw[start:start + _SCAN_BLOCK]
        seps = np.flatnonzero((block == _COMMA) | (block == _NEWLINE))
        if seps.size:
            seps += start
            gaps = np.diff(seps, prepend=last)
            shortest, longest = min(shortest, gaps.min()), max(longest, gaps.max())
            last = seps[-1]
    shortest, longest = min(shortest, raw.size - last), max(longest, raw.size - last)
    if shortest < 2 or max(len(head), int(longest) - 1) > csv.field_size_limit():
        return None
    try:
        with (warnings.catch_warnings(),
              io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n") as lines):
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, skiprows=1,
                              dtype=[("index", np.int64), ("value", np.float64)])
    except (ValueError, Warning):
        return None
    if not np.array_equal(rows["index"], np.arange(1, rows.size + 1)):
        return None
    return kind, rows["value"]


def _read_rows(path: str, text: str):
    """``(kind, values)`` through ``csv.reader``, or the first error."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        # Each row with the line it ends on. A row whose cells are all blank
        # is skipped, like an empty line.
        rows = [(reader.line_num, row) for row in reader if "".join(row).strip()]
    except csv.Error as exc:
        raise ParseFailure(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise ParseFailure(f"{path}: empty evidence file")
    header = [cell.strip().lower() for cell in rows[0][1]]
    kind = _HEADER_KINDS.get(tuple(header))
    if kind is None:
        raise ParseFailure(
            f"{path}: header must be 'index,p_value' or 'index,e_value', "
            f"got {','.join(header)!r}"
        )
    if len(rows) == 1:
        raise ParseFailure(f"{path}: no evidence rows")
    values = []
    for count, (lineno, row) in enumerate(rows[1:], start=1):
        if len(row) != 2:
            raise ParseFailure(f"{path}:{lineno}: expected 2 fields")
        try:
            idx = int(row[0])
            val = float(row[1])
        except ValueError as exc:
            raise ParseFailure(f"{path}:{lineno}: {exc}") from exc
        if idx != count:
            raise ParseFailure(
                f"{path}:{lineno}: indices must be 1-based and contiguous"
            )
        values.append(val)
    return kind, values


def _resolve_run_test(args) -> TestId:
    if args.test is not None:
        return TestId(args.test)
    if args.proc == "domino":
        # Dependence-driven defaults for order 1; the generalized Bonferroni
        # test is the only built-in p-value test of higher order.
        if args.k == 1:
            if args.dependence in ("independent", "prds"):
                return TestId.SIMES
            return TestId.HARMONIC_MEAN
        return TestId.BONFERRONI_K
    return TestId.E_CLOSURE_K


def _apply_procedure(args, ev: EvidenceVector) -> RejectionSet:
    """Decide by the ``make_procedure`` token the flags name: bh, holm:K or TEST:K."""
    if args.k < 1:
        raise ConfigConflict(f"k must be >= 1, got {args.k}")
    if args.proc in ("bh", "holm"):
        if ev.kind is not EvidenceKind.P_VALUE:
            raise ConfigConflict(f"{args.proc} requires a p-value file")
        if args.test is not None:
            raise ConfigConflict(f"--test does not apply to {args.proc}")
    token = ("bh" if args.proc == "bh" else f"holm:{args.k}" if args.proc == "holm"
             else f"{_resolve_run_test(args).value}:{args.k}")
    try:
        proc = make_procedure(token)
        kind = EvidenceKind.E_VALUE if args.proc == "domino-e" else EvidenceKind.P_VALUE
        if ev.kind is not kind:  # refused as domino_p and domino_e refuse it, level first
            require_level(args.alpha)
            raise ValueError(f"domino_{kind.value} requires {kind.value}-values")
        return proc.decide(ev, args.alpha)
    except ValueError as exc:
        raise ConfigConflict(str(exc)) from exc


def _write_rejections(path, ev: EvidenceVector, rejection: RejectionSet,
                      marginal: tuple[int, ...]) -> None:
    """Write the rejection CSV to ``path``, or to stdout when it is None.

    The header goes first, then the rows in chunks of ``_WRITE_CHUNK``: the
    cells of each chunk are built from its slice of the values, so the
    memory the writer holds beyond one flag byte a row does not grow with m.
    """
    chunks = _rejection_chunks(ev, rejection, marginal)
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)


def _rejection_chunks(ev: EvidenceVector, rejection: RejectionSet,
                      marginal: tuple[int, ...]):
    """The rejection CSV's header, then its rows ``_WRITE_CHUNK`` at a time."""
    yield "index,evidence,rejected,marginal_rank\n"
    rejected = np.zeros(ev.m, dtype=bool)
    rejected[rejection.ranked] = True
    ranks = sorted(zip(marginal, range(1, len(marginal) + 1)))  # (row, rank) by row
    pending = 0  # the first of ranks not yet in a chunk
    for start in range(0, ev.m, _WRITE_CHUNK):
        stop = min(start + _WRITE_CHUNK, ev.m)
        # Built column by column: each row is the index, a comma, repr(value)
        # and a tail that holds the rejected flag and the marginal rank.
        tails = [",0,\n"] * (stop - start)
        for j in np.flatnonzero(rejected[start:stop]).tolist():
            tails[j] = ",1,\n"
        while pending < len(ranks) and ranks[pending][0] < stop:
            j, rank = ranks[pending]
            tails[j - start] = f",1,{rank}\n"
            pending += 1
        parts = [","] * (4 * (stop - start))
        parts[0::4] = map(str, range(start + 1, stop + 1))
        parts[2::4] = map(repr, ev.values[start:stop].tolist())
        parts[3::4] = tails
        yield "".join(parts)


def cmd_run(args) -> int:
    ev = read_evidence_csv(args.input)
    rejection = _apply_procedure(args, ev)
    marginal = rejection.marginal_indices(args.k)
    _write_rejections(args.out, ev, rejection, marginal)
    boundary = repr(float(ev.values[marginal[0]])) if marginal else "NA"
    # Off stdout while the rows are on it, so that they stay a CSV.
    print(f"rejections={rejection.size} boundary={boundary}",
          file=sys.stdout if args.out is not None else sys.stderr)
    return EXIT_OK


def _parse_config_text(text: str, path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseFailure(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in entries:
            raise ParseFailure(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


def _load_config(path: str) -> dict[str, str]:
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8-sig") as handle:
            return _parse_config_text(handle.read(), path)
    bundled = resources.files("kbfdr.configs").joinpath(path)
    if bundled.is_file():
        return _parse_config_text(bundled.read_text(encoding="utf-8-sig"), path)
    raise ParseFailure(f"no config file at {path} and no bundled config by that name")


_DOMINO_NAMES = frozenset(t.value for t in TestId)


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


# Each scenario key and its parser, in parse order, which decides the bad
# value reported first; the procedure tokens are checked once m is known.
_SCENARIO_KEYS = {
    "m": int, "pi1": float, "mu_c": float, "sigma": float, "rho": _float_list,
    "alpha": _float_list, "k": int, "reps": int, "seed": int, "procedures": str,
}


def _build_scenarios(entries: dict[str, str], seed_override) -> tuple[list[SimScenario], list]:
    missing = [key for key in _SCENARIO_KEYS if key not in entries]
    if missing:
        raise ParseFailure(f"config is missing required keys: {', '.join(missing)}")
    unknown = set(entries) - set(_SCENARIO_KEYS)
    if unknown:
        raise ParseFailure(f"config has unknown keys: {', '.join(sorted(unknown))}")
    try:
        fields = {key: parse(entries[key]) for key, parse in _SCENARIO_KEYS.items()}
    except ValueError as exc:
        raise ParseFailure(f"bad scenario value: {exc}") from exc
    rhos, alphas = fields.pop("rho"), fields.pop("alpha")
    tokens = [tok for tok in fields.pop("procedures").split(",") if tok.strip()]
    m = fields["m"]
    if seed_override is not None:
        fields["seed"] = seed_override
    try:
        if not tokens:
            raise ValueError("no procedures given")
        procedures = [make_procedure(tok) for tok in tokens]
        for tok, proc in zip(tokens, procedures):
            # Domino needs k <= m; bh and holm are defined for any k.
            if tok.split(":")[0].strip().lower() in _DOMINO_NAMES and proc.k > m:
                raise ValueError(f"procedure {tok.strip()!r}: k={proc.k} exceeds m={m}")
        scenarios = [SimScenario(**fields, rho=rho, alpha=alpha)
                     for rho in rhos for alpha in alphas]
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc
    return scenarios, procedures


def cmd_simulate(args) -> int:
    entries = _load_config(args.config)
    scenarios, procedures = _build_scenarios(entries, args.seed)
    try:
        reports = run_grid(scenarios, procedures)
    except SignalMeanError as exc:
        raise ParseFailure(f"bad scenario value: {exc}") from exc
    emit_table(reports, args.out)
    print(f"wrote {len(reports)} report rows to {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    names = args.suite if args.suite else None
    if names:
        unknown = [name for name in names if name not in SUITES]
        if unknown:
            print(f"unknown suite(s): {', '.join(unknown)}", file=sys.stderr)
            return EXIT_PARSE
    results = run_suites(names)
    all_passed = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name}: {status} ({result.detail})")
        all_passed = all_passed and result.passed
    return EXIT_OK if all_passed else EXIT_SUITE_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbfdr",
        description="Boundary-FDR control: Domino procedures, baselines, "
        "and a reproducible simulation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="apply a procedure to an evidence CSV")
    run_p.add_argument("input", help="evidence CSV (index,p_value or index,e_value)")
    run_p.add_argument("--proc", required=True,
                       choices=["domino", "domino-e", "bh", "holm"],
                       help="procedure; domino and domino-e decide exactly "
                       "like the full closure")
    run_p.add_argument("--k", type=int, default=1, help="boundary order")
    run_p.add_argument("--alpha", type=float, required=True, help="target level")
    run_p.add_argument("--test", choices=sorted(t.value for t in TestId),
                       help="local test (default: resolved from --dependence)")
    run_p.add_argument("--dependence", default="independent",
                       choices=["independent", "prds", "arbitrary"],
                       help="declared dependence among null p-values")
    run_p.add_argument("--out", help="rejection CSV path (default: stdout)")
    run_p.set_defaults(func=cmd_run)

    sim_p = sub.add_parser("simulate", help="run a scenario grid from a config file")
    sim_p.add_argument("--config", required=True,
                       help="scenario config path, or the name of a bundled config "
                       "such as table1.cfg")
    sim_p.add_argument("--out", required=True, help="metrics CSV path")
    sim_p.add_argument("--seed", type=int, help="override the config seed")
    sim_p.set_defaults(func=cmd_simulate)

    val_p = sub.add_parser("validate", help="run built-in self-check suites")
    val_p.add_argument("--suite", action="append",
                       help=f"suite name (repeatable); one of: {', '.join(SUITES)}")
    val_p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigConflict as exc:
        print(f"configuration conflict: {exc}", file=sys.stderr)
        return EXIT_CONFLICT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
