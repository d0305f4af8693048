"""Command-line front end: catalog queries, solvers, and the report runner.

Exit codes: 0 success (and, for ``tables``, zero mismatches), 1 usage error,
2 computation mismatch, 3 solver non-convergence, 4 a ``tables`` row failed
with an error or an embedded table failed its integrity check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .bell_expr import (
    CATALOG_IDS,
    BellExpression,
    BellParseError,
    CatalogIntegrityError,
    catalog_entry,
    load_catalog,
    local_bound,
    parse_expression,
)
from .fixtures import (
    AQ_ANOMALY_IDS,
    AQ_TOL,
    FIXTURE_TOL,
    PROFILE_TOL,
    VALUE_TOL,
    FixtureIntegrityError,
    fixture_record,
    fixture_solution,
    load_reference_table,
)
from .monotones import DEFAULT_CLASS_TOL, classify_incompatibility, entanglement_profile
from .npa import LEVELS, SdpParams, npa_solve
from .qcore import Observable, PureState, bell_operator, expectation
from .seesaw import SeesawParams, Solution, quantum_maxima, quantum_maximum

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_NO_CONVERGENCE = 3
EXIT_ERROR = 4

SOLUTION_SCHEMA = "tribell.solution/1"
NPA_SCHEMA = "tribell.npa/1"
CLASSES_SCHEMA = "tribell.classes/1"
REPORT_SCHEMA = "tribell.report/3"

# The observables' labels in strategy and measurement order.
_OBSERVABLE_LABELS = ("A", "a", "B", "b", "C", "c")

# Each level's command-line token: lower case without "+", e.g. "1ab" for 1+AB.
_LEVEL_TOKENS = {level.lower().replace("+", ""): level for level in LEVELS}

# Each status a report check can take: the summary counter it adds to, and
# the exit code it asks for. ``tables`` exits with the largest code asked.
_STATUSES = {
    "match": ("matches", EXIT_OK),
    "skipped": ("skipped", EXIT_OK),
    "mismatch": ("mismatches", EXIT_MISMATCH),
    "no-convergence": ("no_convergence", EXIT_NO_CONVERGENCE),
    "error": ("errors", EXIT_ERROR),
}


# A moment-matrix solve that fails, by the iteration cap or in its linear
# algebra, is reported as unconverged. LinAlgError subclasses ValueError, so
# it is caught first: the ValueError left is an objective the level cannot
# express.
_SOLVE_FAILURES = (RuntimeError, np.linalg.LinAlgError)


class UsageError(Exception):
    """Bad arguments or unreadable inputs; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; 2 means mismatch here, so remap."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _parse_ident(text: str) -> int:
    try:
        ident = int(text)
    except ValueError:
        raise UsageError(f"inequality id must be an integer, got {text!r}")
    if ident not in CATALOG_IDS:
        raise UsageError(
            f"inequality id must be {CATALOG_IDS[0]}..{CATALOG_IDS[-1]}, got {ident}")
    return ident


def _params(cls, **kwargs):
    """Solver parameters from options; an out-of-range value is a usage error."""
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise UsageError(str(err))


def _parse_target(text: str) -> tuple[int | None, BellExpression]:
    """An id for catalog rows, or a raw expression string."""
    if text.strip().lstrip("+-").isdigit():
        ident = _parse_ident(text.strip())
        return ident, catalog_entry(ident).expression
    try:
        return None, parse_expression(text)
    except BellParseError as err:
        raise UsageError(f"cannot parse expression: {err}")
    except ValueError as err:
        raise UsageError(str(err))


def _observable_doc(obs: Observable) -> dict:
    if obs.is_identity:
        return {"kind": "identity", "sign": obs.sign}
    return {"kind": "bloch", "vector": [float(c) for c in obs.vector]}


def _observable_from_doc(doc: dict) -> Observable:
    if doc["kind"] == "identity":
        return Observable.identity(int(doc["sign"]))
    x, y, z = (float(c) for c in doc["vector"])
    return Observable.from_bloch(x, y, z, normalize=True)


def _solution_doc(ident: int | None, solution: Solution, params: SeesawParams) -> dict:
    amplitudes = solution.state.amplitudes
    return {
        "schema": SOLUTION_SCHEMA,
        "id": ident,
        "value": solution.value,
        "state": {
            "re": [float(a.real) for a in amplitudes],
            "im": [float(a.imag) for a in amplitudes],
        },
        "measurements": [_observable_doc(obs) for obs in solution.measurements],
        "sweeps_used": solution.sweeps_used,
        "restart_index": solution.restart_index,
        "capped_restarts": solution.capped_restarts,
        "hits": solution.hits,
        "median_sweeps": solution.median_sweeps,
        "parameters": {
            "restarts": params.restarts,
            "max_sweeps": params.max_sweeps,
            "convergence_tol": params.convergence_tol,
            "seed": params.master_seed,
        },
    }


def _solution_from_doc(doc: dict, expr: BellExpression) -> Solution:
    """The state and measurements of a solution document, with their value on
    ``expr``; the document's own value and statistics are not read."""
    real, imag = (np.array(doc["state"][part], dtype=float) for part in ("re", "im"))
    if real.shape != (8,) or imag.shape != (8,):
        raise ValueError("state needs two flat lists of 8 numbers, re and im")
    state = PureState.from_vector(real + 1j * imag, normalize=True)
    measurements = tuple(_observable_from_doc(d) for d in doc["measurements"])
    if len(measurements) != 6:
        raise UsageError("solution document needs exactly 6 measurements")
    value = expectation(state, bell_operator(expr, measurements))
    return Solution(state=state, measurements=measurements, value=value,
                    sweeps_used=0, restart_index=0)


def _classes_for(ident: int, solution: Solution, ent_tol: float, inc_tol: float) -> dict:
    """The monotone profile and class pair of a solution's state and
    measurements; an entanglement ValueError names the inequality."""
    try:
        profile = entanglement_profile(solution.state, ent_tol)
    except ValueError as err:
        raise ValueError(f"inequality {ident}: {err}") from None
    inc = classify_incompatibility(solution.measurements, inc_tol)
    return {
        "negativity": profile.n_abc,
        "concurrences": [profile.c_ab, profile.c_ac, profile.c_bc],
        "incompatibilities": [inc.i_a, inc.i_b, inc.i_c],
        "entanglement_class": profile.class_id,
        "incompatibility_class": inc.class_id,
        "entanglement_tol": ent_tol,
        "incompatibility_tol": inc_tol,
    }


def _print_classes(classes: dict) -> None:
    print(f"negativity        {classes['negativity']:.6f}")
    print("concurrences      " + "  ".join(f"{c:.6f}" for c in classes["concurrences"]))
    print("incompatibilities " + "  ".join(f"{v:.6f}" for v in classes["incompatibilities"]))
    print(
        f"class pair        ({classes['entanglement_class']},"
        f" {classes['incompatibility_class']})"
    )


def _cmd_list(_args) -> int:
    for entry in load_catalog():
        print(f"{entry.id:2d}  {entry.local_maximum:2d}  {entry.source}")
    return EXIT_OK


def _cmd_show(args) -> int:
    entry = catalog_entry(_parse_ident(args.id))
    print(f"id             {entry.id}")
    print(f"local maximum  {entry.local_maximum}")
    print(f"expression     {entry.source}")
    return EXIT_OK


def _cmd_local(args) -> int:
    _, expr = _parse_target(args.target)
    bound, strategy = local_bound(expr)
    witness = "  ".join(f"{k}={v:+d}" for k, v in zip(_OBSERVABLE_LABELS, strategy))
    print(f"local bound  {bound}")
    print(f"strategy     {witness}")
    return EXIT_OK


def _cmd_qmax(args) -> int:
    ident = _parse_ident(args.id)
    params = _params(SeesawParams, restarts=args.restarts, convergence_tol=args.tol,
                     master_seed=args.seed)
    solution = quantum_maximum(catalog_entry(ident).expression, params)
    classes = _classes_for(ident, solution, DEFAULT_CLASS_TOL, DEFAULT_CLASS_TOL)
    if args.json:
        doc = _solution_doc(ident, solution, params)
        doc["classes"] = classes
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    print(f"quantum maximum  {solution.value:.12f}")
    print(f"found at restart {solution.restart_index} after {solution.sweeps_used} sweeps")
    print(f"capped restarts  {solution.capped_restarts} of {params.restarts}")
    print("state amplitudes (|000> .. |111>):")
    for amplitude in solution.state.amplitudes:
        print(f"  {amplitude.real:+.9f} {amplitude.imag:+.9f}i")
    print("measurements:")
    for label, obs in zip(_OBSERVABLE_LABELS, solution.measurements):
        if obs.is_identity:
            print(f"  {label}: identity ({obs.sign:+d})")
        else:
            x, y, z = obs.vector
            print(f"  {label}: bloch ({x:+.9f}, {y:+.9f}, {z:+.9f})")
    _print_classes(classes)
    return EXIT_OK


def _cmd_npa(args) -> int:
    ident, expr = _parse_target(args.target)
    level = _LEVEL_TOKENS[args.level]
    params = _params(SdpParams, tolerance=args.tol, max_iterations=args.max_iterations)
    try:
        solution = npa_solve(expr, level, params)
    except _SOLVE_FAILURES as err:
        print(f"no convergence: {err}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as err:
        raise UsageError(str(err))
    if args.json:
        print(json.dumps({
            "schema": NPA_SCHEMA,
            "id": ident,
            "level": level,
            "bound": solution.bound,
            "objective_value": solution.objective_value,
            "primal_residual": solution.primal_residual,
            "dual_residual": solution.dual_residual,
            **_npa_counts(solution),
            "tolerance": args.tol,
        }, indent=2))
        return EXIT_OK
    print(f"level        {level}")
    print(f"upper bound  {solution.bound:.9f}")
    print(f"residuals    primal {solution.primal_residual:.3e}  dual {solution.dual_residual:.3e}")
    print(f"iterations   {solution.iterations}")
    print(f"adaptation   penalty updates {solution.penalty_updates}  "
          f"rejected steps {solution.rejected_steps}")
    return EXIT_OK


def _npa_counts(solution) -> dict:
    """How a moment-matrix solve got its bound, as ``npa --json`` and the
    ``tables`` npa cells report it."""
    return {
        "iterations": solution.iterations,
        "penalty_updates": solution.penalty_updates,
        "rejected_steps": solution.rejected_steps,
    }


def _cmd_classify(args) -> int:
    ident = _parse_ident(args.id)
    if args.tol is not None and not 0.0 < args.tol < math.inf:
        raise UsageError(f"--tol must be finite and positive, got {args.tol}")
    if args.solution:
        try:
            with open(args.solution, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as err:
            raise UsageError(f"cannot read solution document: {err}")
        if not isinstance(doc, dict):
            raise UsageError("solution document is not a JSON object")
        if doc.get("schema") != SOLUTION_SCHEMA:
            raise UsageError(f"unsupported solution schema: {doc.get('schema')!r}")
        try:
            solution = _solution_from_doc(doc, catalog_entry(ident).expression)
        except (KeyError, TypeError, ValueError) as err:
            raise UsageError(f"malformed solution document: {err!r}")
        ent_tol = inc_tol = args.tol if args.tol is not None else DEFAULT_CLASS_TOL
    else:
        record = fixture_record(ident)
        solution = fixture_solution(ident)
        if args.tol is not None:
            ent_tol = inc_tol = args.tol
        else:
            ent_tol, inc_tol = record.entanglement_tol, record.incompatibility_tol
    classes = _classes_for(ident, solution, ent_tol, inc_tol)
    if args.json:
        print(json.dumps({"schema": CLASSES_SCHEMA, "id": ident, **classes}, indent=2))
        return EXIT_OK
    print(f"id    {ident}")
    print(f"value {solution.value:.9f}")
    _print_classes(classes)
    return EXIT_OK


def _check(value, expected, tolerance) -> dict:
    status = "match" if abs(value - expected) <= tolerance else "mismatch"
    return {"value": value, "expected": expected, "tolerance": tolerance, "status": status}


def _tables_row(ident: int, solution: Solution | Exception, npa_levels, npa_params) -> dict:
    """One report row around the row's seesaw result, which raises here
    when its seesaw failed."""
    if isinstance(solution, Exception):
        raise solution
    entry = catalog_entry(ident)
    record = fixture_record(ident)
    row: dict = {"id": ident, "kind": record.kind}

    bound, _ = local_bound(entry.expression)
    row["local_bound"] = _check(bound, entry.local_maximum, 0)

    row["seesaw_value"] = _check(solution.value, record.maximum, VALUE_TOL[record.kind])
    row["seesaw_value"].update(capped_restarts=solution.capped_restarts, hits=solution.hits,
                               median_sweeps=solution.median_sweeps)

    fixture = fixture_solution(ident)
    row["fixture_value"] = _check(fixture.value, record.maximum, FIXTURE_TOL[record.kind])

    classes = _classes_for(ident, fixture, record.entanglement_tol, record.incompatibility_tol)
    expected = record.profile
    row["profile"] = {
        "negativity": _check(classes["negativity"], expected.negativity, PROFILE_TOL),
        "concurrences": [
            _check(got, want, PROFILE_TOL)
            for got, want in zip(classes["concurrences"], expected.concurrences)
        ],
        "incompatibilities": [
            _check(got, want, PROFILE_TOL)
            for got, want in zip(classes["incompatibilities"], expected.incompatibilities)
        ],
    }
    got_pair = (classes["entanglement_class"], classes["incompatibility_class"])
    row["classes"] = {
        "value": list(got_pair),
        "expected": list(record.class_pair),
        "entanglement_tol": record.entanglement_tol,
        "incompatibility_tol": record.incompatibility_tol,
        "status": "match" if got_pair == record.class_pair else "mismatch",
    }

    row["npa_bounds"] = {}
    for level in npa_levels:
        try:
            npa_solution = npa_solve(entry.expression, level, npa_params)
        except _SOLVE_FAILURES as err:
            row["npa_bounds"][level] = {"status": "no-convergence", "error": str(err)}
            continue
        except ValueError as err:
            row["npa_bounds"][level] = {"status": "skipped", "reason": str(err)}
            continue
        # A bound with no expected value to compare is not a check.
        cell = {"bound": npa_solution.bound, **_npa_counts(npa_solution)}
        if level == "AQ" and record.kind == "closed" and ident not in AQ_ANOMALY_IDS:
            cell.update(_check(npa_solution.bound, record.maximum, AQ_TOL))
        row["npa_bounds"][level] = cell
    return row


def _row_statuses(node):
    """Every check in a report row: each dict with a ``status`` is one check."""
    if isinstance(node, dict):
        if "status" in node:
            yield node["status"]
            return
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _row_statuses(child)


def _cmd_tables(args) -> int:
    seesaw_params = _params(SeesawParams, restarts=args.restarts, master_seed=args.seed)
    # A level given twice is solved once.
    npa_levels = list(dict.fromkeys(_LEVEL_TOKENS[token] for token in args.npa or []))
    npa_params = _params(SdpParams, tolerance=args.tol, max_iterations=args.max_iterations)
    # An unwritable report path fails here, not after the rows have run.
    # Appending creates a missing file and keeps an existing one.
    for path in filter(None, (args.out, args.csv)):
        try:
            with open(path, "a", encoding="utf-8"):
                pass
        except OSError as err:
            raise UsageError(f"cannot write {path}: {err.strerror}")
    # Both exist now, so two spellings of one file compare equal.
    if args.out and args.csv and os.path.samefile(args.out, args.csv):
        raise UsageError(f"--out and --csv name the same file: {args.csv}")
    started = time.perf_counter()
    # A damaged embedded table fails the whole command here, not every row.
    load_catalog()
    load_reference_table()
    try:
        solutions = quantum_maxima([catalog_entry(ident).expression for ident in CATALOG_IDS],
                                   seesaw_params)
    except (RuntimeError, OSError) as err:
        # A dead seesaw share or a failed fork leaves no row a seesaw result.
        solutions = [err] * len(CATALOG_IDS)
    ordered = []
    for ident, solution in zip(CATALOG_IDS, solutions):
        # A failure in one row is recorded there and does not sink the report.
        try:
            ordered.append(_tables_row(ident, solution, npa_levels, npa_params))
        except (ValueError, RuntimeError, OSError) as err:
            ordered.append(
                {"id": ident, "status": "error", "error": f"{type(err).__name__}: {err}"}
            )
    statuses = [status for row in ordered for status in _row_statuses(row)]
    summary = {"checks": len(statuses), **{counter: 0 for counter, _ in _STATUSES.values()}}
    for status in statuses:
        summary[_STATUSES[status][0]] += 1
    report = {
        "schema": REPORT_SCHEMA,
        "metadata": {
            "seed": args.seed,
            "restarts": args.restarts,
            "npa_levels": npa_levels,
            "npa_tolerance": args.tol,
            "duration_seconds": round(time.perf_counter() - started, 3),
        },
        "rows": ordered,
        "summary": summary,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    if args.csv:
        _write_csv(args.csv, ordered)
    for row in ordered:
        if row.get("status") == "error":
            print(f"id {row['id']:2d}  error: {row['error']}")
            continue
        bad = [status for status in _row_statuses(row) if _STATUSES[status][1] != EXIT_OK]
        state = "ok" if not bad else ",".join(sorted(set(bad)))
        print(
            f"id {row['id']:2d}  local {row['local_bound']['value']:3d}"
            f"  seesaw {row['seesaw_value']['value']:12.7f}"
            f"  fixture {row['fixture_value']['value']:12.7f}"
            f"  classes ({row['classes']['value'][0]:2d},{row['classes']['value'][1]:2d})"
            + "".join(f"  {level} {_npa_text(cell):>10}"
                      for level, cell in row["npa_bounds"].items())
            + f"  {state}"
        )
    print(
        f"{summary['matches']}/{summary['checks']} checks match"
        f"  ({summary['skipped']} skipped, {summary['mismatches']} mismatches,"
        f" {summary['no_convergence']} unconverged, {summary['errors']} errors)"
    )
    return max((_STATUSES[status][1] for status in statuses), default=EXIT_OK)


def _npa_text(cell: dict) -> str:
    if cell.get("status") == "skipped":
        return "-"
    if cell.get("status") == "no-convergence":
        return "cap"
    return f"{cell['bound']:.7f}"


def _write_csv(path: str, ordered) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([
            "id", "kind", "local_bound", "local_status",
            "seesaw_value", "seesaw_status", "fixture_value", "fixture_status",
            "entanglement_class", "incompatibility_class", "class_status",
        ])
        for row in ordered:
            if row.get("status") == "error":
                writer.writerow([row["id"], ""] + ["", "error"] * 3 + ["", "", "error"])
                continue
            writer.writerow([
                row["id"], row["kind"],
                row["local_bound"]["value"], row["local_bound"]["status"],
                f"{row['seesaw_value']['value']:.9f}", row["seesaw_value"]["status"],
                f"{row['fixture_value']['value']:.9f}", row["fixture_value"]["status"],
                row["classes"]["value"][0], row["classes"]["value"][1],
                row["classes"]["status"],
            ])


def build_parser() -> argparse.ArgumentParser:
    # Option defaults are those of the solver parameters.
    seesaw_options = argparse.ArgumentParser(add_help=False)
    seesaw_options.add_argument("--restarts", type=int, default=SeesawParams.restarts)
    seesaw_options.add_argument("--seed", type=int, default=SeesawParams.master_seed)
    sdp_options = argparse.ArgumentParser(add_help=False)
    sdp_options.add_argument("--tol", type=float, default=SdpParams.tolerance)
    sdp_options.add_argument("--max-iterations", type=int, default=SdpParams.max_iterations)

    parser = _Parser(prog="tribell", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print all 46 catalog entries").set_defaults(func=_cmd_list)

    show = sub.add_parser("show", help="print one catalog entry")
    show.add_argument("id")
    show.set_defaults(func=_cmd_show)

    local = sub.add_parser("local", help="local bound of an id or expression string")
    local.add_argument("target")
    local.set_defaults(func=_cmd_local)

    qmax = sub.add_parser("qmax", parents=[seesaw_options],
                          help="seesaw quantum maximum for one inequality")
    qmax.add_argument("id")
    qmax.add_argument("--tol", type=float, default=SeesawParams.convergence_tol)
    qmax.add_argument("--json", action="store_true")
    qmax.set_defaults(func=_cmd_qmax)

    npa = sub.add_parser("npa", parents=[sdp_options],
                         help="moment-matrix upper bound for an id or expression")
    npa.add_argument("target")
    npa.add_argument("--level", choices=sorted(_LEVEL_TOKENS), required=True)
    npa.add_argument("--json", action="store_true")
    npa.set_defaults(func=_cmd_npa)

    classify = sub.add_parser("classify", help="monotone profile and class pair")
    classify.add_argument("id")
    classify.add_argument("--solution", help="JSON solution document instead of the fixture")
    classify.add_argument("--tol", type=float, default=None)
    classify.add_argument("--json", action="store_true")
    classify.set_defaults(func=_cmd_classify)

    tables = sub.add_parser("tables", parents=[seesaw_options, sdp_options],
                            help="full reproduction report over all 46 rows")
    tables.add_argument("--out", help="write the JSON report here")
    tables.add_argument("--csv", help="write the flat per-id table here")
    tables.add_argument("--npa", action="append", choices=sorted(_LEVEL_TOKENS),
                        help="also compute this moment-matrix level (repeatable)")
    tables.set_defaults(func=_cmd_tables)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (CatalogIntegrityError, FixtureIntegrityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
