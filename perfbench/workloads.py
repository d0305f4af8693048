"""The benchmark's workloads: inputs from a seed, timed passes, traced passes, checks.

Every workload drives tribell only through its public functions. A
timed pass calls what a user would call (the ``tables`` command,
``npa_upper_bound``) and times each item on a ``Clock``.
A traced pass calls the modules' functions one by one, each inside a
span, and its untraced twin (the same pass with a ``NullTracer``) gives
the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import time

import numpy as np

from tribell import cli
from tribell.bell_expr import catalog_entry, local_bound
from tribell.fixtures import fixture_record, fixture_solution
from tribell.monotones import DEFAULT_CLASS_TOL, classify_incompatibility, entanglement_profile
from tribell.npa import SdpParams, build_moment_problem, npa_upper_bound, rigor_margin, sdp_maximize
from tribell.qcore import bell_operator
from tribell.seesaw import SeesawParams, evaluate_solution, quantum_maximum, seesaw_run

from clock import EDGES, SAMPLED, Clock
from tracing import NullTracer, Tracer

CATALOG_IDS = tuple(range(1, 47))
REPORT_SEED = 0  # the default --seed of the tables command

# Tolerances of tests/test_acceptance.py, keyed by whether the reference
# maximum is closed-form or a printed decimal.
VALUE_TOL = {"closed": 1e-7, "decimal": 5e-4}
FIXTURE_TOL = {"closed": 1e-9, "decimal": 2e-3}
INCOMPATIBILITY_CLASS_TOL = 2e-5
MONOTONE_SLACK = 1e-10
MAXIMUM_SLACK = 1e-6
SANDWICH_SLACK = 1e-7
AQ_TOL = 2e-3
# AQ bounds of the two rows where the almost-quantum level is not tight.
AQ_ANOMALIES = {23: 4.7754, 41: 10.3735}

# The acceptance suite's certification settings.
CERTIFY_SDP = SdpParams(tolerance=1e-9, adapt_interval=50, max_iterations=10**6)
LEVELS = ("AQ", "1+AB")


class Checks:
    """Counts correctness checks. A check whose computation raises counts as
    failed, and the workload goes on with its next item."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.tally(1, 0 if ok else 1, what)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(what)

    @contextlib.contextmanager
    def guard(self, what: str):
        try:
            yield
        except Exception as err:  # one failing item must not abort the workload
            self.expect(False, f"{what}: {type(err).__name__}: {err}")


def twin_overhead(layer_pass, items, tracer: Tracer, checks: Checks):
    """Run ``layer_pass`` over ``items`` untraced, then traced.

    Returns the traced wall minus the untraced wall, and the traced
    pass's records.
    """
    started = time.perf_counter()
    layer_pass(items, NullTracer(), checks)
    untraced = time.perf_counter() - started
    started = time.perf_counter()
    records = layer_pass(items, tracer, checks)
    return time.perf_counter() - started - untraced, records


SINGLE_RUN = SeesawParams(restarts=1)


def single_runs(seed: int, seeds_per_id: int) -> list[tuple[int, int]]:
    """All ids times ``seeds_per_id`` run seeds drawn from ``seed``: the
    traffic of scripts/restart_sensitivity.py."""
    seeds = np.random.SeedSequence(seed).generate_state(seeds_per_id)
    return [(ident, int(run_seed)) for ident in CATALOG_IDS for run_seed in seeds]


def single_run_pass(items, tracer, checks: Checks) -> list[dict]:
    """Single-restart seesaw runs: the seesaw at batch size 1."""
    records = []
    for ident, run_seed in items:
        with checks.guard(f"id {ident} seed {run_seed}"):
            with tracer.span("seesaw.seesaw_run", f"{ident}:{run_seed}"):
                solution = seesaw_run(catalog_entry(ident).expression, run_seed, SINGLE_RUN)
            record = fixture_record(ident)
            tol = VALUE_TOL[record.kind]
            trace = solution.value_trace
            checks.expect(solution.value <= record.maximum + tol,
                          f"id {ident} seed {run_seed}: {solution.value!r} above maximum")
            checks.expect(all(b >= a - MONOTONE_SLACK for a, b in zip(trace, trace[1:])),
                          f"id {ident} seed {run_seed}: sweep values decrease")
            records.append({"id": ident, "seed": run_seed, "sweeps_used": solution.sweeps_used,
                            "hit": abs(solution.value - record.maximum) <= tol})
    return records


class Reproduce:
    """``tribell tables`` over all 46 rows: the paper's reproduction report.

    The report runs at the command's default seed in every run, so every
    run times the same work. How long the 200-wide batches run depends on
    their seed: over six seeds, the sweeps of the longest restart of each
    row, summed over the rows, ranged from 1,610 to 2,000. The benchmark's
    seed only draws the traced run's ``single_run_seeds`` single-restart
    runs per id, which measure the seesaw at batch size 1.
    """

    name = "reproduce"
    scaling = SAMPLED  # the tables command runs a pool of worker threads

    def __init__(self, restarts: int = 200, single_run_seeds: int = 5):
        self.restarts = restarts
        self.single_run_seeds = single_run_seeds
        self.workers = None  # effective thread count, as the report states it

    def inputs(self, seed: int) -> list[tuple[int, int]]:
        return single_runs(seed, self.single_run_seeds)

    def timed_pass(self, inputs, checks: Checks, clock: Clock, out_dir) -> None:
        report_path = out_dir / "report.json"
        seed = REPORT_SEED
        argv = ["tables", "--restarts", str(self.restarts), "--seed", str(seed),
                "--out", str(report_path)]
        with checks.guard(f"tables --seed {seed}"):
            with clock.item(f"tables:{seed}"), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            checks.expect(code == 0, f"tables --seed {seed} exited with {code}")
            report = json.loads(report_path.read_text(encoding="utf-8"))
            summary = report["summary"]
            self.workers = report["metadata"].get("workers")
            checks.tally(summary["checks"], summary["mismatches"] + summary["no_convergence"],
                         f"tables --seed {seed}: {summary['mismatches']} mismatches,"
                         f" {summary['no_convergence']} unconverged")

    def layer_pass(self, inputs, tracer, checks: Checks) -> list[dict]:
        """The layers ``tables`` runs per row, called serially."""
        records = []
        params = SeesawParams(restarts=self.restarts, master_seed=REPORT_SEED)
        for ident in CATALOG_IDS:
            with checks.guard(f"row {ident}"), tracer.span("row", ident):
                entry = catalog_entry(ident)
                record = fixture_record(ident)
                with tracer.span("bell_expr.local_bound", ident):
                    bound, _ = local_bound(entry.expression)
                with tracer.span("seesaw.quantum_maximum", ident):
                    solution = quantum_maximum(entry.expression, params)
                with tracer.span("fixtures.fixture_solution", ident):
                    fixture = fixture_solution(ident)
                with tracer.span("seesaw.evaluate_solution", ident):
                    fixture_value = evaluate_solution(entry.expression, fixture)
                with tracer.span("qcore.bell_operator", ident):
                    bell_operator(entry.expression, fixture.measurements)
                ent_tol = record.entanglement_tol or DEFAULT_CLASS_TOL
                inc_tol = record.incompatibility_tol or INCOMPATIBILITY_CLASS_TOL
                with tracer.span("monotones.entanglement_profile", ident):
                    profile = entanglement_profile(fixture.state, tol=ent_tol)
                with tracer.span("monotones.classify_incompatibility", ident):
                    incompatibility = classify_incompatibility(fixture.measurements, tol=inc_tol)
                checks.expect(bound == entry.local_maximum, f"row {ident}: local bound {bound}")
                checks.expect(
                    abs(solution.value - record.maximum) <= VALUE_TOL[record.kind],
                    f"row {ident}: seesaw {solution.value!r}")
                checks.expect(
                    abs(fixture_value - record.maximum) <= FIXTURE_TOL[record.kind],
                    f"row {ident}: fixture {fixture_value!r}")
                checks.expect(
                    (profile.class_id, incompatibility.class_id) == record.class_pair,
                    f"row {ident}: classes ({profile.class_id}, {incompatibility.class_id})")
                records.append({"id": ident, "seesaw_value": solution.value,
                                "sweeps_used": solution.sweeps_used})
        return records

    def traced(self, inputs, tracer: Tracer, checks: Checks, out_dir) -> tuple[dict, list]:
        clock = Clock()
        self.timed_pass(inputs, checks, clock, out_dir)
        tables_wall = sum(item["raw_s"] for item in clock.items)
        overhead, records = twin_overhead(self.layer_pass, inputs, tracer, checks)
        # Initialisation plus one sweep of a full restart batch, per row.
        params = SeesawParams(restarts=self.restarts, max_sweeps=1, master_seed=REPORT_SEED)
        for ident in CATALOG_IDS:
            with checks.guard(f"row {ident} first sweep"):
                with tracer.span("seesaw.batch_first_sweep", ident):
                    quantum_maximum(catalog_entry(ident).expression, params)
        singles = single_run_pass(inputs, tracer, checks)
        row_layers = ("bell_expr.local_bound", "seesaw.quantum_maximum",
                      "fixtures.fixture_solution", "monotones.entanglement_profile",
                      "monotones.classify_incompatibility")
        sweeps = sum(r["sweeps_used"] for r in singles)
        metrics = {
            "seesaw.quantum_maximum_s": tracer.total("seesaw.quantum_maximum"),
            "seesaw.batch_first_sweep_ms": 1e3 * statistics.median(
                tracer.durations("seesaw.batch_first_sweep")),
            "bell_expr.local_bound_ms": 1e3 * tracer.total("bell_expr.local_bound"),
            "fixtures.fixture_solution_ms": 1e3 * tracer.total("fixtures.fixture_solution"),
            "qcore.bell_operator_us": 1e6 * statistics.median(tracer.durations("qcore.bell_operator")),
            "monotones.entanglement_profile_ms": 1e3 * tracer.total("monotones.entanglement_profile"),
            "monotones.classify_incompatibility_ms":
                1e3 * tracer.total("monotones.classify_incompatibility"),
            "cli.tables_overhead_s": tables_wall - sum(tracer.total(name) for name in row_layers),
            "seesaw.sweeps": sweeps,
            "seesaw.us_per_sweep": 1e6 * tracer.total("seesaw.seesaw_run") / sweeps if sweeps else 0.0,
            "seesaw.capped": sum(r["sweeps_used"] >= SINGLE_RUN.max_sweeps for r in singles),
            "seesaw.hit_ratio": sum(r["hit"] for r in singles) / len(singles) if singles else 0.0,
            "trace.overhead_s": overhead,
        }
        return metrics, records + singles


class Certify:
    """Certified moment-matrix bounds at AQ and 1+AB over a fixed solve list.

    ``typical_ids`` are closed-form rows with solves of 0.2 to 2 s, solved
    at both levels. ``gated`` holds the worst 1+AB solve (28) and the two
    AQ anomaly rows (23, 41); 41 at 1+AB is left out to keep the traced
    run within 180 s. Where an id is solved at both levels, AQ <= 1+AB is
    checked. The seed only
    permutes the order of the solves. The ``tail`` solve (id 31 AQ, the
    catalog's slowest at over a minute) runs in the traced run only: one
    in every timed run would not fit the benchmark's time budget.
    """

    name = "certify"
    scaling = EDGES

    def __init__(self, typical_ids=(2, 20, 26, 29, 30),
                 gated=((23, "AQ"), (23, "1+AB"), (28, "AQ"), (28, "1+AB"), (41, "AQ")),
                 tail=((31, "AQ"),)):
        self.typical = [(ident, level) for ident in typical_ids for level in LEVELS]
        self.gated = list(gated)
        self.tail = list(tail)

    def inputs(self, seed: int) -> list[tuple[int, str]]:
        solves = self.typical + self.gated
        random.Random(seed).shuffle(solves)
        return solves

    def timed_pass(self, inputs, checks: Checks, clock: Clock, out_dir) -> None:
        bounds = {}
        for ident, level in inputs:
            with checks.guard(f"id {ident} {level}"):
                with clock.item(f"{ident}:{level}"):
                    bound = npa_upper_bound(catalog_entry(ident).expression, level, CERTIFY_SDP)
                # npa_upper_bound raises when the solve hits its iteration cap.
                checks.expect(True, f"id {ident} {level} converged")
                bounds[ident, level] = bound
        self.check_bounds(bounds, checks)

    def layer_pass(self, items, tracer, checks: Checks) -> list[dict]:
        records = []
        for ident, level in items:
            item = f"{ident}:{level}"
            with checks.guard(f"id {ident} {level}"), tracer.span("npa.solve", item):
                with tracer.span("npa.build_moment_problem", item):
                    problem = build_moment_problem(catalog_entry(ident).expression, level)
                with tracer.span("npa.sdp_maximize", item):
                    solution = sdp_maximize(problem, CERTIFY_SDP)
                margin = rigor_margin(problem, solution)
                converged = solution.status == "converged"
                checks.expect(converged, f"id {ident} {level}: {solution.status}")
                records.append({"id": ident, "level": level, "iterations": solution.iterations,
                                "status": solution.status, "margin": margin,
                                "bound": solution.objective_value + margin if converged else None})
        return records

    def check_bounds(self, bounds: dict, checks: Checks) -> None:
        """Checks on the converged bounds; a failed solve is already counted."""
        for ident in sorted({ident for ident, _ in bounds}):
            record = fixture_record(ident)
            aq, one_ab = bounds.get((ident, "AQ")), bounds.get((ident, "1+AB"))
            if aq is None:
                continue
            checks.expect(aq >= record.maximum - MAXIMUM_SLACK, f"id {ident}: AQ {aq!r} below maximum")
            if one_ab is not None:
                checks.expect(aq <= one_ab + SANDWICH_SLACK, f"id {ident}: AQ {aq!r} above 1+AB {one_ab!r}")
            if ident in AQ_ANOMALIES:
                checks.expect(abs(aq - AQ_ANOMALIES[ident]) <= AQ_TOL, f"id {ident}: AQ {aq!r}")
            elif record.kind == "closed":
                checks.expect(abs(aq - record.maximum) <= AQ_TOL, f"id {ident}: AQ {aq!r}")

    def traced(self, inputs, tracer: Tracer, checks: Checks, out_dir) -> tuple[dict, list]:
        # Only the first typical id gets an untraced twin: a second pass
        # over more solves would not fit the 180 s a run may take.
        twin = [item for item in inputs if item[0] == self.typical[0][0]]
        overhead, records = twin_overhead(self.layer_pass, twin, tracer, checks)
        records += self.layer_pass([item for item in inputs if item not in twin], tracer, checks)
        timed_records = list(records)
        records += self.layer_pass(self.tail, tracer, checks)
        self.check_bounds({(r["id"], r["level"]): r["bound"] for r in records
                           if r["bound"] is not None}, checks)

        sdp_seconds = {f"{r['id']}:{r['level']}": 0.0 for r in records}
        for name, start, end, _, item in tracer.spans:
            if name == "npa.sdp_maximize":
                sdp_seconds[item] = end - start
        metrics = {}
        for level, key in (("AQ", "aq"), ("1+AB", "1ab")):
            chosen = [r for r in timed_records if r["level"] == level]
            iterations = sum(r["iterations"] for r in chosen)
            seconds = sum(sdp_seconds[f"{r['id']}:{level}"] for r in chosen)
            metrics[f"npa.iterations.{key}"] = iterations
            metrics[f"npa.us_per_iter.{key}"] = 1e6 * seconds / iterations if iterations else 0.0
        tail_records = records[len(timed_records):]
        metrics.update({
            "npa.build_moment_problem_ms": 1e3 * statistics.median(
                tracer.durations("npa.build_moment_problem")),
            "npa.capped": sum(r["status"] == "max_iterations" for r in records),
            "npa.margin_max": max((r["margin"] for r in records), default=0.0),
            "npa.tail_iterations": sum(r["iterations"] for r in tail_records),
            "npa.tail_solve_s": sum(sdp_seconds[f"{r['id']}:{r['level']}"] for r in tail_records),
            "trace.overhead_s": overhead,
        })
        return metrics, records


WORKLOADS = {"reproduce": Reproduce, "certify": Certify}
