"""Which end-to-end metric each per-layer metric should move, on which workload.

Written down before any optimisation is measured, so a later change can
claim "metric X on workload Y" by name and be checked against it. Each
per-layer metric of BENCHMARK.json maps to (end-to-end metric, workload,
effect) triples:

- ``improves``: when the layer metric gets better, the end-to-end metric
  gets better on that workload;
- ``unmoved``: the end-to-end metric should not move on that workload.
  "No move" is a prediction too.

A layer metric whose layer makes no call on a workload reads 0 there.
"""

WORKLOADS = ("reproduce", "certify")


def _effect(effect: str, metric: str, *workloads: str) -> list[tuple[str, str, str]]:
    return [(metric, workload, effect) for workload in workloads]


def improves(metric: str, *workloads: str) -> list[tuple[str, str, str]]:
    return _effect("improves", metric, *workloads)


def unmoved(metric: str, *workloads: str) -> list[tuple[str, str, str]]:
    return _effect("unmoved", metric, *workloads)


_SETUP = improves("setup_s", *WORKLOADS)
_REPORT = improves("wall_s", "reproduce") + unmoved("wall_s", "certify")
_ADMM_ITERATIONS = (
    improves("wall_s", "certify")
    + improves("item_tail_ms", "certify")
    + unmoved("wall_s", "reproduce")
)
_ADMM_ITERATION_COST = (
    improves("wall_s", "certify")
    + improves("item_p50_ms", "certify")
    + unmoved("wall_s", "reproduce")
)

PREDICTIONS: dict[str, list[tuple[str, str, str]]] = {
    # Fresh-interpreter set-up steps, measured on every workload.
    "cli.import_ms": _SETUP,
    "bell_expr.load_catalog_ms": _SETUP,
    "fixtures.load_reference_table_ms": _SETUP,
    # reproduce: the 46 rows' layers called serially.
    "seesaw.quantum_maximum_s": _REPORT,
    "seesaw.batch_first_sweep_ms": _REPORT,
    "bell_expr.local_bound_ms": _REPORT,
    "fixtures.fixture_solution_ms": _REPORT,
    "qcore.bell_operator_us": _REPORT,
    "monotones.entanglement_profile_ms": _REPORT,
    "monotones.classify_incompatibility_ms": _REPORT,
    "cli.tables_overhead_s": _REPORT,
    # reproduce, traced run only: single-restart runs. A restart's sweep
    # count does not depend on its batch (a converged restart is frozen),
    # so fewer sweeps or fewer capped runs here mean fewer sweeps in the
    # report's 200-wide batches.
    "seesaw.sweeps": _REPORT,
    "seesaw.capped": _REPORT,
    # The cost of a sweep at batch size 1, where per-call overhead
    # dominates. No timed workload runs the seesaw at batch size 1, so a
    # change that helps wide batches and hurts single runs shows only in
    # this and the other per-layer seesaw metrics, not end to end.
    "seesaw.us_per_sweep": unmoved("wall_s", "certify"),
    # The report always runs 200 restarts, so a higher share of single
    # runs reaching the maximum changes no timed work; it bounds what a
    # smaller restart count could save.
    "seesaw.hit_ratio": unmoved("wall_s", "reproduce"),
    # certify: the timed solve list.
    "npa.iterations.aq": _ADMM_ITERATIONS,
    "npa.iterations.1ab": _ADMM_ITERATIONS,
    "npa.us_per_iter.aq": _ADMM_ITERATION_COST,
    "npa.us_per_iter.1ab": _ADMM_ITERATION_COST,
    "npa.build_moment_problem_ms": improves("item_p50_ms", "certify") + unmoved("wall_s", "reproduce"),
    "npa.capped": improves("pass_ratio", "certify"),
    # The margin guards bound tightness, not speed.
    "npa.margin_max": unmoved("wall_s", "certify") + unmoved("item_tail_ms", "certify"),
    # Id 31 AQ, run in the traced run only. What shortens it (fewer or
    # cheaper ADMM iterations) shortens the long AQ solves of the timed
    # list (ids 41 and 23) as well.
    "npa.tail_iterations": _ADMM_ITERATIONS,
    "npa.tail_solve_s": _ADMM_ITERATIONS,
    # Tracing runs only in the traced run, so no untraced number moves.
    "trace.overhead_s": unmoved("wall_s", *WORKLOADS),
}
