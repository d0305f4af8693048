"""Set-up steps of a fresh interpreter, timed one by one.

run.py starts this script in new processes with the checkout's ``src``
on ``PYTHONPATH``, so the catalog and reference-table caches start cold
and both checksums are verified. Prints one JSON object of milliseconds.
"""

import json
import time

started = time.perf_counter()
import tribell.cli  # noqa: E402,F401
from tribell.bell_expr import load_catalog  # noqa: E402
from tribell.fixtures import load_reference_table  # noqa: E402

imported = time.perf_counter()
load_catalog()
catalog = time.perf_counter()
load_reference_table()
table = time.perf_counter()
print(json.dumps({
    "cli.import_ms": 1e3 * (imported - started),
    "bell_expr.load_catalog_ms": 1e3 * (catalog - imported),
    "fixtures.load_reference_table_ms": 1e3 * (table - catalog),
}))
