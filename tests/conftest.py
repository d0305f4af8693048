import math
import shutil
import time
import zlib
from importlib import resources

import pytest
from hypothesis import HealthCheck, settings

import tribell.bell_expr as bell_expr
import tribell.fixtures as fixtures
import tribell.npa as npa
from tribell.bell_expr import CATALOG_IDS, catalog_entry
from tribell.npa import SdpParams
from tribell.seesaw import SeesawParams, quantum_maxima

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

# Closed-form quantum maxima quoted directly in the acceptance list.
CLOSED_FORM = {
    2: 4.0,
    3: 2 * math.sqrt(2),
    4: 4 * math.sqrt(2) - 2,
    5: 8 * math.sqrt(5) - 13,
    7: 20 / 3,
    15: 6.0,
    18: 2 * (7 - math.sqrt(17)),
    23: 1.5 * (math.sqrt(17) - 1),
    26: 1 + 4 * math.sqrt(3),
    43: 8 * math.sqrt(2),
    44: 12 * math.sqrt(2) - 4,
    45: 12 * math.sqrt(2) - 4,
}

# Certification runs want residuals tight enough that the sandwich margins
# (1e-7 against 1+AB) survive the rigor margin; the cap must clear the
# slowest catalog row.
CERTIFY_SDP = SdpParams(tolerance=1e-9, adapt_interval=50, max_iterations=10**6)


@pytest.fixture(scope="session")
def full_seesaw():
    """One 200-restart seesaw pass over the whole catalog, timed: a single
    restart pool runs all 46 rows."""
    params = SeesawParams(restarts=200, master_seed=0)
    started = time.perf_counter()
    solutions = quantum_maxima([catalog_entry(ident).expression for ident in CATALOG_IDS], params)
    return dict(zip(CATALOG_IDS, solutions)), time.perf_counter() - started


@pytest.fixture(scope="session")
def npa_survey():
    """AQ and 1+AB bounds for the whole catalog at certification settings.

    Maps (id, level) to (bound, seconds). Shared by the anomaly and
    sandwich checks so the catalog is solved once.
    """
    from tribell.npa import npa_upper_bound

    survey = {}
    for ident in CATALOG_IDS:
        expr = catalog_entry(ident).expression
        for level in ("AQ", "1+AB"):
            started = time.perf_counter()
            bound = npa_upper_bound(expr, level, CERTIFY_SDP)
            survey[(ident, level)] = (bound, time.perf_counter() - started)
    return survey


@pytest.fixture
def openblas_at_two_threads():
    """OpenBLAS's (get, set) functions, with the count set to 2 for the
    test and put back afterwards; skips where numpy uses no OpenBLAS."""
    threads = npa._openblas_threads()
    if threads is None:
        pytest.skip("numpy does not use a loaded OpenBLAS here")
    get, set_ = threads
    original = get()
    set_(2)
    try:
        yield get
    finally:
        set_(original)


@pytest.fixture
def table_copies(tmp_path, monkeypatch):
    """The package's ``data`` directory copied under ``tmp_path``, which
    both embedded tables are read from for the test; returns the copy.
    The table caches are cleared before and after."""
    shutil.copytree(resources.files("tribell").joinpath("data"), tmp_path / "data")
    monkeypatch.setattr(bell_expr.resources, "files", lambda package: tmp_path)
    bell_expr.load_catalog.cache_clear()
    fixtures.load_reference_table.cache_clear()
    yield tmp_path / "data"
    bell_expr.load_catalog.cache_clear()
    fixtures.load_reference_table.cache_clear()


# Each embedded table's file, and the module and constant holding its checksum.
_TABLE_FILES = {"catalog": ("sliwa_catalog.txt", bell_expr, "_CATALOG_CRC32"),
                "reference table": ("reference_tables.txt", fixtures, "_TABLE_CRC32")}


@pytest.fixture
def damage_row(table_copies, monkeypatch):
    """``damage(table, ident, old, new)`` replaces ``old`` with ``new`` once
    in row ``ident`` of the copied ``"catalog"`` or ``"reference table"``,
    under a checksum that matches the change, and returns the row's line
    number."""
    def damage(table, ident, old, new):
        filename, module, constant = _TABLE_FILES[table]
        path = table_copies / filename
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        (row,) = (i for i, line in enumerate(lines) if line.startswith(f"{ident};"))
        assert lines[row].count(old) == 1
        lines[row] = lines[row].replace(old, new)
        text = "".join(lines)
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(module, constant, format(zlib.crc32(text.encode("utf-8")), "08x"))
        return row + 1
    return damage
