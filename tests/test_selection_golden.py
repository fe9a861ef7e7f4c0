"""Selection golden: every (config -> k, representatives, ratios, error).

The SimPoint layer is tuned for speed under a bit-identity contract: a
faster clustering must pick the same simulation points.  These tests pin
a sha256 digest of every configuration's selection, at scale 0.1 and
trial seed 0 with the benchmark harness's SimPoint options, so any
change to what gets selected -- not only to how fast -- fails here.

The fast variant covers three apps; the ``slow`` one covers all 25
(``pytest -m slow tests/test_selection_golden.py``).  A deliberate
change to the selections re-records both digests with ``selection_digest``
below and is reviewed like any other output change.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.gpu.device import HD4000
from repro.sampling import pipeline
from repro.sampling.simpoint import SimPointOptions
from repro.workloads import suite

SCALE = 0.1
SEED = 0
#: ``benchmarks/conftest.py``'s ``BENCH_SIMPOINT``.
OPTIONS = SimPointOptions(max_k=10, restarts=2, max_iterations=60)

GOLDEN_APPS = (
    "cb-gaussian-buffer",
    "cb-throughput-juliaset",
    "cb-vision-facedetect",
)
GOLDEN_DIGEST = (
    "f6451aa17c300b4e0a574ff70394011b12255b4da2f1d35b314023f201dc3f12"
)
SUITE_DIGEST = (
    "7bf0ceff3c11784b53edac1063a32f6b1899c185ac21ffe96b570156cecb871d"
)


def selection_digest(app_names) -> str:
    """sha256 over the sorted per-config selection lines of the apps."""
    lines = []
    for name in app_names:
        app = suite.load_app(name, scale=SCALE)
        workload = pipeline.profile_workload(app, HD4000, SEED)
        result = pipeline.explore_application(workload, options=OPTIONS, jobs=1)
        assert not result.errors
        for config, outcome in result.results.items():
            selection = outcome.selection
            reps = ",".join(
                f"{c.interval.start}-{c.interval.stop}"
                for c in selection.selected
            )
            ratios = ",".join(repr(c.ratio) for c in selection.selected)
            lines.append(
                f"{name}|{config.label}|{selection.k}|{reps}|{ratios}|"
                f"{outcome.error_percent!r}"
            )
    assert len(lines) == 30 * len(app_names)
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def test_selection_golden_three_apps():
    assert selection_digest(GOLDEN_APPS) == GOLDEN_DIGEST


@pytest.mark.slow
def test_selection_golden_full_suite():
    assert selection_digest(suite.SUITE_NAMES) == SUITE_DIGEST
