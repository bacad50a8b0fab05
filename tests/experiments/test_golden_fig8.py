"""Golden pins: Figure 8's SMT co-run rows replay bit for bit.

``golden_fig8.json`` holds every row of a reduced Figure 8 sweep (two
benchmarks, both cache configurations, all five schemes), generated by
``_generate_golden_fig8.py`` before the trace cache's memory layer was
narrowed.  Each cell reads its program trace and the AES stress trace
through the trace cache; the replay runs with the disk layer off and an
empty memory layer, so a trace the memory layer drops between the two
cache configurations is synthesized again, and must be the same trace.
"""

import json
import os

from repro.workloads import cache as cache_mod
from tests.experiments._generate_golden_fig8 import figure8_rows

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_fig8.json")

with open(GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)


def test_rows_bit_identical(monkeypatch):
    monkeypatch.setattr(cache_mod.TRACE_CACHE, "disk_dir", None)
    cache_mod.TRACE_CACHE.clear_memory()
    assert figure8_rows() == GOLDEN["rows"]
