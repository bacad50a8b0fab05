"""Golden pins: the default leakage grid replays bit for bit.

``golden_grid.json`` holds the ``to_json()`` rows of the default grid
(every channel and functional scheme, the Table III window sizes,
default trials and curve repeats) at seeds 0 and 7, generated by
``_generate_golden_grid.py`` before the estimator, store and occupancy
fast paths landed.  Every cell is re-run in process (``jobs=1``, no
result cache, so a cached result can never stand in for the code) and
must equal its row exactly: every float, every success-curve point.
"""

import json
import os

import pytest

from repro.leakage.sweep import LEAKAGE_CODE_VERSION, leakage_grid

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_grid.json")

with open(GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)

SPECS = leakage_grid(seeds=tuple(GOLDEN["seeds"]))


def _cell_id(spec):
    window = "x".join(map(str, spec.window)) if spec.window else "nowin"
    return f"s{spec.seed}-{spec.channel}-{spec.scheme}-{window}"


def test_golden_covers_the_default_grid():
    assert LEAKAGE_CODE_VERSION == 1
    assert len(GOLDEN["rows"]) == len(SPECS) == 78
    for spec, row in zip(SPECS, GOLDEN["rows"]):
        assert (row["channel"], row["scheme"], row["seed"]) == (
            spec.channel,
            spec.scheme,
            spec.seed,
        )


@pytest.mark.parametrize(
    "spec, row", list(zip(SPECS, GOLDEN["rows"])), ids=[_cell_id(spec) for spec in SPECS]
)
def test_cell_bit_identical(spec, row):
    assert spec.run().to_json() == row
