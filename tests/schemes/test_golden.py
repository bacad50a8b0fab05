"""Golden-seed pins: the migrated schemes are bit-identical post-registry.

``golden_schemes.json`` was generated by ``_generate_golden.py``
running against the pre-registry adapters (the if/elif ladders the
registry replaced).  Replaying the same specs through the registry and
requiring exact equality — every float, every success-curve point —
pins that the migration moved no measured result.  Every timing cell
replays on the object model, and every one that lowers replays on the
lane kernel too (``run_cell`` runs it as a width-1 kernel call), so
the pin guards both paths.  Regenerate the file only for a deliberate,
documented measurement change (see the generator's docstring).
"""

import dataclasses
import json
import os

import pytest

from repro.cpu.batch import lane_eligible
from repro.cpu.lanes import cells_run
from repro.leakage.sweep import LeakageCellSpec
from repro.runner.cells import CellSpec, run_cell
from tests.object_model import run_object_model

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_schemes.json")

with open(GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)


def _window(cell):
    return tuple(cell["window"]) if cell["window"] is not None else None


def _leakage_id(cell):
    return f"{cell['scheme']}-{cell['channel']}"


def _timing_id(cell):
    suffix = "x".join(map(str, cell["window"])) if cell["window"] else "nowin"
    return f"{cell['scheme']}-{suffix}"


@pytest.mark.parametrize("cell", GOLDEN["leakage"], ids=_leakage_id)
def test_leakage_cell_bit_identical(cell):
    spec = LeakageCellSpec(
        channel=cell["channel"],
        scheme=cell["scheme"],
        window=_window(cell),
        trials=cell["trials"],
        seed=cell["seed"],
        curve_repeats=20,
    )
    replayed = spec.run().to_json()
    # Success curves are lists of [n, rate, rate90] triples; JSON round
    # trips tuples to lists, so compare the serialized forms.
    assert replayed == cell


def _timing_spec(cell):
    return CellSpec(
        kind="general",
        scheme=cell["scheme"],
        benchmark="astar",
        window=_window(cell),
        n_refs=6000,
        seed=7,
    )


def _replayed(cell, result):
    return {
        "scheme": cell["scheme"],
        "window": cell["window"],
        **dataclasses.asdict(result),
    }


@pytest.mark.parametrize("cell", GOLDEN["timing"], ids=_timing_id)
def test_timing_cell_bit_identical(cell):
    """``run_cell``: the lane kernel for a cell that lowers."""
    spec = _timing_spec(cell)
    before = cells_run()
    result = run_cell(spec)
    assert cells_run() - before == (1 if lane_eligible(spec) else 0)
    assert _replayed(cell, result) == cell


@pytest.mark.parametrize("cell", GOLDEN["timing"], ids=_timing_id)
def test_timing_cell_bit_identical_on_object_model(cell):
    assert _replayed(cell, run_object_model(_timing_spec(cell))) == cell
