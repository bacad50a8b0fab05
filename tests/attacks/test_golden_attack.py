"""Golden pins: the collision attack's measurements replay bit for bit.

``golden_attack.json`` holds the cycle count of every measurement the
final-round collision attack takes at four points — the
set-associative victim at windows 1, 2 and 4 and the Newcache victim
at window 1 — generated by ``_generate_golden_attack.py`` before the
stock timing loop was folded into the object model.  Figure 2 and
Table III's live column are sums of exactly these counts, so any drift
in the victim's timing path shows here first.
"""

import json
import os

import pytest

from tests.attacks._generate_golden_attack import (
    ATTACK_POINTS,
    PAIR,
    SEED,
    measurement_cycles,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_attack.json")

with open(GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)


def test_golden_covers_every_point():
    assert [(p["substrate"], p["window_size"], len(p["cycles"]))
            for p in GOLDEN["points"]] == list(ATTACK_POINTS)
    assert all(p["seed"] == SEED and tuple(p["pair"]) == PAIR
               for p in GOLDEN["points"])


@pytest.mark.parametrize(
    "point", GOLDEN["points"],
    ids=[f"{p['substrate']}-w{p['window_size']}" for p in GOLDEN["points"]])
def test_measurement_cycles_bit_identical(point):
    cycles = measurement_cycles(point["substrate"], point["window_size"],
                                len(point["cycles"]), seed=point["seed"])
    assert cycles == point["cycles"]
