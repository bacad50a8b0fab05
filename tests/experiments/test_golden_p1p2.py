"""Golden pins: Table III's Monte Carlo P1 - P2 replays bit for bit.

``golden_p1p2.json`` holds the ``p1_minus_p2`` estimate of every Table
III row (the set-associative and Newcache substrates at each window
size, live attacks skipped), generated by ``_generate_golden_p1p2.py``.
The estimates feed Table III's P1 - P2 column and its Eq. (5)
measurement counts, so any drift in the functional cache, the random
fill engine or the estimator's seeding shows here.
"""

import json
import os

from tests.experiments._generate_golden_p1p2 import p1p2_rows

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_p1p2.json")

with open(GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)


def test_p1_minus_p2_bit_identical():
    assert p1p2_rows() == GOLDEN["rows"]
