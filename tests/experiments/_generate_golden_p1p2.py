"""Regenerate ``golden_p1p2.json`` (Table III's Monte Carlo P1 - P2, pinned).

The file holds the ``p1_minus_p2`` of every Table III row
(``TABLE3_ARGS``: the set-associative and Newcache substrates at each
Table III window size, 12 rows) as ``table3`` estimates it by Monte
Carlo.  Every live attack is skipped (a cap of 0 at every size), so the
rows measure the estimator alone.

``test_golden_p1p2.py`` replays it bit for bit.  Generate the file from
the commit whose estimates are to be pinned:

    PYTHONPATH=src python tests/experiments/_generate_golden_p1p2.py
"""

import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_p1p2.json")

#: keyword arguments of the pinned ``table3`` run (live attack caps added
#: by :func:`p1p2_rows`: 0 at every window size)
TABLE3_ARGS = {
    "substrates": ("sa", "newcache"),
    "mc_trials": 300,
    "seed": 11,
}


def p1p2_rows():
    """``(substrate, window_size, p1_minus_p2)`` of every row."""
    from repro.experiments.security import TABLE3_WINDOW_SIZES, table3

    caps = {size: 0 for size in TABLE3_WINDOW_SIZES}
    rows = table3(attack_caps=caps, **TABLE3_ARGS)
    return [
        {"substrate": row.substrate, "window_size": row.window_size,
         "p1_minus_p2": row.p1_minus_p2}
        for row in rows
    ]


def main():
    rows = p1p2_rows()
    golden = {
        "comment": "Table III Monte Carlo P1 - P2; "
                   "see _generate_golden_p1p2.py",
        "args": {key: list(value) if isinstance(value, tuple) else value
                 for key, value in TABLE3_ARGS.items()},
        "rows": rows,
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
