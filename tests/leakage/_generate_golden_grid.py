"""Regenerate ``golden_grid.json`` (the default leakage grid, pinned).

The file holds the ``to_json()`` rows of the default leakage grid
(every channel, every registered functional scheme, the Table III
window sizes, default trials and curve repeats) at seeds 0 and 7, each
cell run in process (``jobs=1``, no result cache), so the rows come
from the measurement code and never from a cached result.
``test_golden_grid.py`` replays it bit for bit.
Regenerate only for a deliberate, documented measurement change that
bumps ``LEAKAGE_CODE_VERSION``:

    PYTHONPATH=src python tests/leakage/_generate_golden_grid.py
"""

import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_grid.json")

#: seeds the default grid is pinned at
GOLDEN_SEEDS = (0, 7)


def golden_rows():
    from repro.leakage.sweep import leakage_grid

    return [spec.run().to_json() for spec in leakage_grid(seeds=GOLDEN_SEEDS)]


def main():
    golden = {
        "comment": "default leakage grid at seeds 0 and 7; see _generate_golden_grid.py",
        "seeds": list(GOLDEN_SEEDS),
        "rows": golden_rows(),
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden['rows'])} rows)")


if __name__ == "__main__":
    main()
