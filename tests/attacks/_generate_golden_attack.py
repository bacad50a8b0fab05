"""Regenerate ``golden_attack.json`` (the collision attack's timings, pinned).

The file holds the per-measurement cycle count of the final-round cache
collision attack (the measurements behind Figure 2 and Table III's live
column) at each point of ``ATTACK_POINTS``: the set-associative victim
at windows 1 (demand fetch), 2 and 4, and the Newcache victim at
window 1.  Each point builds its victim and attack exactly as
``experiments.security.table3`` does, from ``SEED``, and records the
cycles of every ``victim.measure`` call the attack makes.

``test_golden_attack.py`` replays it bit for bit.  Generate the file
from the commit whose attack timings are to be pinned, before editing
the timing loops:

    PYTHONPATH=src python tests/attacks/_generate_golden_attack.py
"""

import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_attack.json")

#: root seed of every point (``table3``'s default)
SEED = 0

#: attacked ciphertext-byte pair (``table3``'s default)
PAIR = (0, 1)

#: (substrate, window size, measurements) of the pinned points
ATTACK_POINTS = (
    ("sa", 1, 300),
    ("sa", 2, 300),
    ("sa", 4, 300),
    ("newcache", 1, 200),
)


def measurement_cycles(substrate, window_size, measurements, seed=SEED):
    """Cycle count of each measurement the attack takes, in order."""
    from repro.attacks.collision import FinalRoundCollisionAttack
    from repro.experiments.security import build_attack_victim
    from repro.util.rng import derive_seed

    victim = build_attack_victim(
        window_size, substrate,
        seed=derive_seed(seed, "v", substrate, window_size))
    attack = FinalRoundCollisionAttack(
        victim, pairs=[PAIR],
        seed=derive_seed(seed, "a", substrate, window_size))
    cycles = []
    measure = victim.measure

    def recorded(plaintext):
        ciphertext, time = measure(plaintext)
        cycles.append(time)
        return ciphertext, time

    victim.measure = recorded
    attack.collect(measurements)
    return cycles


def main():
    points = [
        {"substrate": substrate, "window_size": size, "seed": SEED,
         "pair": list(PAIR),
         "cycles": measurement_cycles(substrate, size, measurements)}
        for substrate, size, measurements in ATTACK_POINTS
    ]
    golden = {
        "comment": "per-measurement cycle counts of the final-round "
                   "collision attack; see _generate_golden_attack.py",
        "points": points,
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(points)} points, "
          f"{sum(len(p['cycles']) for p in points)} measurements)")


if __name__ == "__main__":
    main()
