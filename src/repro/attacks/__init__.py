"""Cache side-channel attacks, classified per the paper's Table I.

+------------------+---------------------------+------------------------+
|                  | Contention based          | Reuse based            |
+------------------+---------------------------+------------------------+
| Access-driven    | Prime-Probe               | Flush-Reload           |
| Timing-driven    | Evict-Time                | Cache collision        |
+------------------+---------------------------+------------------------+

``CLASSIFICATION`` encodes the table programmatically; the Table I
benchmark demonstrates each attack against the designs it defeats.
"""

import importlib

#: Table I of the paper: (mechanism, observation) -> attack name.
CLASSIFICATION = {
    ("contention", "access-driven"): "prime-probe",
    ("contention", "timing-driven"): "evict-time",
    ("reuse", "access-driven"): "flush-reload",
    ("reuse", "timing-driven"): "cache-collision",
}

#: re-exported name -> defining module, resolved on first access (PEP
#: 562): the leakage sweep imports ``repro.attacks.flush_reload``,
#: which must not load the collision attack and with it the AES tables.
_EXPORTS = {
    "AttackResult": "repro.attacks.collision",
    "AesTimingVictim": "repro.attacks.victim",
    "CleaningConfig": "repro.attacks.victim",
    "EvictTimeResult": "repro.attacks.evict_time",
    "FinalRoundCollisionAttack": "repro.attacks.collision",
    "FirstRoundCollisionAttack": "repro.attacks.collision",
    "FlushReloadResult": "repro.attacks.flush_reload",
    "PairEstimate": "repro.attacks.collision",
    "PrimeProbeResult": "repro.attacks.prime_probe",
    "TableLookupVictim": "repro.attacks.victim",
    "measurements_needed": "repro.attacks.stats",
    "run_evict_time": "repro.attacks.evict_time",
    "run_flush_reload_trials": "repro.attacks.flush_reload",
    "run_prime_probe_trials": "repro.attacks.prime_probe",
    "signal_to_noise": "repro.attacks.stats",
}

__all__ = sorted(["CLASSIFICATION", *_EXPORTS])


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.attacks' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
