"""repro: a reproduction of "Random Fill Cache Architecture"
(Fangfei Liu and Ruby B. Lee, MICRO-47, 2014).

The package implements the paper's contribution — a cache whose fill
strategy replaces demand fetch with random fill within a configurable
neighborhood window — together with every substrate its evaluation
needs: a two-level cache/DRAM simulator, secure-cache baselines
(Newcache, PLcache, NoMo, RPcache), a from-scratch T-table AES-128,
the four classes of cache side-channel attacks, the paper's security
analyses, SPEC-like synthetic workloads, and an experiment harness
regenerating every table and figure.

Quick start::

    from repro import build_random_fill_hierarchy
    system = build_random_fill_hierarchy(seed=1)
    system.os.create_process(pid=1)
    system.os.schedule(pid=1)
    system.os.set_window(-16, 5)       # window [i-16, i+15]
    result = system.l1.access(0x10000, now=0)
"""

import importlib

__version__ = "1.0.0"

#: re-exported name -> defining subpackage.  Resolved on first access
#: (PEP 562), so importing one submodule — ``repro.cpu.lanes`` in a
#: kernel-only process — does not load the experiment harness or the
#: AES tables.
_EXPORTS = {
    "AES128": "repro.crypto",
    "AccessContext": "repro.cache",
    "BASELINE_CONFIG": "repro.experiments",
    "DemandFetchPolicy": "repro.cache",
    "L1Controller": "repro.cache",
    "RandomFillEngine": "repro.core",
    "RandomFillOS": "repro.core",
    "RandomFillPolicy": "repro.core",
    "RandomFillWindow": "repro.core",
    "SetAssociativeCache": "repro.cache",
    "SimulatorConfig": "repro.experiments",
    "TracedAES128": "repro.crypto",
    "build_hierarchy": "repro.cache",
    "build_random_fill_hierarchy": "repro.core",
    "build_scheme": "repro.experiments",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
