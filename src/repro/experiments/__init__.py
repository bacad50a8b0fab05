"""Experiment harness: one runner per table/figure of the paper."""

import importlib

#: re-exported name -> defining module, resolved on first access (PEP
#: 562): the runner imports ``repro.experiments.config`` while these
#: modules import the runner, so the package must not load them
#: eagerly.
_EXPORTS = {
    "BASELINE_CONFIG": "repro.experiments.config",
    "ConcurrentPoint": "repro.experiments.perf_concurrent",
    "CryptoPerfPoint": "repro.experiments.perf_crypto",
    "FIGURE10_ORDER": "repro.experiments.perf_general",
    "FIGURE10_WINDOWS": "repro.experiments.perf_general",
    "FIGURE6_ASSOCS": "repro.experiments.perf_crypto",
    "FIGURE6_SCHEMES": "repro.experiments.perf_crypto",
    "FIGURE6_SIZES": "repro.experiments.perf_crypto",
    "FIGURE6_WINDOW": "repro.experiments.perf_crypto",
    "FIGURE8_CONFIGS": "repro.experiments.perf_concurrent",
    "FIGURE8_SCHEMES": "repro.experiments.perf_concurrent",
    "FIGURE8_WINDOW": "repro.experiments.perf_concurrent",
    "Figure2Result": "repro.experiments.security",
    "GeneralPerfPoint": "repro.experiments.perf_general",
    "SCHEME_NAMES": "repro.experiments.schemes",
    "Scheme": "repro.experiments.schemes",
    "SimulatorConfig": "repro.experiments.config",
    "TABLE3_WINDOW_SIZES": "repro.experiments.security",
    "Table3Row": "repro.experiments.security",
    "bench_scale": "repro.experiments.config",
    "build_attack_victim": "repro.experiments.security",
    "build_scheme": "repro.experiments.schemes",
    "figure10": "repro.experiments.perf_general",
    "figure2": "repro.experiments.security",
    "figure6": "repro.experiments.perf_crypto",
    "figure7": "repro.experiments.perf_crypto",
    "figure8": "repro.experiments.perf_concurrent",
    "figure9": "repro.experiments.perf_general",
    "make_cbc_trace": "repro.experiments.perf_crypto",
    "prefetcher_comparison": "repro.experiments.perf_general",
    "run_concurrent": "repro.experiments.perf_concurrent",
    "run_crypto_workload": "repro.experiments.perf_crypto",
    "run_general_workload": "repro.experiments.perf_general",
    "scaled": "repro.experiments.config",
    "table3": "repro.experiments.security",
    "window_label": "repro.experiments.perf_general",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.experiments' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
