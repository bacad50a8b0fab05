"""The package's lazy re-exports (PEP 562 module ``__getattr__``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: imports each named module first, forgetting every ``repro`` module
#: in between; prints the ones that failed
PURGE_AND_IMPORT = """
import importlib, sys
failed = []
for name in %r:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except ImportError as error:
        failed.append(f"{name}: {error}")
print(failed)
"""


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_from_import_and_dir():
    from repro import AES128, build_scheme
    from repro.crypto import AES128 as aes_defined
    from repro.experiments import build_scheme as build_defined

    assert AES128 is aes_defined and build_scheme is build_defined
    assert set(repro.__all__) <= set(dir(repro))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(repro, "no_such_name")


def _fresh_python(code):
    """Run ``code`` in a fresh interpreter over this source tree; its
    standard output.  (This process has long imported everything.)"""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_kernel_import_skips_harness_and_aes_tables():
    assert _fresh_python(
        "import sys, repro.cpu.lanes; "
        "print(sorted(m for m in ('repro.experiments', 'repro.crypto')"
        " if m in sys.modules))") == "[]"


def test_every_package_imports_first():
    # With no eager package imports fixing the order, an import cycle
    # (the runner and the experiment harness import each other) shows
    # as soon as one side is imported first.
    packages = sorted(".".join(path.parent.relative_to(SRC).parts)
                      for path in Path(SRC, "repro").rglob("__init__.py"))
    assert _fresh_python(PURGE_AND_IMPORT % (packages,)) == "[]"


def test_numpy_random_loads_only_when_a_trace_is_synthesized():
    # numpy.random costs ~17 ms to import; only trace synthesis replays
    # an MT19937 stream through it, so sweeps that synthesize no
    # workload trace (Figure 6, the leakage grid, the service) skip it.
    assert _fresh_python(
        "import sys, repro.workloads, repro.leakage.sweep, "
        "repro.experiments.perf_crypto, repro.service; "
        "before = 'numpy.random' in sys.modules; "
        "repro.workloads.make_workload('milc', 10); "
        "print(before, 'numpy.random' in sys.modules)") == "False True"
