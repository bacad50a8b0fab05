"""The object-model reference of the lane-kernel identity tests.

``repro.cpu.batch._lower`` is the one place that decides whether a
cell runs on the lane kernel.  With it declining every cell,
``run_cell`` runs each cell on the object model (``TimingModel.run``,
every access through ``L1Controller.access_line``), a path that cannot
itself lower: every kernel result must equal it bit for bit.
"""

from contextlib import contextmanager
from unittest import mock

from repro.runner.cells import run_cell


@contextmanager
def object_model_only():
    """No cell lowers inside the block: every cell takes the object model."""
    with mock.patch("repro.cpu.batch._lower", lambda spec: None):
        yield


def run_object_model(spec):
    """``spec``'s result on the object model."""
    with object_model_only():
        return run_cell(spec)
