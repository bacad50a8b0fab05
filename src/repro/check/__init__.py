"""Checked simulation mode: invariant sanitizer + differential oracle.

The timing loop in :mod:`repro.cpu.timing` and the MSHR / fill-queue
fast paths in :mod:`repro.cache` are hand-tuned code — exactly the
kind that can drift silently from the model they were specialized
from.  This package is a sanitizer for them, in the ASan/TSan sense:
an *opt-in* mode that revalidates the simulator against its own
specification while it runs.  A checked run always takes the object
model: no cell lowers onto the lane kernel under a checker
(:func:`repro.cpu.batch.lower_cell`).

Two layers:

* **Invariant sanitizer** (:mod:`repro.check.invariants`) — structural
  assertions evaluated at sampled access boundaries: tag uniqueness
  per set, MSHR occupancy and completion bookkeeping, LRU recency
  consistency, stats conservation laws, and the paper's security
  invariants (a NOFILL miss never allocates, Section IV-B; every
  random fill offset lands inside ``[-a, b]``, Table II), with an
  optional chi-square uniformity self-test over each window.
* **Differential oracle** (:mod:`repro.check.reference` driven by
  :mod:`repro.check.oracle`) — a deliberately naive, dict-based
  reference interpreter run in lockstep with the object-model loop,
  diffing full cache state and stat counters every ``rate`` accesses.

Any divergence raises a structured :exc:`CheckViolation` carrying the
access index, the minimal state delta, and the spec repr needed to
reproduce it.

Activation: ``REPRO_CHECK=1`` in the environment (or ``--check[=RATE]``
on the ``sweep``/``leakage`` CLIs, which sets the variable so worker
processes inherit it).  ``REPRO_CHECK=0`` / unset means off; ``1``
means the default sampling rate (one full validation every
:data:`DEFAULT_RATE` accesses); any larger integer is used as the rate
directly.  When off, the only cost on the simulation hot path is one
module-attribute load per ``TimingModel.run`` call, and one plus an
environment read per cell lowering.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "CheckViolation",
    "Checker",
    "DEFAULT_RATE",
    "ENV_VAR",
    "active_checker",
    "check_rate_from_env",
    "check_totals",
    "checked",
    "checked_from_env",
    "install_checker",
    "parse_check_value",
    "uninstall_checker",
]

#: Environment variable that switches checked mode on.
ENV_VAR = "REPRO_CHECK"

#: Default sampling rate: one oracle sync / invariant sweep per this
#: many accesses.  ``REPRO_CHECK=1`` selects it; ``REPRO_CHECK=N`` for
#: ``N > 1`` overrides it.
DEFAULT_RATE = 1024

#: Chi-square uniformity test parameters: skip windows with fewer than
#: this many draws (or fewer than 5 expected per bin), and use a
#: one-sided normal quantile of ~1e-6 so a healthy RNG essentially
#: never trips the gate.
MIN_CHI2_SAMPLES = 2000
CHI2_Z = 4.75


def _shorten(text: str, limit: int = 240) -> str:
    if len(text) <= limit:
        return text
    return text[: limit - 3] + "..."


class CheckViolation(AssertionError):
    """A checked-mode assertion failed.

    Structured so the failure can be acted on programmatically and
    survives pickling across the worker pool boundary:

    * ``kind``     — short category (``"oracle-state"``, ``"mshr"``,
      ``"window-bounds"``, ``"stats"``, ``"uniformity"``, ...);
    * ``where``    — which component tripped (``"l1.tag_store"``, ...);
    * ``detail``   — human-readable description of the minimal delta;
    * ``index``    — access index within the run, when known;
    * ``expected`` / ``actual`` — reference vs. fast-path values
      (pre-shortened reprs);
    * ``spec``     — repr of the cell spec / configuration needed to
      reproduce the run.
    """

    def __init__(self, kind: str, where: str, detail: str,
                 index: Optional[int] = None, expected: Optional[str] = None,
                 actual: Optional[str] = None, spec: str = ""):
        self.kind = kind
        self.where = where
        self.detail = detail
        self.index = index
        self.expected = expected
        self.actual = actual
        self.spec = spec
        super().__init__(self._format())

    def _format(self) -> str:
        parts = [f"[{self.kind}] {self.where}: {self.detail}"]
        if self.index is not None:
            parts.append(f"at access {self.index}")
        if self.expected is not None:
            parts.append(f"expected {self.expected}")
        if self.actual is not None:
            parts.append(f"actual {self.actual}")
        if self.spec:
            parts.append(f"spec {self.spec}")
        return " | ".join(parts)

    def with_spec(self, spec: str) -> "CheckViolation":
        """Return a copy carrying ``spec`` (no-op if already set)."""
        if self.spec or not spec:
            return self
        return CheckViolation(self.kind, self.where, self.detail,
                              index=self.index, expected=self.expected,
                              actual=self.actual, spec=_shorten(spec))

    def __reduce__(self):
        return (type(self), (self.kind, self.where, self.detail, self.index,
                             self.expected, self.actual, self.spec))


def parse_check_value(raw: str) -> Optional[int]:
    """Parse a ``REPRO_CHECK`` / ``--check`` value into a rate (or None).

    ``""``/``"0"`` mean off; ``"1"`` means :data:`DEFAULT_RATE`; any
    larger integer is the sampling rate itself.  Anything else is
    rejected loudly — a typo must not silently disable checking.
    """
    raw = raw.strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_VAR} must be an integer (0=off, 1=default rate, "
            f"N>1=check every N accesses), got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"{ENV_VAR} must be >= 0, got {value}")
    if value == 0:
        return None
    return DEFAULT_RATE if value == 1 else value


def check_rate_from_env() -> Optional[int]:
    """Sampling rate requested via :data:`ENV_VAR`, or None when off."""
    return parse_check_value(os.environ.get(ENV_VAR, ""))


class Checker:
    """Per-activation state: sampling rate, counters, offset histograms.

    ``checks_run`` counts validation events (one oracle sync or one
    invariant sweep each); ``violations`` counts raised
    :exc:`CheckViolation`\\ s.  Offset histograms accumulate every
    random-fill draw per ``(a, b)`` window for the chi-square
    uniformity self-test run by :meth:`finalize`.
    """

    def __init__(self, rate: int = DEFAULT_RATE, chi_square: bool = True):
        if rate < 1:
            raise ValueError(f"check rate must be >= 1, got {rate}")
        self.rate = rate
        self.chi_square = chi_square
        self.checks_run = 0
        self.violations = 0
        self._offsets: Dict[Tuple[int, int], Dict[int, int]] = {}
        # Functional models (leakage / attack trial loops) sample much
        # coarser-grained events than the timing kernel, so their
        # period is a fraction of the access-level rate.
        self._store_period = max(1, rate // 16)
        self._store_countdown = self._store_period

    # -- random fill window checks ----------------------------------------

    def note_offset(self, offset: int, a: int, b: int) -> None:
        """Record one random-fill draw; reject out-of-window offsets.

        Table II: with range registers ``(a, b)`` every fill must land
        in ``[i - a, i + b]``, i.e. ``offset`` in ``[-a, b]``.
        """
        if offset < -a or offset > b:
            self.violations += 1
            raise CheckViolation(
                "window-bounds", "random_fill",
                f"fill offset {offset} outside window [-{a}, {b}]",
            )
        hist = self._offsets.get((a, b))
        if hist is None:
            hist = self._offsets[(a, b)] = {}
        hist[offset] = hist.get(offset, 0) + 1

    # -- sampled structural checks ----------------------------------------

    def maybe_validate_store(self, store, where: str = "tag-store") -> None:
        """Sampled tag-store sweep for functional trial loops."""
        self._store_countdown -= 1
        if self._store_countdown > 0:
            return
        self._store_countdown = self._store_period
        from repro.check import invariants

        self.checks_run += 1
        try:
            invariants.validate_tag_store(store, where=where)
        except CheckViolation:
            self.violations += 1
            raise

    def validate_l1(self, l1, index: Optional[int] = None) -> None:
        """Full L1 invariant sweep (tag store, MSHR, queue, stats)."""
        from repro.check import invariants

        self.checks_run += 1
        try:
            invariants.validate_l1(l1, index=index)
        except CheckViolation:
            self.violations += 1
            raise

    # -- finalization ------------------------------------------------------

    def finalize(self) -> None:
        """Chi-square uniformity self-test over each window histogram.

        The Figure 4 datapath draws ``(rand & mask) - a`` for
        power-of-two windows and a rejection-free ``randrange``
        otherwise — both exactly uniform over ``W = a + b + 1`` bins —
        so a significant chi-square statistic means the draw path is
        biased or the mask/offset constants have drifted.
        """
        if not self.chi_square:
            return
        for (a, b), hist in sorted(self._offsets.items()):
            size = a + b + 1
            if size < 2:
                continue
            total = sum(hist.values())
            if total < max(MIN_CHI2_SAMPLES, 5 * size):
                continue
            expected = total / size
            chi2 = sum(
                (hist.get(offset, 0) - expected) ** 2 / expected
                for offset in range(-a, b + 1)
            )
            df = size - 1
            # Wilson-Hilferty approximation of the chi-square quantile.
            term = 1.0 - 2.0 / (9.0 * df) + CHI2_Z * math.sqrt(2.0 / (9.0 * df))
            critical = df * term**3
            if chi2 > critical:
                self.violations += 1
                raise CheckViolation(
                    "uniformity", f"window[-{a},{b}]",
                    f"chi-square {chi2:.1f} exceeds critical {critical:.1f} "
                    f"(df={df}, n={total})",
                )


# -- global activation --------------------------------------------------------

#: The installed checker, or None.  ``TimingModel.run`` reads this via
#: :func:`active_checker` once per run — the entire off-mode cost.
_ACTIVE: Optional[Checker] = None

#: Process-lifetime totals across uninstalled checkers (surfaced in
#: worker metadata and ``last_run_stats``).
_TOTALS = {"checks_run": 0, "violations": 0}

_PATCH_STATE = None


def active_checker() -> Optional[Checker]:
    return _ACTIVE


def check_totals() -> Dict[str, int]:
    """Process-lifetime ``checks_run`` / ``violations`` totals."""
    totals = dict(_TOTALS)
    if _ACTIVE is not None:
        totals["checks_run"] += _ACTIVE.checks_run
        totals["violations"] += _ACTIVE.violations
    return totals


def _apply_patches(checker: Checker) -> None:
    """Wrap the random-fill draw paths so every offset is validated.

    Class-level wraps (restored on uninstall): the engine's
    ``random_offset`` covers every timing-model draw, power-of-two
    windows included, and the functional model's ``_draw_offset``
    covers the leakage/attack models.  Each draw then meets the
    window-bounds check and feeds the chi-square test.
    """
    global _PATCH_STATE
    from repro.analysis.hit_probability import FunctionalRandomFillCache
    from repro.core.engine import RandomFillEngine

    orig_engine = RandomFillEngine.random_offset
    orig_functional = FunctionalRandomFillCache._draw_offset

    def random_offset(self, thread_id, _orig=orig_engine, _checker=checker):
        offset = _orig(self, thread_id)
        window = self.window_for(thread_id)
        _checker.note_offset(offset, window.a, window.b)
        return offset

    def _draw_offset(self, _orig=orig_functional, _checker=checker):
        offset = _orig(self)
        window = self.window
        _checker.note_offset(offset, window.a, window.b)
        return offset

    RandomFillEngine.random_offset = random_offset
    FunctionalRandomFillCache._draw_offset = _draw_offset
    _PATCH_STATE = (
        (RandomFillEngine, "random_offset", orig_engine),
        (FunctionalRandomFillCache, "_draw_offset", orig_functional),
    )


def _remove_patches() -> None:
    global _PATCH_STATE
    if _PATCH_STATE is None:
        return
    for cls, name, original in _PATCH_STATE:
        setattr(cls, name, original)
    _PATCH_STATE = None


def install_checker(checker: Checker) -> Checker:
    """Activate ``checker`` process-wide (one at a time)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a checker is already installed")
    _apply_patches(checker)
    _ACTIVE = checker
    return checker


def uninstall_checker(finalize: bool = True) -> Optional[Checker]:
    """Deactivate the current checker; optionally run its finalize pass.

    ``finalize=False`` skips the chi-square self-test — used when the
    checked body already raised, so a marginal histogram cannot mask
    the original violation.
    """
    global _ACTIVE
    checker = _ACTIVE
    if checker is None:
        return None
    _remove_patches()
    _ACTIVE = None
    try:
        if finalize:
            checker.finalize()
    finally:
        _TOTALS["checks_run"] += checker.checks_run
        _TOTALS["violations"] += checker.violations
    return checker


@contextmanager
def checked(rate: int = DEFAULT_RATE,
            chi_square: bool = True) -> Iterator[Checker]:
    """Run the body in checked mode; uninstall on the way out."""
    checker = install_checker(Checker(rate=rate, chi_square=chi_square))
    completed = False
    try:
        yield checker
        completed = True
    finally:
        uninstall_checker(finalize=completed)


@contextmanager
def checked_from_env() -> Iterator[Optional[Checker]]:
    """:func:`checked` gated on :data:`ENV_VAR`; yields None when off."""
    rate = check_rate_from_env()
    if rate is None:
        yield None
        return
    with checked(rate=rate) as checker:
        yield checker
