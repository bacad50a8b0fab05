"""Leakage sweep cells: scheme x window x seed, runner-distributable.

A :class:`LeakageCellSpec` is a frozen, picklable description of one
leakage measurement — which channel (the Equation (7) reference
channel, Flush-Reload, or cache occupancy), which scheme, which window
and seed.  ``spec.run()`` is a pure function of the spec, so cells go
through :func:`repro.runner.pool.run_cells` and are bit-identical for
any ``--jobs`` count, exactly like the figure sweeps.

Scheme validation, window rules and the analytic capacity bound all
follow the scheme-plugin registry (:mod:`repro.schemes`): a newly
registered functional scheme is sweepable here with no further code.

Attack modules are imported lazily inside ``run`` (the attacks package
itself consumes :mod:`repro.leakage.estimators`, so importing them at
module load would cycle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.channel_capacity import channel_capacity_bits
from repro.core.window import RandomFillWindow
from repro.leakage.adapters import LEAKAGE_SCHEMES
from repro.leakage.estimators import (
    JointCounts,
    conditional_guessing_entropy,
    guessing_entropy,
    mutual_information_bits,
    n_to_success,
    sample_window_channel,
    success_rate_curve,
)
from repro.schemes import NOFILL_RANDOM, RANDOM_FILL, get_scheme
from repro.util.rng import derive_seed

#: leakage channels a cell can measure
LEAKAGE_CHANNELS = ("eq7", "flush_reload", "occupancy")

#: default trials per channel (eq7 samples are nearly free; the cache
#: channels simulate hundreds of tag-store operations per trial)
DEFAULT_TRIALS = {"eq7": 6000, "flush_reload": 1500, "occupancy": 800}

#: Table III window sizes that enable random fill (size 1 = demand fetch)
RANDOM_FILL_WINDOW_SIZES = (2, 4, 8, 16, 32)

#: bump whenever leakage measurement code changes results for unchanged
#: specs (estimators, channel samplers, adapters, seed derivation) — it
#: keys the runner's content-addressed result cache.
LEAKAGE_CODE_VERSION = 1


@dataclass(frozen=True)
class LeakageCellSpec:
    """One leakage measurement point.

    ``window`` is the ``(a, b)`` bound pair; required (enabled) for the
    random fill schemes and for the ``eq7`` reference channel, and
    absent for every other fill strategy.
    """

    channel: str
    scheme: str = "random_fill"
    window: Optional[Tuple[int, int]] = None
    m_lines: int = 16
    cache_bytes: int = 8 * 1024
    trials: int = 0  # 0 -> DEFAULT_TRIALS[channel]
    seed: int = 0
    curve_points: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    curve_repeats: int = 200

    def __post_init__(self) -> None:
        if self.channel not in LEAKAGE_CHANNELS:
            raise ValueError(
                f"unknown channel {self.channel!r}; known: {LEAKAGE_CHANNELS}"
            )
        spec = get_scheme(self.scheme, functional=True)
        if self.m_lines <= 1:
            raise ValueError(f"m_lines must be > 1, got {self.m_lines}")
        needs_window = self.channel == "eq7" or spec.uses_window
        if needs_window and self.window is None:
            raise ValueError(
                f"channel {self.channel!r} / scheme {self.scheme!r} needs a window"
            )
        if not needs_window and self.window is not None:
            raise ValueError(f"scheme {self.scheme!r} cannot honour a window")

    @property
    def effective_trials(self) -> int:
        return self.trials if self.trials > 0 else DEFAULT_TRIALS[self.channel]

    @property
    def window_size(self) -> int:
        """W = a + b + 1 (1 means demand fetch)."""
        if self.window is None:
            return 1
        return self.window[0] + self.window[1] + 1

    def result_cache_token(self) -> str:
        """Code-version key for the runner's result cache (a leakage
        cell's result depends only on this module's measurement code,
        not on the trace generators)."""
        return f"leakage{LEAKAGE_CODE_VERSION}"

    def batch_group_key(self):
        """Grouping key for the batch planner (dispatch-unit batches).

        Leakage cells share no heavy per-group state, but cells of one
        (channel, scheme) pair are cheap-per-cell and numerous, so
        shipping them to a worker as one batch amortizes the dispatch,
        pickle, and telemetry round trips.  Each cell still runs its
        own independent RNG streams inside the batch.
        """
        return ("leakage", self.channel, self.scheme)

    # -- execution --------------------------------------------------------

    def run(self) -> "LeakageCellResult":
        """Measure this cell; pure function of the spec."""
        joint = self._collect_joint()
        curve = tuple(
            success_rate_curve(
                joint,
                self.curve_points,
                repeats=self.curve_repeats,
                seed=derive_seed(
                    self.seed, "curve", self.channel, self.scheme, self.window
                ),
            )
        )
        analytic = self._analytic_bits()
        return LeakageCellResult(
            channel=self.channel,
            scheme=self.scheme,
            window=self.window,
            window_size=self.window_size,
            m_lines=self.m_lines,
            trials=self.effective_trials,
            seed=self.seed,
            mi_bits=mutual_information_bits(joint),
            mi_plugin_bits=mutual_information_bits(joint, correction="none"),
            guessing_entropy=conditional_guessing_entropy(joint),
            blind_guessing_entropy=guessing_entropy(joint),
            analytic_bits=analytic,
            demand_bits=math.log2(self.m_lines),
            success_curve=curve,
            n_to_success_90=n_to_success(curve, target=0.9),
        )

    def _collect_joint(self) -> JointCounts:
        trials = self.effective_trials
        if self.channel == "eq7":
            return sample_window_channel(
                self.m_lines,
                RandomFillWindow(*self.window),
                trials,
                seed=derive_seed(self.seed, "eq7-cell", self.window),
            )
        from repro.leakage.adapters import build_functional_scheme
        from repro.secure.region import ProtectedRegion

        region = ProtectedRegion(0x10000, self.m_lines * 64)
        window = RandomFillWindow(*self.window) if self.window else None
        scheme = build_functional_scheme(
            self.scheme,
            region,
            window=window,
            cache_bytes=self.cache_bytes,
            seed=derive_seed(
                self.seed, "scheme", self.channel, self.scheme, self.window
            ),
        )
        if self.channel == "occupancy":
            from repro.leakage.occupancy import run_occupancy_trials

            result = run_occupancy_trials(
                scheme,
                trials=trials,
                seed=derive_seed(self.seed, "occ", self.scheme, self.window),
            )
            return result.joint
        # flush_reload (lazy: repro.attacks itself imports the estimators)
        from repro.attacks.flush_reload import run_flush_reload_trials

        result = run_flush_reload_trials(
            scheme.tag_store,
            region,
            scheme.window,
            trials=trials,
            seed=derive_seed(self.seed, "fr", self.scheme, self.window),
            victim_cache=scheme.victim_cache if scheme.custom_fill else None,
        )
        return result.joint

    def _analytic_bits(self) -> Optional[float]:
        """The closed-form Eq. 7/8 capacity, where the model applies.

        The Equation (7) channel describes a single secret access under
        random fill on a conventional substrate — so it is exact for
        ``eq7``, an upper bound for Flush-Reload on the SA random fill
        scheme (the attacker probing only the region can never beat the
        full-observation receiver), and ``log2 M`` for any demand-fetch
        flush-reload.  The occupancy channel has no closed form here,
        and neither do custom fill strategies (Random-and-Safe's decoy
        fill is outside the windowed model).
        """
        if self.channel == "occupancy":
            return None
        if self.channel == "eq7":
            return channel_capacity_bits(self.m_lines, RandomFillWindow(*self.window))
        strategy = get_scheme(self.scheme, functional=True).fill_strategy
        if strategy == RANDOM_FILL:
            return channel_capacity_bits(self.m_lines, RandomFillWindow(*self.window))
        if strategy == NOFILL_RANDOM:
            return None
        return math.log2(self.m_lines)


@dataclass(frozen=True)
class LeakageCellResult:
    """Every metric the leakage table reports for one cell."""

    channel: str
    scheme: str
    window: Optional[Tuple[int, int]]
    window_size: int
    m_lines: int
    trials: int
    seed: int
    mi_bits: float  # Miller-Madow corrected
    mi_plugin_bits: float
    guessing_entropy: float  # conditional on the observation
    blind_guessing_entropy: float  # no observation: (M + 1) / 2 baseline
    analytic_bits: Optional[float]  # Eq. 7/8 capacity where defined
    demand_bits: float  # log2 M, the Figure 5 normalizer
    success_curve: Tuple[Tuple[int, float, float], ...]
    n_to_success_90: Optional[int]

    def to_json(self) -> Dict:
        return {
            "channel": self.channel,
            "scheme": self.scheme,
            "window": list(self.window) if self.window else None,
            "window_size": self.window_size,
            "m_lines": self.m_lines,
            "trials": self.trials,
            "seed": self.seed,
            "mi_bits": self.mi_bits,
            "mi_plugin_bits": self.mi_plugin_bits,
            "guessing_entropy": self.guessing_entropy,
            "blind_guessing_entropy": self.blind_guessing_entropy,
            "analytic_bits": self.analytic_bits,
            "demand_bits": self.demand_bits,
            "success_curve": [list(point) for point in self.success_curve],
            "n_to_success_90": self.n_to_success_90,
        }


def window_pair(size: int) -> Optional[Tuple[int, int]]:
    """The bidirectional ``(a, b)`` pair for a Table III window size."""
    if size == 1:
        return None
    window = RandomFillWindow.bidirectional(size)
    return (window.a, window.b)


def leakage_grid(
    channels: Sequence[str] = LEAKAGE_CHANNELS,
    schemes: Sequence[str] = LEAKAGE_SCHEMES,
    window_sizes: Sequence[int] = RANDOM_FILL_WINDOW_SIZES,
    m_lines: int = 16,
    cache_bytes: int = 8 * 1024,
    seeds: Sequence[int] = (0,),
    trials: int = 0,
    curve_repeats: int = 200,
) -> List[LeakageCellSpec]:
    """Build the scheme x window x seed cell grid.

    ``eq7`` contributes one cell per window size (it has no scheme);
    random fill schemes contribute one cell per window size; every
    other scheme one cell each.  The default ``schemes`` is every
    registered functional scheme.  ``trials`` 0 keeps the per-channel
    defaults.
    """
    specs: List[LeakageCellSpec] = []
    for seed in seeds:
        for channel in channels:
            if channel not in LEAKAGE_CHANNELS:
                raise ValueError(f"unknown channel {channel!r}")
            if channel == "eq7":
                for size in window_sizes:
                    specs.append(
                        LeakageCellSpec(
                            channel="eq7",
                            scheme="random_fill",
                            window=window_pair(size),
                            m_lines=m_lines,
                            trials=trials,
                            seed=seed,
                            curve_repeats=curve_repeats,
                        )
                    )
                continue
            for scheme in schemes:
                windowed = get_scheme(scheme, functional=True).uses_window
                cell_windows = (
                    [window_pair(size) for size in window_sizes] if windowed else [None]
                )
                for window in cell_windows:
                    specs.append(
                        LeakageCellSpec(
                            channel=channel,
                            scheme=scheme,
                            window=window,
                            m_lines=m_lines,
                            cache_bytes=cache_bytes,
                            trials=trials,
                            seed=seed,
                            curve_repeats=curve_repeats,
                        )
                    )
    return specs


def run_leakage_cell(spec: LeakageCellSpec) -> LeakageCellResult:
    """Module-level cell entry point (picklable for worker processes)."""
    return spec.run()


def run_leakage_sweep(
    specs: Sequence[LeakageCellSpec],
    jobs: Optional[int] = None,
    telemetry=None,
    progress: Optional[bool] = None,
) -> List[LeakageCellResult]:
    """Run a grid of leakage cells through the supervised runner.

    ``telemetry`` (a :class:`repro.runner.telemetry.Telemetry` or a
    JSONL path) and ``progress`` are forwarded to
    :func:`repro.runner.pool.run_cells`; when ``None`` they inherit the
    enclosing :func:`repro.runner.pool.run_context`, which is how the
    ``--telemetry`` CLI flag reaches this sweep.  Cells batch per
    (channel, scheme) unless ``REPRO_LANES=0``.
    """
    # Load the attack code in this process: pool workers fork from it,
    # and would otherwise each import it again on every sweep.
    import repro.attacks.flush_reload  # noqa: F401
    from repro.runner.pool import run_cells

    return run_cells(specs, jobs=jobs, telemetry=telemetry, progress=progress)
