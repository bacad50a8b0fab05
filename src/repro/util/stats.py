"""Small statistics helpers used by the attack and analysis modules.

Kept dependency-light (no scipy import at module load) so the hot attack
loops can use them cheaply.
"""

from __future__ import annotations

import math
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input (silent 0 hides bugs)."""
    if not values:
        raise ValueError("mean() of empty sequence")
    return sum(values) / len(values)


def population_variance(values: Sequence[float]) -> float:
    """Population variance (divide by N)."""
    m = mean(values)
    return sum((v - m) ** 2 for v in values) / len(values)


def sample_variance(values: Sequence[float]) -> float:
    """Unbiased sample variance (divide by N-1)."""
    if len(values) < 2:
        raise ValueError("sample_variance() needs at least two values")
    m = mean(values)
    return sum((v - m) ** 2 for v in values) / (len(values) - 1)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (in [0, 1]) of a sorted sequence.

    The rank is ``round(q * (n - 1))``, so the result is always one of
    the values (no interpolation); an empty sequence gives 0.0.  Used
    for the runner's and the service's latency percentiles.
    """
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


def welch_t(a: Sequence[float], b: Sequence[float]) -> float:
    """Welch's t statistic between two samples.

    Used by attack code to decide whether two timing populations
    (collision vs no-collision) are distinguishable.
    """
    va = sample_variance(a) / len(a)
    vb = sample_variance(b) / len(b)
    denom = math.sqrt(va + vb)
    if denom == 0.0:
        return 0.0 if mean(a) == mean(b) else math.inf
    return (mean(a) - mean(b)) / denom


def normal_quantile(p: float) -> float:
    """Quantile (inverse CDF) of the standard normal distribution.

    Acklam's rational approximation — accurate to ~1e-9, which is far
    beyond what Equation (5)'s measurement-count estimate needs.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    # Coefficients for the central and tail regions.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > p_high:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
