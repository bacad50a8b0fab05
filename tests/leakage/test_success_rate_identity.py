"""The vectorized success-rate estimator equals the scalar loop, bit for bit.

``_scalar_success_rate_curve`` is the per-repeat, per-secret loop the
vectorized estimator replaced, kept here as the reference: same
``random.Random`` draw stream, same templates, a scalar left-to-right
score sum per secret.  The left-to-right accumulation is written out
because it is the float semantics ``sum`` had up to CPython 3.11 (3.12
made ``sum`` compensate float rounding); the estimator pins that order
on every version.
"""

import math
import random
from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.window import RandomFillWindow
from repro.leakage.estimators import JointCounts, sample_window_channel, success_rate_curve
from repro.util.rng import derive_seed


def _left_sum(values):
    total = 0
    for value in values:
        total = total + value
    return total


def _scalar_success_rate_curve(joint, measurement_counts, repeats, seed, smoothing=0.5):
    secrets = joint.secrets
    obs_alphabet = list(joint.observation_marginal())
    k_obs = len(obs_alphabet) + 1
    rows = [joint.row(secret) for secret in secrets]
    cum_tables = []
    for row in rows:
        symbols = list(row)
        cum = []
        running = 0
        for obs in symbols:
            running += row[obs]
            cum.append(running)
        cum_tables.append((symbols, cum, running))
    log_templates = []
    for row in rows:
        denom = math.log(sum(row.values()) + smoothing * k_obs)
        log_templates.append(
            {obs: math.log(row.get(obs, 0) + smoothing) - denom for obs in obs_alphabet}
        )
    floor_scores = [
        math.log(smoothing) - math.log(sum(row.values()) + smoothing * k_obs) for row in rows
    ]
    points = []
    for n in measurement_counts:
        rng = random.Random(derive_seed(seed, "success-rate", n))
        successes = 0
        rank_sum = 0.0
        for _ in range(repeats):
            true_idx = rng.randrange(len(secrets))
            symbols, cum, total_s = cum_tables[true_idx]
            drawn = [symbols[bisect_right(cum, rng.randrange(total_s))] for _ in range(n)]
            scores = []
            for idx in range(len(secrets)):
                template = log_templates[idx]
                floor = floor_scores[idx]
                scores.append(_left_sum(template.get(obs, floor) for obs in drawn))
            true_score = scores[true_idx]
            higher = sum(1 for s in scores if s > true_score)
            ties = sum(1 for s in scores if s == true_score) - 1
            if higher == 0 and ties == 0:
                successes += 1
            rank_sum += 1 + higher + ties / 2.0
        points.append((n, successes / repeats, rank_sum / repeats))
    return points


def _assert_identical(joint, counts, repeats, seed, smoothing=0.5):
    fast = success_rate_curve(joint, counts, repeats=repeats, seed=seed, smoothing=smoothing)
    slow = _scalar_success_rate_curve(joint, counts, repeats, seed, smoothing)
    assert fast == slow
    # Same types too: the rows are serialized as JSON downstream.
    for point in fast:
        assert type(point[1]) is float and type(point[2]) is float


#: a joint as ``{secret: {observation: count}}``: uneven rows (row sizes
#: and totals differ), observations shared between secrets or not
_nested = st.dictionaries(
    st.integers(0, 12),
    st.dictionaries(st.integers(-3, 9), st.integers(1, 40), min_size=1, max_size=6),
    min_size=1,
    max_size=6,
)


class TestScalarIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        nested=_nested,
        counts=st.lists(st.integers(1, 12), min_size=1, max_size=4),
        repeats=st.integers(1, 30),
        seed=st.integers(0, 2**32),
    )
    def test_random_joints(self, nested, counts, repeats, seed):
        _assert_identical(JointCounts.from_nested(nested), counts, repeats, seed)

    def test_tied_templates(self):
        # Identical rows: every secret scores the same, so every attack
        # is a full tie (rank = mean of the block, never a success).
        row = {0: 5, 1: 3, (2, 7): 1}
        joint = JointCounts.from_nested({secret: row for secret in range(5)})
        _assert_identical(joint, (1, 3, 8), repeats=40, seed=11)
        assert success_rate_curve(joint, (1,), repeats=40, seed=11) == [(1, 0.0, 3.0)]

    def test_single_secret(self):
        joint = JointCounts.from_nested({4: {0: 2, 1: 7}})
        _assert_identical(joint, (1, 2, 5), repeats=25, seed=3)
        assert success_rate_curve(joint, (1,), repeats=25, seed=3) == [(1, 1.0, 1.0)]

    def test_single_measurement(self):
        joint = sample_window_channel(16, RandomFillWindow.bidirectional(4), trials=900, seed=4)
        _assert_identical(joint, (1,), repeats=200, seed=5)

    def test_uneven_rows_and_tuple_observations(self):
        joint = JointCounts.from_nested(
            {
                0: {(): 30, (0,): 1},
                1: {(1,): 12},
                2: {(): 2, (2,): 3, (1, 2): 1, (3,): 9},
            }
        )
        _assert_identical(joint, (1, 2, 4, 8, 16, 32), repeats=60, seed=6, smoothing=0.25)

    def test_default_leakage_cell_shape(self):
        joint = sample_window_channel(16, RandomFillWindow.bidirectional(8), trials=6000, seed=2)
        _assert_identical(joint, (1, 2, 4, 8, 16, 32), repeats=200, seed=9)
