"""The UCB1-Tuned score as the paper writes it, one arm at a time.

UcbTunedPolicy.select scores arms inline; these functions are the formula
it must follow bit for bit (the same operations in the same order), so the
policy tests compare its decisions with an argmax of ucb_score, and
criterion 2 compares ucb_score with an evaluator written from the paper.
"""

from __future__ import annotations

import math

from lorabandit.policies import MAX_BERNOULLI_VARIANCE, ArmState


def ucb_variance(arm: ArmState, m: int) -> float:
    """Variance estimator: sigma^2 + sqrt(2 ln m / pulls)."""
    if arm.pulls < 1:
        raise ValueError("arm has never been pulled; run initialization first")
    if m < arm.pulls:
        raise ValueError(f"total plays {m} < arm pulls {arm.pulls}")
    return arm.variance + math.sqrt(2.0 * math.log(m) / arm.pulls)


def ucb_score(arm: ArmState, m: int) -> float:
    """Mean reward plus the variance-capped exploration bonus.

    score = C/S + sqrt((ln m / S) * min(1/4, V)) with V from ucb_variance.
    """
    if arm.pulls < 1:
        raise ValueError("arm has never been pulled; run initialization first")
    v = ucb_variance(arm, m)
    bonus = math.sqrt(
        (math.log(m) / arm.pulls) * min(MAX_BERNOULLI_VARIANCE, v)
    )
    return arm.mean + bonus
