"""Per-device transmission parameter selection policies.

Four policies share one interface: the variance-aware upper-confidence-bound
learner (the proposed method), epsilon-greedy, a static even channel
assignment, and ADR-Lite's outcome-driven binary search over a quality-sorted
parameter list.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from enum import Enum
from functools import cache
from math import log, sqrt
from typing import TYPE_CHECKING, NamedTuple

from .params import ConfigError, ParamCombo

if TYPE_CHECKING:
    from .rng import DeviceRng

MAX_BERNOULLI_VARIANCE = 0.25
_NEG_INF = -math.inf


class Phase(Enum):
    INITIALIZATION = "initialization"
    LEARNED = "learned"


class ArmState:
    """Running statistics for one arm.

    mean and variance (the empirical variance of the rewards, clamped at 0)
    are derived from the sums when the state is built and kept current by
    _ArmLearner.observe() with the same operations, so a decision reads them
    instead of recomputing them. Two states are equal if every field is.
    """

    __slots__ = ("pulls", "reward_sum", "reward_sq_sum", "mean", "variance")

    def __init__(self, pulls: int = 0, reward_sum: float = 0.0, reward_sq_sum: float = 0.0):
        self.pulls, self.reward_sum, self.reward_sq_sum = pulls, reward_sum, reward_sq_sum
        self.mean = self.variance = 0.0
        if pulls:
            self.mean = mean = reward_sum / pulls
            self.variance = max(reward_sq_sum / pulls - mean ** 2, 0.0)

    def __eq__(self, other):
        if type(other) is not ArmState:
            return NotImplemented
        return ([getattr(self, f) for f in self.__slots__]
                == [getattr(other, f) for f in self.__slots__])


class PolicyDecision(NamedTuple):
    """An arm and its phase, which perfbench's traced UCB span reads."""

    arm_index: int
    phase: Phase = Phase.LEARNED


@cache
def _phase_decisions(n_arms: int, phase: Phase) -> tuple[PolicyDecision, ...]:
    """Each arm's decision in one phase, built once per arm count and shared
    by every learner."""
    return tuple(PolicyDecision(i, phase) for i in range(n_arms))


def fixed_choices(arms: list[ParamCombo]) -> list[PolicyDecision]:
    """The fixed policy's decisions: per receivable channel, by ascending
    frequency, its arm at the minimum power."""
    channels = sorted({a.channel for a in arms if a.channel.receivable},
                      key=lambda c: c.center_frequency_hz)
    if not channels:
        raise ConfigError("no receivable channel to pin the fixed policy on")
    min_level = min(a.power.level_dbm for a in arms)
    lowest = {a.channel: a.arm_index for a in reversed(arms) if a.power.level_dbm == min_level}
    if not lowest.keys() >= set(channels):
        raise ConfigError("arm space does not contain the fixed assignment")
    return [PolicyDecision(lowest[c]) for c in channels]


def adr_lite_next(prev_index: int, acked: bool, list_len: int) -> int:
    """Binary-search step through the quality-sorted parameter list.

    Success halves toward the head (cheaper parameters, floor); failure
    moves to the midpoint of the previous pick and the tail (ceil).
    """
    if not 0 <= prev_index < list_len:
        raise ValueError(f"prev_index {prev_index} out of [0, {list_len})")
    if acked:
        return prev_index // 2
    return math.ceil((list_len - 1 + prev_index) / 2)


def adr_lite_list(arms: list[ParamCombo]) -> list[ParamCombo]:
    """The arms in ADR-Lite's search order, on any channel plan.

    Power-major ascending; within one power the channels run worst-first:
    the non-receivable channels (guaranteed losers) come first, then the
    receivable ones, each group by ascending frequency.
    """
    return sorted(arms, key=lambda a: (
        a.power.level_dbm, a.channel.receivable, a.channel.center_frequency_hz))


def adr_lite_search(arms: list[ParamCombo]) -> list[PolicyDecision]:
    """ADR-Lite's search list: the decisions of adr_lite_list's arms, in order."""
    return [PolicyDecision(a.arm_index) for a in adr_lite_list(arms)]


class _ArmLearner:
    """The per-arm statistics both learners keep: one ArmState per arm, the
    total number of plays, how many arms are unpulled and each arm's
    learned-phase decision, shared with every learner of its arm count."""

    def __init__(self, n_arms: int, rng: DeviceRng):
        self.rng = rng
        self.arms = [ArmState() for _ in range(n_arms)]
        self.total_plays = 0
        self.unpulled = n_arms
        self._decisions = _phase_decisions(n_arms, Phase.LEARNED)

    def observe(self, arm_index: int, acked: bool, reward: float) -> None:
        """Fold one attempt's reward into its arm's statistics in this one
        frame, with ArmState.__init__'s operations in the same order (the
        clamp as a comparison, which gives what max(v, 0.0) gives, -0.0 and
        NaN included); a reward outside [0, inf), NaN included, is refused
        before any change."""
        if not 0.0 <= reward < math.inf:
            raise ValueError(f"reward {reward} is not in [0, inf)")
        arm = self.arms[arm_index]
        if arm.pulls == 0:
            self.unpulled -= 1
        arm.pulls = pulls = arm.pulls + 1
        arm.reward_sum = reward_sum = arm.reward_sum + reward
        arm.reward_sq_sum = reward_sq_sum = arm.reward_sq_sum + reward ** 2
        arm.mean = mean = reward_sum / pulls
        v = reward_sq_sum / pulls - mean ** 2
        arm.variance = 0.0 if v < 0.0 else v
        self.total_plays += 1


class UcbTunedPolicy(_ArmLearner):
    """UCB1-Tuned (Auer, Cesa-Bianchi & Fischer, 2002): after the
    initialization pass, the arm of highest score

        mean + sqrt(ln m / pulls * min(1/4, variance + sqrt(2 ln m / pulls)))

    at m total plays. Each arm keeps a bound mean + sqrt(ln H / pulls * 1/4)
    on its score for every m with ln m <= ln H, H a horizon ahead of the
    total plays; the (bound, arm) pairs stay sorted, so a decision scores
    only the arms that can still win.
    """

    def __init__(self, n_arms: int, rng: DeviceRng):
        super().__init__(n_arms, rng)
        self._initial = _phase_decisions(n_arms, Phase.INITIALIZATION)
        self._forced = 0  # no arm below it is unpulled: observe only adds pulls
        self._log_h = _NEG_INF  # no bounds before the first learned decision
        self._bounds: list[float] = []
        self._ranked: list[tuple[float, int]] = []

    def observe(self, arm_index: int, acked: bool, reward: float) -> None:
        _ArmLearner.observe(self, arm_index, acked, reward)
        ranked = self._ranked
        if ranked:
            bounds = self._bounds
            del ranked[bisect_left(ranked, (bounds[arm_index], arm_index))]
            arm = self.arms[arm_index]
            bounds[arm_index] = b = arm.mean + sqrt(
                self._log_h / arm.pulls * MAX_BERNOULLI_VARIANCE)
            insort(ranked, (b, arm_index))

    def select(self) -> PolicyDecision:
        """Uncovered arms first, then max score.

        While any arm is unpulled the lowest-indexed such arm is forced
        (initialization pass); afterwards the max-score arm wins, with exact
        ties broken uniformly at random. Arms are scored in descending bound
        order until a bound falls below the best score: the bound and the
        score take the same steps with ln H >= ln m and 1/4 >= min(1/4, V),
        and every step rounds monotonically, so no arm after it can reach
        that score, let alone tie it.
        """
        arms = self.arms
        if self.unpulled:
            i = self._forced
            while arms[i].pulls:
                i += 1
            self._forced = i
            return self._initial[i]
        m = self.total_plays
        log_m = log(m)
        if log_m > self._log_h:  # rebuild, valid for ~1/8 more plays: few rebuilds, tight bounds
            self._log_h = log_h = log(m + m // 8 + 1)
            self._bounds = bounds = [
                arm.mean + sqrt(log_h / arm.pulls * MAX_BERNOULLI_VARIANCE) for arm in arms]
            self._ranked = sorted(zip(bounds, range(len(arms))))
        two_log_m = 2.0 * log_m
        best, tied = _NEG_INF, None  # tied lists the arms only once two scores tie
        for bound, k in reversed(self._ranked):
            if bound < best:
                break
            arm = arms[k]
            pulls = arm.pulls
            v = arm.variance + sqrt(two_log_m / pulls)
            score = arm.mean + sqrt(log_m / pulls * (
                v if v < MAX_BERNOULLI_VARIANCE else MAX_BERNOULLI_VARIANCE))
            if score > best:
                best, first, tied = score, k, None
            elif score == best:
                if tied is None:
                    tied = [first, k]
                else:
                    tied.append(k)
        if tied:
            tied.sort()
            return self._decisions[tied[self.rng.integers(len(tied))]]
        return self._decisions[first]


class EpsilonGreedyPolicy(_ArmLearner):
    def __init__(self, n_arms: int, epsilon: float, rng: DeviceRng):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        super().__init__(n_arms, rng)
        self.epsilon = epsilon
        self._best, self._tied = 0.0, []  # the ascending arms of mean _best; [] if unknown

    def observe(self, arm_index: int, acked: bool, reward: float) -> None:
        _ArmLearner.observe(self, arm_index, acked, reward)
        tied = self._tied
        if tied:  # only this arm's mean moved
            mean = self.arms[arm_index].mean
            if mean > self._best:
                self._best, self._tied = mean, [arm_index]
            elif mean == self._best:
                if arm_index not in tied:
                    insort(tied, arm_index)
            elif arm_index in tied:
                tied.remove(arm_index)

    def select(self) -> PolicyDecision:
        """Uniform random arm with probability epsilon, else best mean reward.

        Unpulled arms count as mean 0; greedy ties break uniformly at random,
        with one draw only if arms tie. observe keeps the tie set current; it is
        rebuilt from the means before the first greedy pick and when it empties.
        """
        if self.rng.random() < self.epsilon:
            return self._decisions[self.rng.integers(len(self.arms))]
        tied = self._tied
        if not tied:
            self._best = best = max(arm.mean for arm in self.arms)
            self._tied = tied = [i for i, arm in enumerate(self.arms) if arm.mean == best]
        if len(tied) > 1:
            return self._decisions[tied[self.rng.integers(len(tied))]]
        return self._decisions[tied[0]]


class FixedPolicy:
    """Constant arm: device i's is fixed_choices(arms)[i % len(choices)], the
    receivable channels round-robin at the minimum power, from one list
    that a run builds for all its devices."""

    def __init__(self, decision: PolicyDecision):
        self.decision = decision

    def select(self) -> PolicyDecision:
        return self.decision

    def observe(self, arm_index: int, acked: bool, reward: float) -> None:
        pass


class AdrLitePolicy:
    """Stateless-history search: only the previous outcome steers the walk
    through adr_lite_search's list, which the devices of a run share."""

    def __init__(self, search: list[PolicyDecision]):
        self.search = search
        self.next_list_index = len(self.search) - 1
        self._pending_list_index: int | None = None

    def select(self) -> PolicyDecision:
        self._pending_list_index = i = self.next_list_index
        return self.search[i]

    def observe(self, arm_index: int, acked: bool, reward: float) -> None:
        if self._pending_list_index is None:
            raise RuntimeError("observe() without a preceding select()")
        self.next_list_index = adr_lite_next(
            self._pending_list_index, acked, len(self.search)
        )
        self._pending_list_index = None
