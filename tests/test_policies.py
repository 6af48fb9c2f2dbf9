"""Selection policies: UCB scoring, epsilon-greedy, fixed, and ADR-Lite."""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from lorabandit import ExperimentConfig, run_simulation
from lorabandit.params import (
    Channel,
    ConfigError,
    TxPower,
    build_arm_space,
    default_channels,
    default_powers,
)
from lorabandit.policies import (
    AdrLitePolicy,
    ArmState,
    EpsilonGreedyPolicy,
    FixedPolicy,
    Phase,
    PolicyDecision,
    UcbTunedPolicy,
    adr_lite_list,
    adr_lite_next,
    adr_lite_search,
)
from lorabandit.netsim import POLICY_NAMES
from lorabandit.sweep import run_seed
from reference_sim import select_fixed
from reference_ucb import ucb_score, ucb_variance

REL = 1e-12


def arm(pulls=0, reward_sum=0.0, reward_sq_sum=0.0):
    return ArmState(pulls, reward_sum, reward_sq_sum)


def default_arms():
    return build_arm_space(default_channels(), default_powers())


def with_arms(policy, arms):
    """policy, its statistics replaced by arms as if it had pulled them."""
    policy.arms = arms
    policy.total_plays = sum(a.pulls for a in arms)
    policy.unpulled = sum(a.pulls == 0 for a in arms)
    return policy


def ucb(arms, rng, m=None):
    """A UCB learner holding arms, after m plays (default: their pulls)."""
    policy = with_arms(UcbTunedPolicy(len(arms), rng), arms)
    if m is not None:
        policy.total_plays = m
    return policy


def eps_greedy(arms, epsilon, rng):
    return with_arms(EpsilonGreedyPolicy(len(arms), epsilon, rng), arms)


def learner():
    return UcbTunedPolicy(1, np.random.default_rng(0))


# --- UCB variance and score -------------------------------------------------

def test_ucb_variance_single_pull():
    got = ucb_variance(arm(pulls=1), m=25)
    assert got == pytest.approx(math.sqrt(2 * math.log(25)), rel=REL)
    assert got == pytest.approx(2.5373, rel=1e-4)


def test_ucb_variance_with_sample_variance():
    # Two samples 0.3/0.7 around mean 0.5 give sigma^2 = 0.04; four pulls of
    # the same spread keep it at 0.04.
    a = arm(pulls=4, reward_sum=2.0, reward_sq_sum=2 * 0.09 + 2 * 0.49)
    got = ucb_variance(a, m=math.e**2)
    assert got == pytest.approx(0.04 + 1.0, rel=REL)


def test_ucb_variance_m_one():
    assert ucb_variance(arm(pulls=1), m=1) == 0.0


def test_ucb_variance_unpulled_rejected():
    with pytest.raises(ValueError):
        ucb_variance(arm(), m=5)
    with pytest.raises(ValueError):
        ucb_variance(arm(pulls=3), m=2)


def test_ucb_score_capped_variance():
    a = arm(pulls=1, reward_sum=1.0, reward_sq_sum=1.0)
    got = ucb_score(a, m=25)
    assert got == pytest.approx(1.0 + math.sqrt(math.log(25) * 0.25), rel=REL)
    assert got == pytest.approx(1.8971, rel=1e-4)


def test_ucb_score_zero_history():
    assert ucb_score(arm(pulls=1), m=1) == 0.0


def test_ucb_score_partial_history():
    # Two pulls of 0.25 each: mean 0.25, sigma^2 = 0, V = sqrt(2 ln4 / 2).
    a = arm(pulls=2, reward_sum=0.5, reward_sq_sum=0.125)
    v = math.sqrt(2 * math.log(4) / 2)
    expected = 0.25 + math.sqrt((math.log(4) / 2) * min(0.25, v))
    assert ucb_score(a, m=4) == pytest.approx(expected, rel=REL)
    assert ucb_score(a, m=4) == pytest.approx(0.66628, rel=1e-4)


def test_equal_states_equal_scores():
    a = arm(pulls=3, reward_sum=1.2, reward_sq_sum=0.9)
    b = arm(pulls=3, reward_sum=1.2, reward_sq_sum=0.9)
    assert ucb_score(a, m=10) == ucb_score(b, m=10)


# --- UCB selection ------------------------------------------------------------

def test_select_ucb_initialization_pass():
    rng = np.random.default_rng(0)
    d = UcbTunedPolicy(4, rng).select()
    assert d.arm_index == 0
    assert d.phase is Phase.INITIALIZATION


def test_select_ucb_lowest_unpulled_first():
    rng = np.random.default_rng(0)
    arms = [arm(pulls=1), arm(), arm()]
    assert ucb(arms, rng).select().arm_index == 1


def test_select_ucb_prefers_higher_score():
    rng = np.random.default_rng(0)
    arms = [
        arm(pulls=1, reward_sum=1.0, reward_sq_sum=1.0),   # score ~1.8971 at m=25
        arm(pulls=20, reward_sum=2.0, reward_sq_sum=0.2),  # low mean, low bonus
    ]
    d = ucb(arms, rng, m=25).select()
    assert d.arm_index == 0
    assert d.phase is Phase.LEARNED


def test_select_ucb_tie_break_is_uniform():
    rng = np.random.default_rng(42)
    wins = 0
    for _ in range(10_000):
        arms = [arm(pulls=2, reward_sum=1.0, reward_sq_sum=0.5) for _ in range(2)]
        wins += ucb(arms, rng).select().arm_index
    assert abs(wins / 10_000 - 0.5) < 0.05


# --- incremental statistics against the sums -------------------------------

# Rewards the learners can be fed: zero, subnormals, large values up to the
# largest one whose square is finite, and a few repeated values, so that arms
# tie. A run's rewards are at most 1 (netsim.cost_rows), so the config
# refuses none; the learners' arithmetic holds well beyond that.
REWARDS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 0.25, 0.5, 1.0, 1e150, 1.3e154]),
    st.floats(min_value=0.0, max_value=1.3e154),
)
FEEDBACK = st.lists(st.tuples(st.booleans(), REWARDS), max_size=60)


def from_sums(arms: list[ArmState]) -> list[ArmState]:
    return [ArmState(a.pulls, a.reward_sum, a.reward_sq_sum) for a in arms]


def tied_argmax(values: list[float], rng) -> int:
    """Index of the largest value, with one draw from rng among exact ties."""
    best = max(values)
    tied = [i for i, v in enumerate(values) if v == best]
    return tied[0] if len(tied) == 1 else tied[rng.integers(len(tied))]


def ucb_oracle(arms: list[ArmState], m: int, rng) -> PolicyDecision:
    """The lowest unpulled arm, else the arm of highest ucb_score."""
    for i, a in enumerate(arms):
        if a.pulls == 0:
            return PolicyDecision(i, Phase.INITIALIZATION)
    return PolicyDecision(tied_argmax([ucb_score(a, m) for a in arms], rng), Phase.LEARNED)


def epsilon_oracle(arms: list[ArmState], epsilon: float, rng) -> PolicyDecision:
    """A uniform arm with probability epsilon, else the arm of highest mean."""
    if rng.random() < epsilon:
        return PolicyDecision(rng.integers(len(arms)))
    return PolicyDecision(tied_argmax([a.mean for a in arms], rng))


def drive(policy, feedback, expected_decision):
    """Feed the policy, checking each decision against expected_decision(arms,
    rng) on arms rebuilt from the sums and a clone of the policy's rng."""
    for acked, reward in feedback:
        clone = copy.deepcopy(policy.rng)
        rebuilt = from_sums(policy.arms)
        assert rebuilt == policy.arms  # mean and variance too
        want = expected_decision(rebuilt, clone)
        got = policy.select()
        assert got == want
        assert policy.rng.bit_generator.state == clone.bit_generator.state
        policy.observe(got.arm_index, acked, reward if acked else 0.0)


@settings(deadline=None)
@given(n_arms=st.integers(min_value=1, max_value=6), feedback=FEEDBACK,
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_ucb_incremental_matches_sums(n_arms, feedback, seed):
    policy = UcbTunedPolicy(n_arms, np.random.default_rng(seed))
    drive(policy, feedback, lambda arms, rng: ucb_oracle(arms, policy.total_plays, rng))


# Long runs, so that a learner crosses many horizon refreshes, with rewards
# either all from {0, 1/2, 1} (many exact ties) or from REWARDS.
LONG_FEEDBACK = st.one_of(
    st.lists(st.tuples(st.booleans(), st.sampled_from([0.0, 0.5, 1.0])),
             min_size=100, max_size=400),
    st.lists(st.tuples(st.booleans(), REWARDS), min_size=100, max_size=400),
)


@settings(deadline=None, max_examples=60)
@given(n_arms=st.sampled_from([1, 2, 3, 4, 5, 6, 25]), feedback=LONG_FEEDBACK,
       seed=st.integers(min_value=0, max_value=2**32 - 1))
# After this initialization pass every arm is identical: every bound equals
# the floor, all 25 arms are scored, and the one draw covers them all.
@example(n_arms=25, feedback=[(True, 0.5)] * 100, seed=0)
def test_ucb_pruned_select_matches_full_scan(n_arms, feedback, seed):
    # select scores only the arms whose bound reaches the best score so far;
    # it must pick (and draw) exactly as scoring every arm would.
    policy = UcbTunedPolicy(n_arms, np.random.default_rng(seed))
    drive(policy, feedback, lambda arms, rng: ucb_oracle(arms, policy.total_plays, rng))


def test_ucb_scores_few_arms_per_decision(monkeypatch):
    # Work guard for the pruned select on the long UCB run of the benchmark
    # (N=30, 600 attempts, three seeds): a full scan scores all 25 arms.
    # select reads an arm by index (arms[k]) only to score it, so the item
    # reads inside learned decisions count the scored arms.
    reads, scored, learned = [0], [0], [0]

    class ReadCounted(list):
        def __getitem__(self, k):
            reads[0] += 1
            return super().__getitem__(k)

    init, select = UcbTunedPolicy.__init__, UcbTunedPolicy.select

    def counted_init(self, *args):
        init(self, *args)
        self.arms = ReadCounted(self.arms)

    def counting_select(self):
        before = reads[0]
        decision = select(self)
        if decision.phase is Phase.LEARNED:
            learned[0] += 1
            scored[0] += reads[0] - before
        return decision

    monkeypatch.setattr(UcbTunedPolicy, "__init__", counted_init)
    monkeypatch.setattr(UcbTunedPolicy, "select", counting_select)
    cfg = ExperimentConfig(policies=["proposed_ucb_tuned"], device_counts=[30], t_attempts=600)
    for seed in (1, 2, 3):
        run_simulation(cfg.run_setup("proposed_ucb_tuned", 30), seed=seed)
    assert learned[0] > 50_000
    assert scored[0] >= learned[0]  # every learned decision scores an arm
    assert scored[0] / learned[0] <= 8


@settings(deadline=None)
@given(n_arms=st.sampled_from([1, 2, 3, 4, 5, 6, 25]),
       feedback=st.one_of(FEEDBACK, LONG_FEEDBACK),
       epsilon=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       prior=st.lists(st.tuples(st.integers(min_value=0, max_value=24),
                                st.sampled_from([0.0, 0.5, 1.0])), max_size=80))
# The rewards of ack mode: every ACK earns 1.0, so the arms that never
# failed tie at mean 1.0, join the tie set one by one and leave it on a NACK.
@example(n_arms=25, feedback=[(True, 1.0)] * 200, epsilon=0.1, seed=0, prior=[])
@example(n_arms=25, feedback=[(i % 7 != 6, 1.0) for i in range(300)], epsilon=0.5, seed=1,
         prior=[])
def test_epsilon_greedy_incremental_matches_sums(n_arms, feedback, epsilon, seed, prior):
    # The tie set select keeps up to date must give the decisions and the
    # draws of a scan over the means rebuilt from the sums, also when the
    # statistics were put in place (with_arms) after construction.
    policy = EpsilonGreedyPolicy(n_arms, epsilon, np.random.default_rng(seed))
    if prior:
        donor = UcbTunedPolicy(n_arms, np.random.default_rng(0))
        for arm_index, reward in prior:
            donor.observe(arm_index % n_arms, reward > 0, reward)
        with_arms(policy, donor.arms)
    drive(policy, feedback, lambda arms, rng: epsilon_oracle(arms, epsilon, rng))


def test_epsilon_greedy_rebuilds_ties_rarely(monkeypatch):
    # Work guard for the tie set on the stock config's epsilon-greedy runs
    # (one run per device count, 20,000 decisions): select scans the arms
    # only before its first exploit and after the tie set empties.
    decisions, rebuilds, scans = [0], [0], [0]

    class ScanCounted(list):
        def __iter__(self):
            scans[0] += 1
            return super().__iter__()

    init, select = EpsilonGreedyPolicy.__init__, EpsilonGreedyPolicy.select

    def counted_init(self, *args):
        init(self, *args)
        self.arms = ScanCounted(self.arms)

    def counting_select(self):
        before = scans[0]
        decision = select(self)
        decisions[0] += 1
        rebuilds[0] += scans[0] > before
        return decision

    monkeypatch.setattr(EpsilonGreedyPolicy, "__init__", counted_init)
    monkeypatch.setattr(EpsilonGreedyPolicy, "select", counting_select)
    cfg = ExperimentConfig()
    for n in cfg.device_counts:
        run_simulation(cfg.run_setup("epsilon_greedy", n),
                       seed=run_seed(cfg.base_seed, "epsilon_greedy", n, 0))
    assert decisions[0] == 20_000
    assert 0 < rebuilds[0] <= 0.1 * decisions[0]


def test_select_ucb_draws_only_on_ties():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    distinct = [arm(pulls=2, reward_sum=1.0, reward_sq_sum=0.5), arm(pulls=2)]
    assert ucb(distinct, rng).select().arm_index == 0
    assert rng.bit_generator.state == state
    tied = [arm(pulls=2, reward_sum=1.0, reward_sq_sum=0.5) for _ in range(3)]
    ucb(tied, rng).select()
    rng_once = np.random.default_rng(3)
    rng_once.integers(3)
    assert rng.bit_generator.state == rng_once.bit_generator.state


def test_ucb_initialization_completeness():
    policy = UcbTunedPolicy(25, np.random.default_rng(1))
    seen = []
    for _ in range(25):
        d = policy.select()
        assert d.phase is Phase.INITIALIZATION
        seen.append(d.arm_index)
        policy.observe(d.arm_index, acked=True, reward=0.5)
    assert sorted(seen) == list(range(25))
    assert all(a.pulls == 1 for a in policy.arms)
    assert policy.select().phase is Phase.LEARNED


# A step observes arm k (an attempt out of turn), or selects (-2) and then
# observes the selected arm (-1), as the simulator does.
FORCED_STEPS = st.lists(st.integers(min_value=-2, max_value=24), max_size=80)


@settings(deadline=None)
@given(n_arms=st.sampled_from([1, 2, 3, 6, 25]), steps=FORCED_STEPS,
       rewards=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=5))
# The simulator's initialization pass: each select is followed by its observe.
@example(n_arms=25, steps=[-1] * 30, rewards=[0.5])
@example(n_arms=6, steps=[5, 0, -2, -1, 3, -1, -1, 2, -1, 1, -1, -1], rewards=[0.0, 1.0])
def test_ucb_forces_the_lowest_unpulled_arm(n_arms, steps, rewards):
    # Whatever arms were observed before or between selects, an
    # initialization select returns the lowest unpulled arm, and the first
    # learned select comes once no arm is unpulled. The forced arm is kept
    # as a position that only moves up, so the initialization selects read
    # an arm by index at most once each, plus once per arm passed over.
    reads = [0]

    class ReadCounted(list):
        def __getitem__(self, k):
            reads[0] += 1
            return super().__getitem__(k)

    policy = UcbTunedPolicy(n_arms, np.random.default_rng(0))
    policy.arms = ReadCounted(policy.arms)
    init_selects = init_reads = 0
    for t, step in enumerate(steps):
        reward = rewards[t % len(rewards)]
        if step >= 0:
            policy.observe(step % n_arms, reward > 0, reward)
            continue
        unpulled = [i for i, a in enumerate(policy.arms) if a.pulls == 0]
        assert policy.unpulled == len(unpulled)
        before = reads[0]
        decision = policy.select()
        if unpulled:
            assert decision == PolicyDecision(unpulled[0], Phase.INITIALIZATION)
            init_selects += 1
            init_reads += reads[0] - before
        else:
            assert decision.phase is Phase.LEARNED
        if step == -1:
            policy.observe(decision.arm_index, reward > 0, reward)
    assert init_reads <= init_selects + n_arms - 1


# --- epsilon-greedy -----------------------------------------------------------

def test_epsilon_one_is_uniform():
    rng = np.random.default_rng(7)
    arms = [arm(pulls=1, reward_sum=0.9, reward_sq_sum=0.81)] + [
        arm(pulls=1) for _ in range(24)
    ]
    policy = eps_greedy(arms, 1.0, rng)
    counts = np.zeros(25, dtype=int)
    for _ in range(10_000):
        counts[policy.select().arm_index] += 1
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.01


def test_epsilon_zero_is_pure_exploitation():
    rng = np.random.default_rng(7)
    arms = [arm(pulls=10, reward_sum=1.0, reward_sq_sum=0.1) for _ in range(24)]
    arms.insert(13, arm(pulls=10, reward_sum=9.0, reward_sq_sum=8.1))
    policy = eps_greedy(arms, 0.0, rng)
    for _ in range(200):
        assert policy.select().arm_index == 13


def test_epsilon_point_one_greedy_frequency():
    rng = np.random.default_rng(11)
    arms = [arm(pulls=10, reward_sum=9.0, reward_sq_sum=8.1)] + [
        arm(pulls=10, reward_sum=1.0, reward_sq_sum=0.1) for _ in range(24)
    ]
    policy = eps_greedy(arms, 0.1, rng)
    hits = sum(policy.select().arm_index == 0 for _ in range(10_000))
    assert abs(hits / 10_000 - (0.9 + 0.1 / 25)) < 0.02


def test_epsilon_out_of_range():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        EpsilonGreedyPolicy(1, -0.1, rng)
    with pytest.raises(ValueError):
        EpsilonGreedyPolicy(1, 1.5, rng)


def test_unpulled_arms_lose_greedy_ties():
    rng = np.random.default_rng(3)
    arms = [arm(), arm(pulls=5, reward_sum=1.0, reward_sq_sum=0.2), arm()]
    policy = eps_greedy(arms, 0.0, rng)
    for _ in range(100):
        assert policy.select().arm_index == 1


# --- observe ------------------------------------------------------------------

def test_update_single_ack():
    policy = learner()
    policy.observe(0, acked=True, reward=1.0)
    a = policy.arms[0]
    assert (a.pulls, a.reward_sum) == (1, 1.0)
    assert a.variance == 0.0


def test_update_nack_means_zero_reward():
    policy = learner()
    policy.observe(0, acked=False, reward=0.0)
    a = policy.arms[0]
    assert (a.pulls, a.reward_sum) == (1, 0.0)


def test_update_two_point_variance():
    policy = learner()
    policy.observe(0, acked=True, reward=1.0)
    policy.observe(0, acked=False, reward=0.0)
    assert policy.arms[0].mean == 0.5
    assert policy.arms[0].variance == 0.25


def test_update_rejects_negative_reward():
    # Both learners refuse any reward outside [0, inf), NaN included, before
    # the arm, the total plays or the unpulled count move; arm 0 has been
    # pulled, arm 1 not.
    for policy in (UcbTunedPolicy(2, np.random.default_rng(0)),
                   EpsilonGreedyPolicy(2, 0.1, np.random.default_rng(0))):
        policy.observe(0, acked=True, reward=0.5)
        for arm_index in (0, 1):
            for reward in (-0.1, -math.inf, math.nan, math.inf):
                before = copy.deepcopy(policy.arms), policy.total_plays, policy.unpulled
                with pytest.raises(ValueError):
                    policy.observe(arm_index, acked=True, reward=reward)
                assert (policy.arms, policy.total_plays, policy.unpulled) == before


@given(
    rewards=st.lists(
        st.tuples(st.booleans(), st.floats(min_value=0.0, max_value=1.0)),
        max_size=60,
    ),
    n_arms=st.integers(min_value=1, max_value=5),
)
def test_update_conservation(rewards, n_arms):
    policy = UcbTunedPolicy(n_arms, np.random.default_rng(0))
    for i, (acked, reward) in enumerate(rewards):
        policy.observe(i % n_arms, acked, reward)
    assert sum(a.pulls for a in policy.arms) == policy.total_plays == len(rewards)
    assert policy.unpulled == sum(a.pulls == 0 for a in policy.arms)
    total = math.fsum(r for _, r in rewards)
    assert math.fsum(a.reward_sum for a in policy.arms) == pytest.approx(total, abs=1e-9)


# --- fixed allocation -----------------------------------------------------------

def test_fixed_device_zero():
    arms = default_arms()
    d = select_fixed(0, arms)
    assert arms[d.arm_index].channel.mhz == 921.0
    assert arms[d.arm_index].power.level_dbm == -3


def test_fixed_even_split():
    arms = default_arms()
    chosen = [arms[select_fixed(i, arms).arm_index].channel.mhz for i in range(6)]
    assert sorted(chosen) == [921.0, 921.0, 921.4, 921.4, 921.8, 921.8]


def test_fixed_device_seven():
    arms = default_arms()
    d = select_fixed(7, arms)
    assert arms[d.arm_index].channel.mhz == 921.4  # 7 mod 3 = 1


def test_fixed_requires_receivable_channel():
    channels = [Channel(921.0e6, receivable=False)]
    arms = build_arm_space(channels, default_powers())
    with pytest.raises(ConfigError):
        select_fixed(0, arms)


def test_fixed_round_robins_an_unsorted_plan_by_frequency():
    channels = [Channel(922.2e6, True), Channel(921.0e6, True), Channel(921.8e6, False)]
    arms = build_arm_space(channels, default_powers())
    chosen = [arms[select_fixed(i, arms).arm_index].channel.mhz for i in range(4)]
    assert chosen == [921.0, 922.2, 921.0, 922.2]


def test_fixed_policy_is_constant():
    arms = default_arms()
    fixed = select_fixed(2, arms)
    for _ in range(5):
        assert select_fixed(2, arms) == fixed


# --- ADR-Lite ------------------------------------------------------------------

def test_adr_next_examples():
    assert adr_lite_next(24, acked=True, list_len=25) == 12
    assert adr_lite_next(24, acked=False, list_len=25) == 24
    assert adr_lite_next(12, acked=False, list_len=25) == 18
    assert adr_lite_next(5, acked=True, list_len=25) == 2  # floor
    assert adr_lite_next(13, acked=False, list_len=25) == 19  # ceil


def test_adr_next_rejects_out_of_range():
    with pytest.raises(ValueError):
        adr_lite_next(25, acked=True, list_len=25)
    with pytest.raises(ValueError):
        adr_lite_next(-1, acked=False, list_len=25)


@given(
    prev=st.integers(min_value=0, max_value=99),
    acked=st.booleans(),
    list_len=st.integers(min_value=1, max_value=100),
)
def test_adr_next_stays_in_bounds(prev, acked, list_len):
    if prev >= list_len:
        prev = list_len - 1
    nxt = adr_lite_next(prev, acked, list_len)
    assert 0 <= nxt < list_len


@given(start=st.integers(min_value=0, max_value=24))
def test_adr_repeated_acks_reach_head(start):
    idx = start
    for _ in range(10):
        idx = adr_lite_next(idx, acked=True, list_len=25)
    assert idx == 0


@given(start=st.integers(min_value=0, max_value=24))
def test_adr_repeated_nacks_reach_tail(start):
    idx = start
    for _ in range(10):
        idx = adr_lite_next(idx, acked=False, list_len=25)
    assert idx == 24


def test_adr_list_default_order():
    arms = default_arms()
    combos = adr_lite_list(arms)
    assert sorted(combos, key=lambda a: a.arm_index) == arms
    assert (combos[0].channel.mhz, combos[0].power.level_dbm) == (920.6, -3)
    assert (combos[4].channel.mhz, combos[4].power.level_dbm) == (921.8, -3)
    assert (combos[24].channel.mhz, combos[24].power.level_dbm) == (921.8, 13)
    # Power-major ascending: every block of five shares one level.
    for block in range(5):
        levels = {c.power.level_dbm for c in combos[block * 5:block * 5 + 5]}
        assert len(levels) == 1


def test_adr_list_ranks_any_plan_deaf_first_then_by_frequency():
    # A plan other than the default one, listed out of order: at each power
    # the deaf channel first, then the heard ones by ascending frequency.
    channels = [Channel(922.2e6, True), Channel(900.4e6, False), Channel(900.0e6, True)]
    combos = adr_lite_list(build_arm_space(channels, default_powers()[:3]))
    assert [(c.channel.mhz, c.power.level_dbm) for c in combos] == [
        (mhz, dbm) for dbm in (-3, 1, 5) for mhz in (900.4, 900.0, 922.2)]


def test_adr_list_explicit_quality_order():
    # The two-channel plan's quality order, deaf 900.4 MHz before heard
    # 900.0 MHz, needs no explicit list: it is the rank adr_lite_list derives.
    channels = [Channel(900.0e6, True), Channel(900.4e6, False)]
    combos = adr_lite_list(build_arm_space(channels, default_powers()[:2]))
    assert [(c.channel.mhz, c.power.level_dbm) for c in combos] == [
        (900.4, -3), (900.0, -3), (900.4, 1), (900.0, 1)]


def test_adr_policy_starts_at_tail_and_walks():
    arms = default_arms()
    policy = AdrLitePolicy(adr_lite_search(arms))
    search = adr_lite_list(arms)
    d = policy.select()
    assert d.arm_index == search[24].arm_index
    policy.observe(d.arm_index, acked=True, reward=1.0)
    assert policy.select().arm_index == search[12].arm_index


def test_adr_policy_observe_requires_select():
    policy = AdrLitePolicy(adr_lite_search(default_arms()))
    with pytest.raises(RuntimeError):
        policy.observe(0, acked=True, reward=1.0)


# --- decisions of every policy -------------------------------------------------

def test_every_select_returns_a_policy_decision_of_its_phase(monkeypatch):
    # A plain tuple would pass every equality test above, but the traced
    # benchmark reads .phase on each UCB decision: UCB's first decision per
    # arm is its initialization pass, every other decision is learned.
    made = {}
    for cls in (UcbTunedPolicy, EpsilonGreedyPolicy, FixedPolicy, AdrLitePolicy):
        def recording_select(self, select=cls.select):
            decision = select(self)
            made.setdefault(self, []).append(decision)
            return decision

        monkeypatch.setattr(cls, "select", recording_select)
    # Fixed and ADR-Lite select only in the periods simulated before their
    # network repeats: 1 and 16 of the 60 here.
    cfg = ExperimentConfig(device_counts=[5], t_attempts=60)
    for name in POLICY_NAMES:
        made.clear()
        run_simulation(cfg.run_setup(name, 5), seed=1)
        assert len(made) == 5
        selected = {"fixed": 1, "adr_lite": 16}.get(name, 60)
        for policy, decisions in made.items():
            assert len(decisions) == selected
            assert all(type(d) is PolicyDecision for d in decisions)
            n_init = len(policy.arms) if name == "proposed_ucb_tuned" else 0
            assert [d.phase for d in decisions] == (
                [Phase.INITIALIZATION] * n_init + [Phase.LEARNED] * (selected - n_init))


def test_learners_of_one_arm_count_share_their_decisions():
    # Each arm count's decisions are built once per phase and shared by every
    # learner; UCB's initialization and learned decisions stay two sets.
    first, second = (UcbTunedPolicy(4, np.random.default_rng(s)) for s in (1, 2))
    greedy = EpsilonGreedyPolicy(4, 0.0, np.random.default_rng(3))
    started = [first.select(), second.select()]
    assert started[0] is started[1] and started[0] == PolicyDecision(0, Phase.INITIALIZATION)
    for policy in (first, second, greedy):
        for k in range(4):
            policy.observe(k, True, 0.5 + k / 10)
    learned = [policy.select() for policy in (first, second, greedy)]
    assert learned[0] is learned[1] is learned[2] == PolicyDecision(3, Phase.LEARNED)
    assert first._initial is second._initial
    assert first._decisions is second._decisions is greedy._decisions
    assert [d.phase for d in first._initial] == [Phase.INITIALIZATION] * 4
    assert [d.phase for d in first._decisions] == [Phase.LEARNED] * 4
    assert [d.arm_index for d in first._initial] == [d.arm_index for d in first._decisions]
    assert len(UcbTunedPolicy(5, np.random.default_rng(4))._initial) == 5


# --- determinism across policies -------------------------------------------------

@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_policies_deterministic_given_seed(seed):
    def trace(policy_factory):
        policy = policy_factory()
        out = []
        for t in range(40):
            d = policy.select()
            out.append(d.arm_index)
            acked = (d.arm_index + t) % 3 == 0
            policy.observe(d.arm_index, acked, 0.7 if acked else 0.0)
        return out

    for factory in (
        lambda: UcbTunedPolicy(25, np.random.default_rng(seed)),
        lambda: EpsilonGreedyPolicy(25, 0.1, np.random.default_rng(seed)),
    ):
        assert trace(factory) == trace(factory)
