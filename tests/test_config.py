"""Config ingestion: defaults, overrides, validation, hashing."""

import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from lorabandit import netsim
from lorabandit.config import (
    _DEFAULTS,
    DEFAULT_DEVICE_COUNTS,
    ExperimentConfig,
    config_from_dict,
    load_config,
)
from lorabandit.energy import EnergyModel, RadioConfig, attempt_energy, time_on_air
from lorabandit.metrics import summarize_run
from lorabandit.netsim import POLICY_NAMES, RunSetup, cost_rows, run_simulation
from lorabandit.params import (
    DEFAULT_CHANNEL_MHZ,
    DEFAULT_DRAW_MW,
    Channel,
    ConfigError,
    TxPower,
)
from lorabandit.sweep import read_records, write_records


def test_empty_document_yields_full_defaults():
    cfg = config_from_dict({})
    assert cfg.policies == [
        "proposed_ucb_tuned", "epsilon_greedy", "adr_lite", "fixed"
    ]
    assert cfg.device_counts == list(DEFAULT_DEVICE_COUNTS)
    assert cfg.runs_per_point == 5
    assert cfg.t_attempts == 200
    assert cfg.interval_s == 10.0
    assert len(cfg.channels) == 5
    assert sum(c.receivable for c in cfg.channels) == 3
    assert [p.level_dbm for p in cfg.powers] == [-3, 1, 5, 9, 13]
    assert cfg.radio.sf == 7
    assert cfg.radio.bw_hz == 125_000.0
    assert cfg.energy.e_wu_mj == 56.1
    assert cfg.energy.e_proc_mj == 85.8
    assert cfg.energy.e_r_mj == 66.0
    assert cfg.energy.p_mcu_mw == 29.7


def test_missing_draw_level_names_the_level():
    # A power without draw_mw draws its level's default; a level with no
    # default must give its own.
    cfg = config_from_dict({"powers": [{"level_dbm": 13}, {"level_dbm": 1, "draw_mw": 20}]})
    assert cfg.powers == [TxPower(13, 400.0), TxPower(1, 20.0)]
    with pytest.raises(ConfigError, match="the default draws lack 7 dBm"):
        config_from_dict({"powers": [{"level_dbm": -3}, {"level_dbm": 7}]})


CUSTOM_POWERS = [{"level_dbm": -3, "draw_mw": 20}, {"level_dbm": 5, "draw_mw": 90},
                 {"level_dbm": 13, "draw_mw": 250}]


@pytest.mark.parametrize("energy", [
    {"e_wu_mj": 56.1},
    {"e_wu_mj": 56.1, "e_proc_mj": 85.8, "e_r_mj": 66.0, "p_mcu_mw": 29.7},
    {"p_mcu_mw": 29.7, "e_r_mj": 66.0},
])
def test_energy_block_never_resets_the_power_draws(energy):
    # An energy block that restates defaults changes nothing: the draws stay
    # those the powers give.
    plain = config_from_dict({"powers": CUSTOM_POWERS})
    restated = config_from_dict({"powers": CUSTOM_POWERS, "energy": energy})
    assert [p.draw_mw for p in restated.powers] == [20.0, 90.0, 250.0]
    assert restated.config_hash() == plain.config_hash()
    for policy in POLICY_NAMES:
        assert (list(run_simulation(restated.run_setup(policy, 3), 5))
                == list(run_simulation(plain.run_setup(policy, 3), 5)))


def test_power_outside_the_default_levels_with_an_energy_block():
    doc = {"energy": {"e_wu_mj": 20}, "powers": [{"level_dbm": 7, "draw_mw": 426}]}
    cfg = config_from_dict(doc)
    assert cfg.energy.e_wu_mj == 20.0
    assert cfg.to_dict()["powers"] == [{"level_dbm": 7, "draw_mw": 426.0}]
    records = run_simulation(cfg.run_setup("proposed_ucb_tuned", 2), 1)
    assert {r.power_dbm for r in records} == {7}


def test_device_count_override():
    cfg = config_from_dict({"device_counts": [10]})
    assert cfg.device_counts == [10]


def test_unknown_field_rejected():
    with pytest.raises(ConfigError, match="spreading_factor"):
        config_from_dict({"spreading_factor": 7})


@pytest.mark.parametrize("doc, key", [
    ({"radio": {"SF": 9}}, "SF"),
    ({"energy": {"e_wu": 1}}, "e_wu"),
    ({"channels": [{"mhz": 921.0, "receivable": True, "rx": 1}]}, "rx"),
    ({"powers": [{"level_dbm": 5, "dbm": 1}]}, "dbm"),
])
def test_unknown_nested_field_named(doc, key):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        config_from_dict(doc)


def test_time_beyond_the_microsecond_clock_rejected():
    # 9.2e12 s is the last interval whose microseconds fit an int64.
    assert config_from_dict({"interval_s": 9.2e12}).interval_s == 9.2e12
    with pytest.raises(ConfigError, match="interval_s must be under"):
        config_from_dict({"interval_s": 9.3e12})


def test_payload_base_beyond_a_float_named():
    # A payload size the airtime model cannot turn into a float.
    with pytest.raises(ConfigError, match="payload_base must be at most"):
        config_from_dict({"payload_base": 10 ** 400})


def test_bad_policy_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"policies": ["thompson"]})


def test_non_monotone_draw_table_rejected():
    # -3 dBm drawing 50 mW costs more per attempt than 1 dBm's default 30 mW.
    doc = {"powers": [{"level_dbm": -3, "draw_mw": 50},
                      *({"level_dbm": dbm} for dbm in (1, 5, 9, 13))]}
    with pytest.raises(ConfigError, match="e_toa must be strictly increasing in level_dbm"):
        config_from_dict(doc)


def test_no_receivable_channel_rejected():
    doc = {"channels": [{"mhz": 921.0, "receivable": False}]}
    with pytest.raises(ConfigError, match="receivable"):
        config_from_dict(doc)


def test_epsilon_bounds():
    with pytest.raises(ConfigError):
        config_from_dict({"epsilon": 1.5})


@pytest.mark.parametrize("doc, accepted", [
    ({"t_attempts": 1}, True),
    ({"t_attempts": 0}, False),
    ({"runs_per_point": 2 ** 64}, True),  # run_seed takes run indices below 2**64
    ({"runs_per_point": 2 ** 64 + 1}, False),
    ({"radio": {"sf": 6}}, True),
    ({"radio": {"sf": 5}}, False),
    ({"radio": {"sf": 12}}, True),
    ({"radio": {"sf": 13}}, False),
    ({"device_counts": [1]}, True),
    ({"device_counts": [0]}, False),
    ({"payload_spread": 1}, True),
    ({"payload_spread": 0}, False),
    # A payload of 2**53 symbols is exact as a float; at 1 THz its airtime fits the clock.
    ({"payload_base": 2 ** 53, "radio": {"bw_hz": 1e12}, "interval_s": 1e7}, True),
    ({"payload_base": 2 ** 53 + 1, "radio": {"bw_hz": 1e12}, "interval_s": 1e7}, False),
    # The bounds on float fields hold to the float next to them.
    ({"epsilon": 0}, True),
    ({"epsilon": -5e-324}, False),
    ({"epsilon": 1}, True),
    ({"epsilon": 1.0000000000000002}, False),
    ({"cs_duration_s": -0.0}, True),
    ({"cs_duration_s": -5e-324}, False),
])
def test_integer_bounds_are_exact(doc, accepted):
    if accepted:
        config_from_dict(doc)
    else:
        with pytest.raises(ConfigError, match=next(iter(doc))):
            config_from_dict(doc)


def test_library_config_takes_known_keywords_and_copies_its_defaults():
    with pytest.raises(TypeError, match="bogus"):
        ExperimentConfig(bogus=1)
    a, b = ExperimentConfig(), ExperimentConfig(device_counts=[4])
    for name in ("policies", "device_counts", "channels", "powers"):
        assert getattr(a, name) is not getattr(b, name)
    a.policies.remove("fixed")
    assert ExperimentConfig().policies == list(POLICY_NAMES)
    assert b.device_counts == [4] and a.device_counts == list(DEFAULT_DEVICE_COUNTS)


def test_negative_cs_duration_rejected():
    # Carrier sense trusts the config for the sign of its window.
    with pytest.raises(ConfigError, match="cs_duration_s must be non-negative"):
        config_from_dict({"cs_duration_s": -1e-6})


def test_load_config_reports_parse_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "runs_per_point": 5,\n  oops\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(path)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    doc = {"device_counts": [4, 8], "runs_per_point": 2, "epsilon": 0.2}
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.device_counts == [4, 8]
    assert cfg.epsilon == 0.2


def test_config_hash_stability_and_sensitivity():
    a = ExperimentConfig()
    b = ExperimentConfig()
    assert a.config_hash() == b.config_hash()
    c = ExperimentConfig(base_seed=1)
    assert a.config_hash() != c.config_hash()


def test_default_config_hash_pinned():
    # A default sweep is keyed by this hash; moving where a default is
    # written must not change it.
    assert config_from_dict({}).config_hash() == (
        "777ae9503fa5f2a5da50cf671dda77e08e1083d2438d5140b4a759607fa297f3"
    )


def test_to_dict_from_dict_round_trip():
    cfg = ExperimentConfig(device_counts=[6], runs_per_point=2, epsilon=0.3)
    back = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back.config_hash() == cfg.config_hash()


def test_config_hash_is_canonical():
    # An int in a float field is stored as a float, whichever path built it,
    # so one experiment has one hash.
    stock = config_from_dict({}).config_hash()
    assert ExperimentConfig(interval_s=10).config_hash() == stock
    assert config_from_dict({"interval_s": 10}).config_hash() == stock
    assert (ExperimentConfig(radio=RadioConfig(bw_hz=250000)).config_hash()
            == config_from_dict({"radio": {"bw_hz": 250000}}).config_hash())
    cfg = ExperimentConfig(powers=[TxPower(dbm, round(mw)) for dbm, mw in DEFAULT_DRAW_MW.items()])
    back = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back.config_hash() == cfg.config_hash()
    # Records write these values as they are stored.
    for value in (Channel(921_000_000, True).center_frequency_hz, TxPower(1, 30).draw_mw,
                  RadioConfig(bw_hz=250000).bw_hz, EnergyModel(e_wu_mj=56).e_wu_mj,
                  ExperimentConfig(epsilon=0).epsilon):
        assert type(value) is float


def test_frequencies_must_read_back_from_their_mhz():
    # A saved config writes a 2080032180.0 Hz channel as 2080.03218 MHz,
    # which reads back as another frequency under the same hash, so the
    # config is refused.
    message = r"2080032180\.0 Hz would read back from MHz as 2080032180\.0000002 Hz"
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(channels=[Channel(2080032180.0, True)], policies=["fixed"])
    ExperimentConfig(channels=[Channel(921e6, True)], policies=["fixed"])


def test_saved_document_names_each_field_once():
    # The saved document holds the config's own fields under their own
    # names: each draw once, on its power, and each channel in MHz.
    cfg = config_from_dict({})
    assert vars(cfg).keys() == cfg.to_dict().keys() == _DEFAULTS.keys()
    assert list(cfg.to_dict()["energy"]) == list(EnergyModel.__slots__)
    plan = [{"mhz": mhz, "receivable": True} for mhz in (920, 921, 922)]
    cfg = config_from_dict({"channels": plan})
    saved = json.loads(json.dumps(cfg.to_dict()))
    assert [c["mhz"] for c in saved["channels"]] == [920.0, 921.0, 922.0]
    assert all(type(c["mhz"]) is float for c in saved["channels"])
    back = config_from_dict(saved)
    assert vars(back) == vars(cfg) and back.config_hash() == cfg.config_hash()
    built = ExperimentConfig(channels=[Channel(mhz * 1e6, True) for mhz in (920, 921, 922)])
    assert built.config_hash() == cfg.config_hash()


@settings(deadline=None, max_examples=300)
@given(mhz=st.floats(allow_nan=False, allow_infinity=False))
def test_document_frequencies_always_read_back(mhz):
    # Every finite MHz a document gives reads back from its own Hz: only a
    # config built in Python meets the read-back check.
    doc = {"policies": ["fixed", "adr_lite"], "channels": [{"mhz": mhz, "receivable": True}]}
    try:
        config_from_dict(doc)
    except ConfigError as exc:
        assert "read back" not in str(exc)
        event("refused by another check")


@pytest.mark.parametrize("build", [
    lambda: ExperimentConfig(radio=RadioConfig(sf=7.5)),
    lambda: ExperimentConfig(radio=RadioConfig(n_preamble=8.5)),
    lambda: ExperimentConfig(radio=RadioConfig(sf="x")),
    lambda: ExperimentConfig(powers=[TxPower(1.5, 10.0)]),
    lambda: ExperimentConfig(channels=[Channel(921e6, "yes")], policies=["fixed"]),
    lambda: ExperimentConfig(energy=EnergyModel(e_wu_mj=True)),
    lambda: ExperimentConfig(energy=EnergyModel(e_wu_mj="x")),
], ids=["sf-float", "n_preamble-float", "sf-str", "level-float", "receivable-str",
        "energy-bool", "energy-str"])
def test_library_values_checked_as_json_ones(build):
    # What a JSON config refuses, a config built in Python refuses the same way.
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize("field, value", [
    ("radio", 7),
    ("energy", {"e_wu_mj": 1}),
    ("channels", 5),
    ("channels", [(921e6, True)]),
    ("powers", [(1, 30.0)]),
])
def test_nested_field_of_the_wrong_type(field, value):
    # A config built in Python gets a ConfigError, not an AttributeError or
    # TypeError from the first check that reads the field.
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**{field: value})


def test_run_setup_carries_fields():
    cfg = ExperimentConfig(epsilon=0.25, cs_duration_s=0.001)
    setup = cfg.run_setup("epsilon_greedy", 12)
    assert list(RunSetup._fields) == ["config", "policy", "n_devices"]
    assert setup == RunSetup(cfg, "epsilon_greedy", 12)
    assert setup.config is cfg


def test_validate_checks_only_the_payloads_a_run_uses(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return attempt_energy(*args)

    monkeypatch.setattr(netsim, "attempt_energy", counting)
    cfg = config_from_dict({"payload_spread": 10**9})
    # Devices 0..29 of the largest device count use sizes 36..65, 5 powers each.
    assert len(calls) == 30 * 5
    assert {args[1] for args in calls} == set(range(36, 66))
    calls.clear()
    # A run works out the sizes of its own devices, past the config's counts.
    run_simulation(cfg.run_setup("fixed", 32), 1)
    assert len(calls) == 32 * 5
    assert {args[1] for args in calls} == set(range(36, 68))


def _count_attempts(monkeypatch) -> list:
    """Every attempt a run makes from here on, as the policies whose select
    it called."""
    made = []
    for cls in (netsim.UcbTunedPolicy, netsim.EpsilonGreedyPolicy, netsim.FixedPolicy,
                netsim.AdrLitePolicy):
        def counting(self, select=cls.select):
            made.append(self)
            return select(self)

        monkeypatch.setattr(cls, "select", counting)
    return made


def test_run_checks_payloads_past_the_device_counts(monkeypatch):
    # One device sends 36 symbols (49.4 ms of airtime plus 5 ms of carrier
    # sense fit in 60 ms); nine devices reach 44 symbols (57.6 ms), which do not.
    cfg = config_from_dict({"device_counts": [1], "interval_s": 0.06})
    made = _count_attempts(monkeypatch)
    assert len(run_simulation(cfg.run_setup("fixed", 1), 1)) == 200 and made
    made.clear()
    with pytest.raises(ConfigError, match="interval_s must exceed"):
        run_simulation(cfg.run_setup("fixed", 9), 1)
    assert not made


def test_run_checks_the_energy_total_past_the_device_counts(monkeypatch):
    # Each attempt costs a little over 1e305 mJ: 8 devices x 200 attempts
    # sum to 1.6e308 mJ, and 9 devices would overflow a float.
    cfg = config_from_dict({"energy": {"e_wu_mj": 1e305}, "device_counts": [2]})
    made = _count_attempts(monkeypatch)
    summary = summarize_run(run_simulation(cfg.run_setup("fixed", 8), 1))
    assert summary.attempts == 1600 and summary.energy_efficiency_network > 0 and made
    made.clear()
    with pytest.raises(ConfigError, match="must sum to a finite total"):
        run_simulation(cfg.run_setup("fixed", 9), 1)
    assert not made


def test_duplicate_sweep_points_named():
    with pytest.raises(ConfigError, match="duplicate policies entry 'fixed'"):
        config_from_dict({"policies": ["fixed", "adr_lite", "fixed"]})
    with pytest.raises(ConfigError, match="duplicate device_counts entry 10"):
        config_from_dict({"device_counts": [10, 15, 10]})


def test_duplicate_power_level_named():
    doc = {"powers": [{"level_dbm": lvl} for lvl in (-3, 1, 5, 5, 9)]}
    with pytest.raises(ConfigError, match="duplicate power level 5 dBm"):
        config_from_dict(doc)
    # Distinct draws on one level used to pass validate and fail only in a run.
    doc = {"powers": [{"level_dbm": 1, "draw_mw": 30}, {"level_dbm": 1, "draw_mw": 40}]}
    with pytest.raises(ConfigError, match="duplicate power level 1 dBm"):
        config_from_dict(doc)


def test_e_toa_tie_rejected():
    # Draws one ulp apart: p_mcu absorbs the gap and e_toa stops rising.
    powers = [TxPower(0, 1.0), TxPower(1, 1.0000000000000002)]
    with pytest.raises(ConfigError, match="e_toa must be strictly increasing"):
        ExperimentConfig(powers=powers)


def test_radio_defaults_come_from_radio_config():
    cfg = config_from_dict({"radio": {"bw_hz": 250_000}})
    assert cfg.radio == RadioConfig(bw_hz=250_000.0)


# --- validate implies run -------------------------------------------------------

EDGE_FLOATS = st.floats() | st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 1e12, 1e300])
ODD = st.none() | st.booleans() | st.text(max_size=2) | st.just([]) | st.just({}) | EDGE_FLOATS
DEFAULT_LEVELS = sorted(DEFAULT_DRAW_MW)
PLAN_MHZ = (*DEFAULT_CHANNEL_MHZ, 923.0)


def _increasing(n):
    """n positive draws in ascending order, each at least 1 µW above the last."""
    return st.lists(st.floats(1e-3, 200.0), min_size=n, max_size=n).map(
        lambda steps: list(itertools.accumulate(steps)))


@st.composite
def _channels(draw):
    mhz = draw(st.lists(st.sampled_from(PLAN_MHZ), min_size=1, max_size=6, unique=True))
    receivable = draw(st.lists(st.booleans(), min_size=len(mhz), max_size=len(mhz)))
    receivable[draw(st.integers(0, len(mhz) - 1))] = True
    return [{"mhz": m, "receivable": r} for m, r in zip(mhz, receivable)]


@st.composite
def _powers(draw, doc):
    """The power table in one of the ways a document can give it: the
    default, default levels without draws, levels with their own draws, or
    default levels with and without draws (each draw given within a quarter
    of its level's default, so the draws still rise with the level)."""
    way = draw(st.sampled_from(["default", "levels", "draws", "mixed"]))
    if way == "levels":
        levels = draw(st.lists(st.sampled_from(DEFAULT_LEVELS), min_size=1, unique=True))
        doc["powers"] = [{"level_dbm": dbm} for dbm in levels]
    elif way == "draws":
        levels = sorted(draw(st.lists(st.integers(-5, 20), min_size=1, max_size=6,
                                      unique=True)))
        doc["powers"] = [{"level_dbm": dbm, "draw_mw": mw}
                         for dbm, mw in zip(levels, draw(_increasing(len(levels))))]
    elif way == "mixed":
        levels = draw(st.lists(st.sampled_from(DEFAULT_LEVELS), min_size=1, unique=True))
        doc["powers"] = [{"level_dbm": dbm} for dbm in levels]
        for entry in doc["powers"]:
            if draw(st.booleans()):
                entry["draw_mw"] = DEFAULT_DRAW_MW[entry["level_dbm"]] * draw(st.floats(0.75, 1.25))


STOCK = ExperimentConfig()


@st.composite
def config_docs(draw):
    """A valid config of at most a few attempts, every field perturbed
    within its valid range or left to its default; one doc in five then
    gets one field replaced by any JSON value."""
    doc = draw(st.fixed_dictionaries({}, optional=dict(
        policies=st.lists(st.sampled_from(POLICY_NAMES), min_size=1, unique=True),
        cs_duration_s=st.floats(0.0, 0.1),
        epsilon=st.floats(0.0, 1.0),
        epsilon_reward=st.sampled_from(["energy", "ack"]),
        payload_base=st.integers(0, 64),
        payload_spread=st.integers(1, 12),
        base_seed=st.integers(-(2**70), 2**70),
        radio=st.fixed_dictionaries({}, optional=dict(
            sf=st.integers(6, 12),
            bw_hz=st.sampled_from([125e3, 250e3, 500e3]) | st.floats(7.8e3, 5e5),
            n_preamble=st.integers(0, 20))),
        energy=st.fixed_dictionaries({}, optional=dict.fromkeys(
            ("e_wu_mj", "e_proc_mj", "e_r_mj", "p_mcu_mw"), st.floats(1e-3, 1e3))),
        channels=_channels(),
    )))
    doc["t_attempts"] = draw(st.integers(1, 5))
    draw(_powers(doc))

    # The interval must outlast carrier sense plus the longest airtime of the
    # payloads the default device counts use.
    radio = RadioConfig(**doc.get("radio", {}))
    base = doc.get("payload_base", STOCK.payload_base)
    spread = doc.get("payload_spread", STOCK.payload_spread)
    longest = base + min(spread, max(DEFAULT_DEVICE_COUNTS)) - 1
    busy = (doc.get("cs_duration_s", STOCK.cs_duration_s)
            + time_on_air(radio, longest)[2])
    low = busy * 1.01 + 1e-3
    if low > STOCK.interval_s or draw(st.booleans()):
        doc["interval_s"] = draw(st.floats(low, low + 20.0))

    if draw(st.integers(0, 4)) == 0:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(ODD)
    return doc


@settings(deadline=None, max_examples=300)
@given(doc=config_docs(), seed=st.integers(0, 2**64 - 1))
def test_accepted_config_dicts_run(doc, seed):
    # Every refusal is a ConfigError; a config that is accepted runs every
    # policy it lists without raising anything, and each run goes through
    # what `lorabandit run` does with it: its summary is strict JSON and its
    # record log reads back as the records written.
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        event("refused")
        return
    event("accepted")
    json.dumps(cfg.to_dict(), allow_nan=False)
    # The saved document reads back as this very config, not just its hash.
    assert vars(config_from_dict(json.loads(json.dumps(cfg.to_dict())))) == vars(cfg)
    # Every ACK reward is in [0, 1], exactly 1 at its payload's cheapest
    # power and strictly falling with the level.
    for rows in cost_rows(cfg, max(cfg.device_counts)).values():
        rewards = [reward for *_, reward in rows]
        assert rewards[0] == 1.0
        assert all(0.0 <= r <= 1.0 for r in rewards)
        assert all(b < a for a, b in zip(rewards, rewards[1:]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        for policy in cfg.policies:
            records = run_simulation(cfg.run_setup(policy, 6), seed)
            json.dumps(summarize_run(records).to_dict(), allow_nan=False)
            write_records(records, path)
            assert read_records(path) == list(records)


def test_config_docs_are_mostly_accepted():
    accepted = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(doc=config_docs())
    def classify(doc):
        try:
            config_from_dict(doc)
        except ConfigError:
            accepted.append(False)
        else:
            accepted.append(True)

    classify()
    assert sum(accepted) >= len(accepted) / 2, f"{sum(accepted)} of {len(accepted)} accepted"
