"""Every record class keeps the frozen-record contract.

The parameter and result records subclass ``coexist.numerics.Record``.  Each
one is built by keyword and by position, with its defaults, and with a
missing, unknown or repeated field; each validation message is checked by
construction and through ``replace``.  Records refuse assignment and
deletion, equal ones hash equal, and ``repr`` prints ``Name(field=value, ...)``.
The records bound to a schema section accept a field value exactly when
``config.check_field`` does, and refuse it in the same words.
"""

import math

import numpy as np
import pytest

from coexist.config import Scenario, ValidationError, _load_schema, check_field, load_scenario
from coexist.numerics import Record, RootBracket
from coexist.propagation import (
    AntennaPattern,
    ConstantGain,
    PowerLawPathLoss,
    TabulatedPathLoss,
)
from coexist.protection_multi import (
    CampbellStats,
    DeploymentField,
    MainSideLobePolicy,
    OptimalityReport,
    OptimalPolicy,
    RadarBlindPolicy,
)
from coexist.protection_single import InterferenceBudget, SecondaryUser
from coexist.radar_detection import RadarSystem, RocPoint, Target
from coexist.wifi_link import DEFAULT_80211N, McsEntry, McsTable, WifiLink

SU = {"eirp_w": 1.0, "bandwidth_hz": 20e6, "antenna_gain_dbi": 2.15}
RADAR = {
    "tx_power_w": 1.32e6,
    "wavelength_m": 0.107068735,
    "peak_gain_dbi": 33.5,
    "prf_hz": 1059.0,
    "pulse_width_s": 1.03e-6,
    "if_bandwidth_hz": 653e3,
    "noise_figure_db": 4.0,
    "ambient_temp_k": 290.0,
    "scan_time_s": 4.8,
    "scan_solid_angle_sr": 0.5263789013914324,
    "system_loss_db": 2.0,
}
_SCENARIO = load_scenario("type_b_radar")

# one valid record per class, its fields in declaration order; the bound
# records' values are the bundled fixtures'
SAMPLES = {
    RootBracket: {"lo": 0.0, "hi": 1.0, "tol_rel": 1e-12, "max_iter": 200},
    PowerLawPathLoss: {"k0": 259.0, "alpha": 3.97},
    TabulatedPathLoss: {"distances_m": (100.0, 1000.0), "attenuations": (1e-2, 1e-5)},
    AntennaPattern: {"gmax_dbi": 33.5},
    ConstantGain: {"gain_dbi": 0.0},
    SecondaryUser: SU,
    InterferenceBudget: {
        "i_max_w": 5e-16, "inr_db": -11.0, "sinr_required_linear": 19.0,
        "baseline_snr_linear": 20.6,
    },
    RadarSystem: RADAR,
    Target: {"range_m": 111e3, "rcs_m2": 1.0},
    RocPoint: {"pd": 0.9, "pfa": 1e-6},
    DeploymentField: {"density_per_m2": 1e-6, "activity_prob": 1.0, "outage_max": 0.1},
    CampbellStats: {"mean_w": 1e-16, "variance_w2": 1e-32},
    OptimalPolicy: {"gamma": 1e3, "alpha": 3.97},
    RadarBlindPolicy: {"d_min_m": 1e3},
    MainSideLobePolicy: {"d_min_m": 1e3, "beta": 3.0, "lobe_width_rad": 0.2},
    OptimalityReport: {"n_trials": 100, "worst_area_reduction": 0.0, "tolerance": 1e-3},
    McsTable: {"entries": DEFAULT_80211N.entries},
    WifiLink: {
        "link_loss_db": 80.0, "su": SecondaryUser(**SU), "rx_noise_figure_db": 8.0,
        "rx_bandwidth_hz": 20e6,
    },
    Scenario: {name: getattr(_SCENARIO, name) for name in Scenario.__annotations__},
}
CLASSES = list(SAMPLES)
IDS = [cls.__name__ for cls in CLASSES]

# (class, changed fields, ValueError message): one row per check
INVALID = [
    (RootBracket, {"hi": 0.0}, "bracket requires lo < hi, got [0.0, 0.0]"),
    (RootBracket, {"tol_rel": 0.0}, "tol_rel must be positive"),
    (RootBracket, {"max_iter": 0}, "max_iter must be at least 1"),
    (PowerLawPathLoss, {"k0": 0.0}, "pathloss.k0: 0.0 is less than the minimum of 1e-30"),
    (PowerLawPathLoss, {"alpha": 2.0},
     "pathloss.alpha: 2.0 is less than or equal to the minimum of 2"),
    (TabulatedPathLoss, {"distances_m": (100.0,)},
     "need matching distance/attenuation lists, length >= 2"),
    (TabulatedPathLoss, {"distances_m": (0.0, 1000.0)},
     "distances and attenuations must be positive"),
    (TabulatedPathLoss, {"distances_m": (1000.0, 100.0)},
     "distances must be strictly increasing"),
    (TabulatedPathLoss, {"distances_m": (100.0, math.inf)},
     "distances and attenuations must be finite"),
    (TabulatedPathLoss, {"distances_m": (100.0, 1000.0), "attenuations": (1e-2, math.nan)},
     "distances and attenuations must be finite"),
    (TabulatedPathLoss, {"attenuations": (1e-5, 1e-2)},
     "attenuations must be strictly decreasing"),
    (AntennaPattern, {"gmax_dbi": 48.0},
     "statistical pattern is defined for 22 < gmax_dbi < 48, got 48.0"),
    (SecondaryUser, {"eirp_w": 0.0}, "su.eirp_w: 0.0 is less than the minimum of 1e-15"),
    (SecondaryUser, {"bandwidth_hz": -1.0},
     "su.bandwidth_hz: -1.0 is less than or equal to the minimum of 0"),
    *[
        (RadarSystem, {name: 0.0}, f"radar.{name}: 0.0 is less than {minimum}")
        for name, minimum in (
            ("tx_power_w", "or equal to the minimum of 0"),
            ("wavelength_m", "the minimum of 9.993081933333333e-05"),
            ("prf_hz", "or equal to the minimum of 0"),
            ("pulse_width_s", "or equal to the minimum of 0"),
            ("if_bandwidth_hz", "the minimum of 1"),
            ("ambient_temp_k", "the minimum of 1"),
            ("scan_time_s", "or equal to the minimum of 0"),
        )
    ],
    (RadarSystem, {"scan_solid_angle_sr": 13.0},
     "radar.scan_solid_angle_sr: 13.0 is greater than the maximum of 12.566370614359172"),
    (RadarSystem, {"prf_hz": 1e6},
     "duty cycle pulse_width_s * prf_hz must stay below 1"),
    (Target, {"range_m": 0.0}, "range_m must be positive"),
    (Target, {"rcs_m2": 0.0}, "rcs_m2 must be positive"),
    (RocPoint, {"pfa": 0.95},
     "ROC point requires 0 < pfa < pd < 1, got pd=0.9, pfa=0.95"),
    (RocPoint, {"pfa": 0.7}, "Albersheim relation requires pfa <= 0.62"),
    (RocPoint, {"pd": 0.3, "pfa": 0.2},
     "Albersheim relation gives no positive SNR at pd=0.3, pfa=0.2"),
    (DeploymentField, {"density_per_m2": 0.0},
     "field.density_per_m2: 0.0 is less than or equal to the minimum of 0"),
    (DeploymentField, {"activity_prob": 1.5},
     "field.activity_prob: 1.5 is greater than the maximum of 1"),
    (DeploymentField, {"outage_max": 0.7},
     "field.outage_max: 0.7 is greater than or equal to the maximum of 0.5"),
    (OptimalPolicy, {"gamma": 0.0}, "gamma must be positive"),
    (OptimalPolicy, {"alpha": 2.0}, "alpha must exceed 2"),
    (RadarBlindPolicy, {"d_min_m": 0.0}, "d_min_m must be positive"),
    (MainSideLobePolicy, {"d_min_m": 0.0}, "d_min_m must be positive"),
    (MainSideLobePolicy, {"beta": 0.5}, "beta = d_max/d_min must be >= 1"),
    (MainSideLobePolicy, {"lobe_width_rad": 4.0}, "lobe_width_rad must lie in (0, pi)"),
    (McsTable, {"entries": ()}, "MCS table must have at least one entry"),
    (McsTable, {"entries": (McsEntry(0, "BPSK", "1/2", 6.5, 4.5),) * 2},
     "min_snr_db must be strictly increasing"),
    (McsTable, {"entries": (McsEntry(0, "BPSK", "1/2", 6.5, 4.5),
                            McsEntry(1, "QPSK", "1/2", 6.5, 6.5))},
     "data_rate_mbps must be strictly increasing"),
    (WifiLink, {"link_loss_db": 0.0},
     "wifi.link_loss_db: 0.0 is less than or equal to the minimum of 0"),
    (WifiLink, {"rx_noise_figure_db": -1.0},
     "wifi.rx_noise_figure_db: -1.0 is less than the minimum of 0"),
    (WifiLink, {"rx_bandwidth_hz": 0.0}, "wifi.rx_bandwidth_hz: 0.0 is less than the minimum of 1"),
]


def test_samples_cover_every_record_class():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    package = {cls for cls in subclasses(Record) if cls.__module__.startswith("coexist.")}
    assert package == set(SAMPLES)
    for cls, kwargs in SAMPLES.items():
        assert list(kwargs) == list(cls.__annotations__), cls.__name__


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_positional_construction_equals_keyword(cls):
    kwargs = SAMPLES[cls]
    by_keyword = cls(**kwargs)
    assert cls(*kwargs.values()) == by_keyword
    first, *rest = kwargs
    assert cls(kwargs[first], **{name: kwargs[name] for name in rest}) == by_keyword
    assert [getattr(by_keyword, name) for name in kwargs] == list(kwargs.values())


def test_defaults_apply():
    assert RootBracket(lo=0.0, hi=1.0) == RootBracket(0.0, 1.0, 1e-12, 200)
    required = ("raw", "radar", "su", "pathloss", "pattern")
    scenario = Scenario(**{name: getattr(_SCENARIO, name) for name in required})
    assert (scenario.field, scenario.roc) == (None, None)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_missing_unknown_or_repeated_field_raises_type_error(cls):
    kwargs = SAMPLES[cls]
    first, *rest = kwargs
    with pytest.raises(TypeError, match=f"missing required argument '{first}'"):
        cls(**{name: kwargs[name] for name in rest})
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(**kwargs, bogus=1.0)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(kwargs[first], **kwargs)
    with pytest.raises(TypeError, match="arguments, got"):
        cls(*kwargs.values(), 1.0)


@pytest.mark.parametrize(
    "cls, changes, message", INVALID, ids=[f"{c.__name__}-{'-'.join(ch)}" for c, ch, _ in INVALID]
)
def test_validation_messages_hold_on_construction_and_replace(cls, changes, message):
    kwargs = SAMPLES[cls]
    with pytest.raises(ValueError) as built:
        cls(**{**kwargs, **changes})
    assert str(built.value) == message
    with pytest.raises(ValueError) as replaced:
        cls(**kwargs).replace(**changes)
    assert str(replaced.value) == message


def test_replace_returns_a_checked_copy():
    field = DeploymentField(**SAMPLES[DeploymentField])
    denser = field.replace(density_per_m2=2e-6)
    assert denser == DeploymentField(density_per_m2=2e-6, activity_prob=1.0, outage_max=0.1)
    assert field.density_per_m2 == 1e-6
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        field.replace(bogus=1.0)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(cls):
    record = cls(**SAMPLES[cls])
    first = next(iter(SAMPLES[cls]))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
        setattr(record, first, 1.0)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1.0
    with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
        delattr(record, first)
    assert getattr(record, first) is SAMPLES[cls][first]


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equal_records_hash_equal_and_classes_never_mix(cls):
    kwargs = SAMPLES[cls]
    a, b = cls(**kwargs), cls(**dict(reversed(kwargs.items())))
    assert a == b and not a != b
    if not any(isinstance(value, dict) for value in kwargs.values()):
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
    else:  # a dict field, as a frozen dataclass with one
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    for other, other_kwargs in SAMPLES.items():
        if other is not cls:
            assert a != other(**other_kwargs)


def test_records_of_different_classes_with_equal_fields_differ():
    class First(Record):
        x: float

    class Second(Record):
        x: float

    assert First(x=1.0) != Second(x=1.0)
    assert First(x=1.0) == First(1.0)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_keeps_the_dataclass_format(cls):
    kwargs = SAMPLES[cls]
    fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(cls(**kwargs)) == f"{cls.__qualname__}({fields})"
    assert repr(RootBracket(0.0, 1.0)) == "RootBracket(lo=0.0, hi=1.0, tol_rel=1e-12, max_iter=200)"


# ------------------------------------------------------- schema-bound records

BOUND = [PowerLawPathLoss, SecondaryUser, RadarSystem, DeploymentField, WifiLink]
BOUND_FIELDS = [(cls, name) for cls in BOUND for name, _ in cls._schema_paths]


def _section(cls):
    return _load_schema()["properties"][cls._schema_section]["properties"]


def test_bound_records_check_every_field_their_section_names():
    assert [cls for cls in SAMPLES if cls._schema_paths] == BOUND
    for cls in BOUND:
        assert [name for name, _ in cls._schema_paths] == [
            name for name in cls._fields if name in _section(cls)
        ]


def _probes(node, fixture_value):
    """Each bound and its +-1 ulp neighbours, extremes, non-numbers, and their np.float64."""
    values = [fixture_value, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
              1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan, 1, True]
    for key in ("minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum"):
        if key in node:
            bound = float(node[key])
            values += [node[key], bound, math.nextafter(bound, -math.inf),
                       math.nextafter(bound, math.inf)]
    return values + [np.float64(v) for v in values if isinstance(v, float)]


def _refusal(call):
    try:
        call()
    except ValueError as exc:
        return exc
    return None


@pytest.mark.parametrize(
    "cls, name", BOUND_FIELDS, ids=[f"{c.__name__}-{n}" for c, n in BOUND_FIELDS]
)
def test_a_bound_record_accepts_a_value_iff_the_schema_does(cls, name):
    base = SAMPLES[cls]
    path = f"{cls._schema_section}.{name}"
    for value in _probes(_section(cls)[name], base[name]):
        expected = _refusal(lambda: check_field(path, value))
        got = _refusal(lambda: cls(**{**base, name: value}))
        if expected is None and cls is RadarSystem and name in ("prf_hz", "pulse_width_s"):
            # the duty cycle is the one check across fields
            other = base["pulse_width_s" if name == "prf_hz" else "prf_hz"]
            if not value * other < 1.0:
                assert str(got) == "duty cycle pulse_width_s * prf_hz must stay below 1"
                continue
        assert type(got) is type(expected), (value, got)
        assert str(got) == str(expected), value


@pytest.mark.parametrize(
    "cls, name, value",
    [
        (RadarSystem, "tx_power_w", 1.7e308),
        (RadarSystem, "ambient_temp_k", 1e300),
        (RadarSystem, "noise_figure_db", 2999.0),
        (SecondaryUser, "antenna_gain_dbi", 3000.0),
        (DeploymentField, "density_per_m2", 1e6),
        (WifiLink, "rx_bandwidth_hz", 0.5),
        (WifiLink, "rx_noise_figure_db", 100.5),
    ],
)
def test_records_refuse_what_the_cli_refuses_in_its_words(cls, name, value):
    # each was accepted by the record while the scenario loader refused it
    path = f"{cls._schema_section}.{name}"
    with pytest.raises(ValidationError) as expected:
        check_field(path, value)
    with pytest.raises(ValidationError) as got:
        cls(**{**SAMPLES[cls], name: value})
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith(f"{path}: {value!r} is ")
    inside = np.float64(SAMPLES[cls][name])
    assert getattr(cls(**{**SAMPLES[cls], name: inside}), name) is inside
    check_field(path, inside)

