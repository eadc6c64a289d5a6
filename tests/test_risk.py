import dataclasses
import inspect
import math
import pickle
import re
import sys
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hazardrisk import (
    Assessment,
    BandCatalog,
    EnvironmentReading,
    HazardBand,
    JointProbabilityTable,
    MarginalDistribution,
    RiskLevel,
    SampleSet,
    SamplerConfig,
    Scenario,
    SpeedProfile,
    assess,
    assess_columns,
    classify,
    composite_risk,
    default_catalog,
    generate_dataset,
    joint_probability,
    normalize_marginals,
    risk_level,
    risk_matrix,
    scenario_grid,
    score_severity,
    speed_profile,
)
import hazardrisk.cli
from hazardrisk.bands import Dimension, Record
from hazardrisk.probability import JointEntry
from hazardrisk.sampler import ScenarioStats, scenario_stats
from hazardrisk.reporting import ASSESSMENT_FIELDS


class TestCompositeRisk:
    def test_floor(self):
        assert composite_risk(1, 1) == 1

    def test_dry_very_dense_fog_product(self):
        assert composite_risk(4, 5) == 20

    def test_ceiling(self):
        assert composite_risk(5, 5) == 25

    @pytest.mark.parametrize("pair", [(0, 3), (3, 6), (-1, 1), (3, 0)])
    def test_out_of_range_rejected(self, pair):
        with pytest.raises(ValueError):
            composite_risk(*pair)


class TestRiskLevel:
    @pytest.mark.parametrize(
        "score,level",
        [
            (1, RiskLevel.LOW),
            (3, RiskLevel.LOW),
            (5, RiskLevel.LOW),
            (6, RiskLevel.LOW_MEDIUM),
            (10, RiskLevel.LOW_MEDIUM),
            (12, RiskLevel.MEDIUM),
            (15, RiskLevel.MEDIUM),
            (16, RiskLevel.HIGH),
            (20, RiskLevel.HIGH),
            (21, RiskLevel.EXTREME),
            (25, RiskLevel.EXTREME),
        ],
    )
    def test_bands(self, score, level):
        assert risk_level(score) == level

    def test_partition_covers_1_to_25(self):
        levels = [risk_level(s) for s in range(1, 26)]
        assert len(levels) == 25
        # Band order is monotone in score.
        ordered = [RiskLevel.LOW, RiskLevel.LOW_MEDIUM, RiskLevel.MEDIUM, RiskLevel.HIGH, RiskLevel.EXTREME]
        indices = [ordered.index(lv) for lv in levels]
        assert indices == sorted(indices)

    @pytest.mark.parametrize("score", [0, 26, -3])
    def test_out_of_range_rejected(self, score):
        with pytest.raises(ValueError):
            risk_level(score)


class TestRiskMatrix:
    def test_corners(self):
        matrix = risk_matrix()
        assert matrix[0][0] == (1, RiskLevel.LOW)
        assert matrix[4][4] == (25, RiskLevel.EXTREME)
        assert matrix[2][3] == (12, RiskLevel.MEDIUM)  # severity 3, probability 4

    def test_all_cells_consistent(self):
        matrix = risk_matrix()
        for s in range(5):
            for p in range(5):
                score, level = matrix[s][p]
                assert score == (p + 1) * (s + 1)
                assert level == risk_level(score)

    def test_monotone_along_rows_and_columns(self):
        matrix = risk_matrix()
        for s in range(5):
            row = [matrix[s][p][0] for p in range(5)]
            assert row == sorted(row)
        for p in range(5):
            col = [matrix[s][p][0] for s in range(5)]
            assert col == sorted(col)


def flat_pipeline(mu, sight, grade=0.0, v_design=75.0):
    """Independent flat recomputation of the whole scoring chain."""
    friction = [("Icy", 0.05, 0.15, 9.0), ("Snow", 0.2, 0.3, 5.5),
                ("Wet", 0.4, 0.6, 3.75), ("Dry", 0.7, 0.9, 1.9)]
    visibility = [("Very Dense Fog", 33, 164, 18.7), ("Dense Fog", 164, 1000, 4.95),
                  ("Rain/Snow", 1000, 4000, 1.85), ("Clear", 4000, 6500, 0.685)]

    def pick(value, bands):
        cuts = [(a[2] + b[1]) / 2 for a, b in zip(bands, bands[1:])]
        idx = sum(1 for c in cuts if value >= c)
        return bands[idx][0]

    f_label = pick(mu, friction)
    v_label = pick(sight, visibility)
    pf = {b[0]: b[3] / sum(x[3] for x in friction) for b in friction}
    pv = {b[0]: b[3] / sum(x[3] for x in visibility) for b in visibility}
    joint = pf[f_label] * pv[v_label]
    p_score = 1 if joint <= 0.01 else 2 if joint <= 0.02 else 3 if joint <= 0.05 else 4 if joint <= 0.1 else 5
    v = (-3.67 + math.sqrt(13.47 + 0.12 * sight / (mu + grade))) / (0.06 / (mu + grade))
    va = min(v_design, 15 / 22 * v)
    red = 100 * (v_design - va) / v_design
    s_score = 1 if red < 6.67 else 2 if red < 20 else 3 if red < 100 / 3 else 4 if red < 200 / 3 else 5
    return p_score, s_score, p_score * s_score


class TestAssess:
    def test_icy_dense_fog_extreme(self, catalog, joint_table):
        result = assess(EnvironmentReading(mu=0.1, sight_distance=150), catalog, joint_table)
        assert result.probability_score == 5
        assert result.severity_score == 5
        assert result.risk_score == 25
        assert result.risk_level == RiskLevel.EXTREME

    def test_dry_clear_floor(self, catalog, joint_table):
        result = assess(EnvironmentReading(mu=0.8, sight_distance=5000), catalog, joint_table)
        assert result.probability_score == 1
        assert result.severity_score == 1
        assert result.risk_score == 1
        assert result.risk_level == RiskLevel.LOW

    def test_dry_very_dense_fog_high(self, catalog, joint_table):
        result = assess(EnvironmentReading(mu=0.8, sight_distance=150), catalog, joint_table)
        assert result.probability_score == 4
        assert result.severity_score == 5
        assert result.risk_score == 20
        assert result.risk_level == RiskLevel.HIGH

    def test_risk_is_product(self, catalog, joint_table):
        result = assess(EnvironmentReading(mu=0.25, sight_distance=582), catalog, joint_table)
        assert result.risk_score == result.probability_score * result.severity_score
        assert result.risk_score == 16

    def test_matches_flat_pipeline_at_band_midpoints(self, catalog, joint_table):
        f_mids = [(b.lower + b.upper) / 2 for b in catalog.friction_bands]
        v_mids = [(b.lower + b.upper) / 2 for b in catalog.sampling_visibility_bands]
        for mu in f_mids:
            for sight in v_mids:
                result = assess(
                    EnvironmentReading(mu=mu, sight_distance=sight), catalog, joint_table
                )
                p_score, s_score, score = flat_pipeline(mu, sight)
                assert (result.probability_score, result.severity_score, result.risk_score) == (
                    p_score,
                    s_score,
                    score,
                ), (mu, sight)



# Readings inside EnvironmentReading's domain: mu in (0, 1], sight >= 0,
# mu + grade > 0, design speed > 0, all finite.
reading_fields = st.fixed_dictionaries(
    {
        "mu": st.floats(min_value=0, max_value=1, exclude_min=True),
        "sight_distance": st.floats(min_value=0, max_value=1e308),
        "grade": st.floats(min_value=-1, max_value=1),
        "design_speed": st.floats(min_value=0, max_value=200, exclude_min=True),
    }
).filter(lambda f: f["mu"] + f["grade"] > 0)


class TestAssessProperties:
    @given(fields=reading_fields)
    # 0.12 * sight / mu overflows in the textbook form of the safe speed.
    @example(fields={"mu": 5e-324, "sight_distance": 100.0, "grade": 0.0, "design_speed": 75.0})
    @example(fields={"mu": 0.05, "sight_distance": 1e308, "grade": 0.0, "design_speed": 75.0})
    def test_risk_is_product_and_level_of_score(self, catalog, joint_table, fields):
        result = assess(EnvironmentReading(**fields), catalog, joint_table)
        assert result.risk_score == result.probability_score * result.severity_score
        assert result.risk_level == risk_level(result.risk_score)
        assert all(map(math.isfinite, vars(result.speed_profile).values()))

    @given(
        fields=reading_fields,
        field=st.sampled_from(["sight_distance", "grade", "design_speed"]),
        value=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_nonfinite_field_rejected(self, fields, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            EnvironmentReading(**{**fields, field: value})


MAX = sys.float_info.max
# Readings EnvironmentReading accepts, over the whole float range: subnormal
# friction, and sights, grades and design speeds up to the largest float (a
# grade at or below -1 is never accepted, since mu <= 1).
any_reading = st.fixed_dictionaries({
    "mu": st.floats(min_value=0, max_value=1, exclude_min=True),
    "sight_distance": st.one_of(st.floats(min_value=0, max_value=1e4), st.floats(0, MAX)),
    "grade": st.one_of(st.floats(-1, 1), st.floats(-1, MAX)),
    "design_speed": st.one_of(st.floats(0, 200, exclude_min=True),
                              st.floats(0, MAX, exclude_min=True)),
}).filter(lambda f: f["mu"] + f["grade"] > 0).map(lambda f: EnvironmentReading(**f))


def checked_chain(reading, catalog, joint_table):
    """assess() composed by hand from the public functions, each with its checks."""
    fband, vband = classify(reading, catalog)
    entry = joint_table.lookup(fband.label, vband.label)
    profile = speed_profile(reading.mu, reading.grade, reading.sight_distance,
                            reading.design_speed)
    s_score = score_severity(profile.reduction_pct)
    score = composite_risk(entry.probability_score, s_score)
    return Assessment(reading, fband.label, vband.label, entry.normalized_joint,
                      entry.probability_score, profile, s_score, score, risk_level(score))


def assert_assess_is_the_checked_chain(reading, catalog, joint_table):
    got = assess(reading, catalog, joint_table)
    want = checked_chain(reading, catalog, joint_table)
    assert got == want
    # repr tells every float apart, including -0.0 from 0.0.
    assert repr(tuple(vars(got).values())) == repr(tuple(vars(want).values()))


# A second catalog, read as --config reads it: 3 friction and 5 visibility
# bands, with gaps between the friction bands and between the literature
# visibility bands, whose cuts are the gaps' midpoints.
GAPPED_RATES = """dimension,label,lower,upper,crash_rate
friction,Ice,0.05,0.12,10.0
friction,Slush,0.3,0.5,4.0
friction,Grip,0.75,1.0,1.0
visibility,Whiteout,0,50,30.0
visibility,Fog,80,300,8.0
visibility,Mist,400,900,3.0
visibility,Haze,1200,2500,1.2
visibility,Clear,3000,6562,0.5
sampling_visibility,Whiteout,0,60,30.0
sampling_visibility,Fog,60,350,8.0
sampling_visibility,Mist,350,1500,3.0
sampling_visibility,Haze,1500,3200,1.2
sampling_visibility,Clear,3200,6562,0.5
"""
GAPPED_CUTS = ((0.21, 0.625), (60.0, 350.0, 1500.0, 3200.0))


@pytest.fixture(scope="module")
def gapped(tmp_path_factory):
    """(catalog, joint table) of GAPPED_RATES, through the CLI's --config path."""
    path = tmp_path_factory.mktemp("gapped") / "rates.csv"
    path.write_text(GAPPED_RATES)
    catalog, _ = hazardrisk.cli._resolve_catalog(str(path))
    return catalog, hazardrisk.cli._build_joint(catalog)[2]


class TestCheckOnce:
    """assess() skips the checks of the functions it stands for: no reading
    that EnvironmentReading accepts may fail them, or score otherwise."""

    @settings(max_examples=500)
    @given(reading=any_reading)
    @example(reading=EnvironmentReading(5e-324, 100.0))
    @example(reading=EnvironmentReading(5e-324, MAX, MAX, MAX))
    @example(reading=EnvironmentReading(1.0, MAX, -0.9999999999999999, 5e-324))
    @example(reading=EnvironmentReading(0.05, 0.0, MAX, 75.0))
    @example(reading=EnvironmentReading(0.5, 1e-300, -0.4999999999999999, 1e-300))
    # Each classification cut of the built-in catalog.
    @example(reading=EnvironmentReading(0.175, 164.0))
    @example(reading=EnvironmentReading(0.35, 1000.0))
    @example(reading=EnvironmentReading(0.6499999999999999, 4000.0))
    # The readings of TestAssessColumns whose reduction is a severity edge.
    @example(reading=EnvironmentReading(0.5, 415.0, 0.0, 42.39257221459931))
    @example(reading=EnvironmentReading(0.5, 100.0, 0.0, 17.40961915569003))
    @example(reading=EnvironmentReading(0.5, 100.0, 0.0, 20.891542986828036))
    @example(reading=EnvironmentReading(0.5, 100.0, 0.0, 41.783085973656085))
    def test_assess_equals_the_checked_chain(self, catalog, joint_table, reading):
        assert_assess_is_the_checked_chain(reading, catalog, joint_table)

    @settings(max_examples=200)
    @given(reading=any_reading)
    # Each classification cut of the gapped catalog.
    @example(reading=EnvironmentReading(0.21, 60.0))
    @example(reading=EnvironmentReading(0.625, 350.0))
    @example(reading=EnvironmentReading(1.0, 1500.0))
    @example(reading=EnvironmentReading(0.05, 3200.0))
    def test_assess_equals_the_checked_chain_on_a_gapped_catalog(self, gapped, reading):
        assert_assess_is_the_checked_chain(reading, *gapped)

    def test_gapped_catalog_cuts_at_its_examples(self, gapped):
        catalog, joint_table = gapped
        assert (catalog._friction_cuts, catalog._visibility_cuts) == GAPPED_CUTS
        assert len(joint_table.entries) == 15

    @pytest.mark.parametrize("score", [0, 6, 2.0])
    def test_hand_built_entry_with_a_score_outside_1_to_5_refused(self, score):
        message = f"probability score must be an integer in 1..5, got {score!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            JointEntry("Dry", "Clear", 0.01, 0.01, score)


# The Python frames one assess() call opens, by function name: its own and the
# safe-speed formula it shares with batch.speed_profiles, plus the fallback
# form where the textbook one overflows. A helper or an __init__ brought back
# into the chain, each a frame, fails here.
@pytest.mark.parametrize("reading,frames", [
    (EnvironmentReading(0.5, 300.0, 0.01, 65.0), ["assess", "textbook_safe_speed"]),
    (EnvironmentReading(5e-324, 100.0),
     ["assess", "textbook_safe_speed", "fallback_safe_speed"]),
], ids=["finite", "overflow"])
def test_python_frames_of_one_assess_call(catalog, joint_table, reading, frames):
    opened = []

    def profile(frame, event, arg):
        if event == "call":
            opened.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        assess(reading, catalog, joint_table)
    finally:
        sys.setprofile(None)
    assert opened == frames


def _scenario(catalog):
    return scenario_grid(catalog)[5]


# Every record of the package, each built anew on every call from the same
# values. Their __init__ is written by hand (direct __dict__ stores) on one
# base, bands.Record, so these hold them to what a frozen dataclass of the
# same fields gives.
RECORDS = {
    HazardBand: lambda catalog, joint: HazardBand(Dimension.FRICTION, "Wet", 0.4, 0.6, 3.75),
    EnvironmentReading: lambda catalog, joint: EnvironmentReading(0.5, 300.0, 0.01, 65.0),
    Scenario: lambda catalog, joint: _scenario(catalog),
    BandCatalog: lambda catalog, joint: default_catalog(),
    MarginalDistribution: lambda catalog, joint: normalize_marginals(
        list(catalog.visibility_bands)),
    JointEntry: lambda catalog, joint: JointEntry("Wet", "Clear", 0.125, 0.0625, 4),
    JointProbabilityTable: lambda catalog, joint: joint_probability(
        normalize_marginals(list(catalog.friction_bands)),
        normalize_marginals(list(catalog.visibility_bands))),
    SpeedProfile: lambda catalog, joint: speed_profile(0.5, 0.01, 300.0, 65.0),
    Assessment: lambda catalog, joint: assess(
        EnvironmentReading(0.5, 300.0, 0.01, 65.0), catalog, joint),
    SamplerConfig: lambda catalog, joint: SamplerConfig(7, 3, 5.0),
    SampleSet: lambda catalog, joint: generate_dataset(SamplerConfig(7, 3), catalog),
    ScenarioStats: lambda catalog, joint: scenario_stats(_scenario(catalog), np.array([4, 6, 8])),
}
# The defaults of each record's __init__: the twin below is given the same.
DEFAULTS = {
    EnvironmentReading: {"grade": 0.0, "design_speed": 75.0},
    MarginalDistribution: {"weights": None},
    SamplerConfig: {"seed": 42, "samples_per_scenario": 100, "sigma_rule": 6.0},
}


def test_every_record_is_listed():
    assert set(Record.__subclasses__()) == set(RECORDS)


def dataclass_twin(cls):
    """A frozen dataclass with the record's name, fields and defaults."""
    defaults = DEFAULTS.get(cls, {})
    return dataclasses.make_dataclass(cls.__name__, [
        (name, object, dataclasses.field(default=defaults[name])) if name in defaults else name
        for name in cls.__match_args__], frozen=True)


@pytest.mark.parametrize("cls", RECORDS, ids=attrgetter("__name__"))
class TestRecords:
    @pytest.fixture
    def make(self, cls, catalog, joint_table):
        return lambda: RECORDS[cls](catalog, joint_table)

    @pytest.fixture
    def twin(self, cls, make):
        record = make()
        return dataclass_twin(cls)(*map(record.__getattribute__, cls.__match_args__))

    def test_fields_cannot_be_assigned_or_deleted(self, cls, make):
        record = make()
        assert type(record) is cls
        for name in (*cls.__match_args__, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name, None))
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == make()

    def test_equal_values_give_equal_objects_and_hashes(self, cls, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        if cls is SampleSet:  # its records are an array
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_every_field_is_stored_in_field_order(self, cls, make):
        record = make()
        names = list(cls.__match_args__)
        # Past the fields, only the private attributes derived from them.
        assert [name for name in vars(record) if not name.startswith("_")] == names
        assert list(vars(record))[:len(names)] == names
        assert repr(record).startswith(f"{cls.__name__}({names[0]}=")
        assert cls(*map(record.__getattribute__, names)) == record

    def test_pickle_round_trip_gives_an_equal_object(self, cls, make):
        record = make()
        loaded = pickle.loads(pickle.dumps(record))
        assert type(loaded) is cls
        assert loaded == record
        if cls is not SampleSet:
            assert hash(loaded) == hash(record)
        assert list(vars(loaded)) == list(vars(record))

    def test_signature_lists_the_fields(self, cls):
        parameters = list(inspect.signature(cls).parameters.values())
        twin = list(inspect.signature(dataclass_twin(cls)).parameters.values())
        assert [(p.name, p.default, p.kind) for p in parameters] == [
            (p.name, p.default, p.kind) for p in twin]

    def test_repr_hash_and_eq_are_a_frozen_dataclasss(self, cls, make, twin):
        record = make()
        assert repr(record) == repr(twin)
        if cls is SampleSet:
            with pytest.raises(TypeError, match="unhashable"):
                hash(twin)
        else:
            assert hash(record) == hash(twin)
        # Of two classes, even with equal fields: neither side claims equality.
        assert record != twin and twin != record
        assert record.__eq__(twin) is NotImplemented


# Band edges and classification cuts of the built-in catalog, where a reading
# changes band, plus the sensor envelope's ends.
FRICTION_EDGES = [0.05, 0.15, 0.175, 0.2, 0.3, 0.35, 0.4, 0.6, 0.65, 0.7, 0.9, 1.0]
SIGHT_EDGES = [0.0, 33.0, 164.0, 1000.0, 4000.0, 6500.0, 6562.0]

column_readings = st.lists(
    st.fixed_dictionaries(
        {
            "mu": st.one_of(
                st.sampled_from(FRICTION_EDGES), st.floats(0, 1, exclude_min=True)
            ),
            "sight_distance": st.one_of(
                st.sampled_from(SIGHT_EDGES), st.floats(min_value=0, max_value=1e308)
            ),
            "grade": st.one_of(st.just(0.0), st.floats(min_value=-1, max_value=1)),
            "design_speed": st.floats(min_value=0, max_value=200, exclude_min=True),
        }
    ).filter(lambda f: f["mu"] + f["grade"] > 0),
    min_size=1,
    max_size=40,
)
EXTREMES = [
    {"mu": 5e-324, "sight_distance": 100.0, "grade": 0.0, "design_speed": 75.0},
    {"mu": 0.05, "sight_distance": 1e308, "grade": 0.0, "design_speed": 75.0},
    {"mu": 0.8, "sight_distance": 5000.0, "grade": 0.0, "design_speed": 75.0},
]


class TestAssessColumns:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(readings=column_readings)
    @example(readings=EXTREMES)
    def test_every_column_equals_assess_bit_for_bit(self, catalog, joint_table, readings):
        names = ("mu", "sight_distance", "grade", "design_speed")
        arrays = [np.array([r[name] for r in readings]) for name in names]
        columns = assess_columns(*arrays, catalog, joint_table)
        for path in ASSESSMENT_FIELDS.values():
            for fields, got in zip(readings, columns[path].tolist()):
                want = attrgetter(path)(assess(EnvironmentReading(**fields), catalog, joint_table))
                # repr tells every float apart, including -0.0 from 0.0.
                assert (type(got), repr(got)) == (type(want), repr(want)), (path, fields)

    # (sight, design speed) pairs at mu 0.5 whose percent reduction lands
    # exactly on each severity edge: 6.67, 20, 100/3 and 200/3.
    @pytest.mark.parametrize("sight,design", [
        (415.0, 42.39257221459931), (100.0, 17.40961915569003),
        (100.0, 20.891542986828036), (100.0, 41.783085973656085),
    ])
    def test_severity_edges_match_assess(self, catalog, joint_table, sight, design):
        reading = EnvironmentReading(0.5, sight, 0.0, design)
        want = assess(reading, catalog, joint_table)
        assert want.speed_profile.reduction_pct in (6.67, 20.0, 100 / 3, 200 / 3)
        columns = assess_columns(np.array([0.5]), np.array([sight]), 0.0, design,
                                 catalog, joint_table)
        assert columns["severity_score"].tolist() == [want.severity_score]

    def test_scalar_grade_and_design_speed_broadcast(self, catalog, joint_table):
        mu, sight = np.array([0.1, 0.8]), np.array([150.0, 500.0])
        scalar = assess_columns(mu, sight, 0.02, 55.0, catalog, joint_table)
        full = assess_columns(mu, sight, np.full(2, 0.02), np.full(2, 55.0), catalog, joint_table)
        assert scalar["risk_score"].tolist() == full["risk_score"].tolist()
        assert scalar["speed_profile.v_fhwa"].tolist() == full["speed_profile.v_fhwa"].tolist()
