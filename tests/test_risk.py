import dataclasses
import inspect
import math
import pickle
from dataclasses import astuple
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hazardrisk import (
    Assessment,
    EnvironmentReading,
    RiskLevel,
    SpeedProfile,
    assess,
    assess_columns,
    composite_risk,
    risk_level,
    risk_matrix,
    speed_profile,
)
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
        assert all(map(math.isfinite, astuple(result.speed_profile)))

    @given(
        fields=reading_fields,
        field=st.sampled_from(["sight_distance", "grade", "design_speed"]),
        value=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_nonfinite_field_rejected(self, fields, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            EnvironmentReading(**{**fields, field: value})


# The three records of a scored reading, each built anew on every call from
# the same values. Their __init__ is written by hand (one __dict__ update), so
# these hold them to what a generated frozen dataclass gives.
RECORDS = {
    EnvironmentReading: lambda catalog, joint: EnvironmentReading(0.5, 300.0, 0.01, 65.0),
    SpeedProfile: lambda catalog, joint: speed_profile(0.5, 0.01, 300.0, 65.0),
    Assessment: lambda catalog, joint: assess(
        EnvironmentReading(0.5, 300.0, 0.01, 65.0), catalog, joint),
}


@pytest.mark.parametrize("cls", RECORDS, ids=attrgetter("__name__"))
class TestRecords:
    @pytest.fixture
    def make(self, cls, catalog, joint_table):
        return lambda: RECORDS[cls](catalog, joint_table)

    def test_fields_cannot_be_assigned_or_deleted(self, cls, make):
        record = make()
        assert type(record) is cls
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, getattr(record, field.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, field.name)
        assert record == make()

    def test_equal_values_give_equal_objects_and_hashes(self, cls, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert dataclasses.replace(a) == a

    def test_every_field_is_stored_in_field_order(self, cls, make):
        record = make()
        names = [field.name for field in dataclasses.fields(cls)]
        assert list(vars(record)) == names
        assert list(dataclasses.asdict(record)) == names
        assert repr(record).startswith(f"{cls.__name__}({names[0]}=")
        assert cls(*vars(record).values()) == record

    def test_pickle_round_trip_gives_an_equal_object(self, cls, make):
        record = make()
        loaded = pickle.loads(pickle.dumps(record))
        assert type(loaded) is cls
        assert loaded == record and hash(loaded) == hash(record)
        assert list(vars(loaded)) == list(vars(record))

    def test_signature_lists_the_fields(self, cls):
        parameters = list(inspect.signature(cls).parameters.values())
        assert [(p.name, p.default, p.kind) for p in parameters] == [
            (f.name,
             inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default,
             inspect.Parameter.POSITIONAL_OR_KEYWORD)
            for f in dataclasses.fields(cls)
        ]


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
