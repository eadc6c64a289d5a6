import csv
import dataclasses
import io
import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hazardrisk import EnvironmentReading, HazardBand, classify, scenario_grid
from hazardrisk.bands import Dimension, load_catalog, numbered_records
from hazardrisk.batch import valid_readings


# Each field on both sides of its domain edge, then random floats.
@given(fields=st.tuples(st.floats(), st.floats(), st.floats(), st.floats()))
@example(fields=(1.0, 0.0, 0.0, 75.0))
@example(fields=(math.nextafter(1.0, 2.0), 0.0, 0.0, 75.0))
@example(fields=(5e-324, 0.0, -5e-324, 5e-324))
@example(fields=(0.0, 100.0, 0.5, 75.0))
@example(fields=(0.5, -0.0, -0.5, 1.0))
@example(fields=(0.5, -5e-324, 0.0, 75.0))
@example(fields=(0.5, 100.0, 0.0, -0.0))
@example(fields=(0.5, 6562.0, math.inf, 1.0))
@example(fields=(0.5, math.nan, 0.0, 75.0))
def test_valid_readings_is_the_reading_domain(fields):
    try:
        EnvironmentReading(*fields)
        accepted = True
    except ValueError:
        accepted = False
    assert valid_readings(*(np.array([x]) for x in fields)).tolist() == [accepted]


class TestDefaultCatalog:
    def test_friction_rates(self, catalog):
        rates = {b.label: b.crash_rate for b in catalog.friction_bands}
        assert rates == {"Dry": 1.90, "Wet": 3.75, "Snow": 5.50, "Icy": 9.00}

    def test_visibility_rates(self, catalog):
        rates = {b.label: b.crash_rate for b in catalog.visibility_bands}
        assert rates == {
            "Clear": 0.685,
            "Rain/Snow": 1.85,
            "Dense Fog": 4.95,
            "Very Dense Fog": 18.70,
        }

    def test_friction_bounds(self, catalog):
        bounds = {b.label: (b.lower, b.upper) for b in catalog.friction_bands}
        assert bounds["Dry"] == (0.7, 0.9)
        assert bounds["Icy"] == (0.05, 0.15)

    def test_sampling_bands_cover_sensor_envelope(self, catalog):
        bands = catalog.sampling_visibility_bands
        assert bands[0].lower == 33
        assert bands[-1].upper == 6500
        for lo, hi in zip(bands, bands[1:]):
            assert lo.upper == hi.lower

    def test_sampling_dense_fog_span(self, catalog):
        band = next(b for b in catalog.sampling_visibility_bands if b.label == "Dense Fog")
        assert (band.lower, band.upper) == (164, 1000)


class TestBandValidation:
    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            HazardBand(Dimension.FRICTION, "bad", 0.5, 0.4, 1.0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            HazardBand(Dimension.FRICTION, "bad", 0.4, 0.5, 0.0)

    def test_friction_above_one_rejected(self):
        with pytest.raises(ValueError):
            HazardBand(Dimension.FRICTION, "bad", 0.9, 1.1, 1.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_nonfinite_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="crash_rate"):
            HazardBand(Dimension.FRICTION, "bad", 0.4, 0.5, rate)

    def test_zero_width_band_rejected(self):
        with pytest.raises(ValueError, match="must be < upper"):
            HazardBand(Dimension.FRICTION, "bad", 0.5, 0.5, 1.0)

    # Each dimension's bounds: the closed ends are accepted, and the next
    # float past either end is rejected.
    @pytest.mark.parametrize("dimension,low,high", [
        (Dimension.FRICTION, 0.0, 1.0), (Dimension.VISIBILITY, 0.0, 6562.0)])
    def test_bounds_accepted_at_the_ends(self, dimension, low, high):
        band = HazardBand(dimension, "edge", low, high, 1.0)
        assert (band.lower, band.upper) == (low, high)

    @pytest.mark.parametrize("dimension,low,high", [
        (Dimension.FRICTION, 0.0, 1.0), (Dimension.VISIBILITY, 0.0, 6562.0)])
    @pytest.mark.parametrize("end", ["lower", "upper"])
    def test_bounds_rejected_one_float_past_the_ends(self, dimension, low, high, end):
        if end == "lower":
            low = math.nextafter(low, -math.inf)
        else:
            high = math.nextafter(high, math.inf)
        with pytest.raises(ValueError, match="bounds must lie in"):
            HazardBand(dimension, "edge", low, high, 1.0)


class TestCatalogValidation:
    @pytest.mark.parametrize("name", [
        "friction_bands", "visibility_bands", "sampling_visibility_bands"])
    def test_empty_band_set_rejected(self, catalog, name):
        with pytest.raises(ValueError, match=f"^{name}: expected at least one band$"):
            dataclasses.replace(catalog, **{name: ()})

    def test_band_of_the_other_dimension_rejected(self, catalog):
        bands = (*catalog.friction_bands, catalog.visibility_bands[-1])
        with pytest.raises(ValueError,
                           match="^friction_bands: band 'Clear' has wrong dimension$"):
            dataclasses.replace(catalog, friction_bands=bands)


class TestReadingValidation:
    def test_mu_zero_rejected(self):
        with pytest.raises(ValueError):
            EnvironmentReading(mu=0.0, sight_distance=100)

    def test_negative_sight_rejected(self):
        with pytest.raises(ValueError):
            EnvironmentReading(mu=0.5, sight_distance=-1)

    @pytest.mark.parametrize("field", ["sight_distance", "grade", "design_speed"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_field_rejected(self, field, value):
        fields = {"mu": 0.5, "sight_distance": 500.0, field: value}
        with pytest.raises(ValueError, match=field):
            EnvironmentReading(**fields)

    def test_grade_cancelling_mu_rejected(self):
        with pytest.raises(ValueError):
            EnvironmentReading(mu=0.1, sight_distance=100, grade=-0.1)

    def test_grade_error_gives_the_sum(self):
        with pytest.raises(ValueError, match=r"^mu \+ grade must be > 0, got -0\.25$"):
            EnvironmentReading(mu=0.5, sight_distance=100, grade=-0.75)

    def test_replace_validates_the_new_reading(self):
        reading = EnvironmentReading(mu=0.5, sight_distance=100)
        with pytest.raises(ValueError, match=r"^mu must be in \(0, 1\], got 0\.0$"):
            dataclasses.replace(reading, mu=0.0)
        assert dataclasses.replace(reading, grade=0.25) == EnvironmentReading(0.5, 100, 0.25)

    def test_negative_grade_accepted_when_sum_positive(self):
        reading = EnvironmentReading(mu=0.5, sight_distance=100, grade=-0.04)
        assert reading.grade == -0.04


class TestClassify:
    @pytest.mark.parametrize(
        "mu,label",
        [
            (0.8, "Dry"),  # interior
            (0.35, "Wet"),  # gap 0.3-0.4 splits at 0.35, boundary to upper band
            (0.349, "Snow"),
            (0.175, "Snow"),  # gap 0.15-0.2 midpoint
            (0.174, "Icy"),
            (0.01, "Icy"),  # below bottom band
            (1.0, "Dry"),  # above top band
            (0.65, "Dry"),  # gap 0.6-0.7 midpoint
        ],
    )
    def test_friction(self, catalog, mu, label):
        fband, _ = classify(EnvironmentReading(mu=mu, sight_distance=1000), catalog)
        assert fband.label == label

    @pytest.mark.parametrize(
        "sight,label",
        [
            (100, "Very Dense Fog"),
            (164, "Dense Fog"),  # boundary belongs to upper band
            (582, "Dense Fog"),  # sensor-aligned band, not literature Rain/Snow
            (2500, "Rain/Snow"),
            (5000, "Clear"),
            (10, "Very Dense Fog"),  # below sensor floor
            (6562, "Clear"),
        ],
    )
    def test_visibility(self, catalog, sight, label):
        _, vband = classify(EnvironmentReading(mu=0.5, sight_distance=sight), catalog)
        assert vband.label == label

    def test_total_and_unique_over_sweep(self, catalog):
        for mu in np.linspace(1e-6, 1.0, 2000):
            band, _ = classify(EnvironmentReading(mu=mu, sight_distance=1000), catalog)
            assert band in catalog.friction_bands
        for s in np.linspace(0.0, 6562.0, 2000):
            _, band = classify(EnvironmentReading(mu=0.5, sight_distance=s), catalog)
            assert band in catalog.sampling_visibility_bands

    def test_monotone(self, catalog):
        order = {b.label: i for i, b in enumerate(catalog.friction_bands)}
        mus = np.linspace(1e-6, 1.0, 500)
        indices = [
            order[classify(EnvironmentReading(mu=m, sight_distance=1000), catalog)[0].label]
            for m in mus
        ]
        assert indices == sorted(indices)
        order = {b.label: i for i, b in enumerate(catalog.sampling_visibility_bands)}
        sights = np.linspace(0.0, 6562.0, 500)
        indices = [
            order[classify(EnvironmentReading(mu=0.5, sight_distance=s), catalog)[1].label]
            for s in sights
        ]
        assert indices == sorted(indices)


class TestScenarioGrid:
    def test_count(self, catalog):
        assert len(scenario_grid(catalog)) == 16

    def test_first_and_last_rows(self, catalog):
        grid = scenario_grid(catalog)
        assert grid[0].friction_band.label == "Dry"
        assert grid[0].visibility_band.label == "Clear"
        assert grid[0].practicality == "Common (normal driving)"
        assert grid[-1].friction_band.label == "Icy"
        assert grid[-1].visibility_band.label == "Very Dense Fog"

    def test_bijection(self, catalog):
        grid = scenario_grid(catalog)
        pairs = {(s.friction_band.label, s.visibility_band.label) for s in grid}
        expected = {
            (f.label, v.label)
            for f in catalog.friction_bands
            for v in catalog.visibility_bands
        }
        assert pairs == expected

    def test_ids_sequential(self, catalog):
        assert [s.scenario_id for s in scenario_grid(catalog)] == list(range(1, 17))


class TestLoadCatalog:
    def test_roundtrip_defaults(self, catalog, default_rates_csv, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text(default_rates_csv)
        loaded = load_catalog(path)
        assert loaded == catalog
        assert classify(EnvironmentReading(0.1, 150), loaded) == classify(
            EnvironmentReading(0.1, 150), catalog
        )

    def test_inconsistent_catalog_rejected(self, bad_rates_path):
        with pytest.raises(ValueError):
            load_catalog(bad_rates_path)

    @pytest.mark.parametrize("old,new", [
        ("friction,Snow,", "\nfriction,Snow,"),
        ("friction,Wet,", 'friction,"Wet\nroad",'),
    ], ids=["blank_line", "label_spanning_lines"])
    def test_error_names_the_line_the_row_starts_on(self, tmp_path, default_rates_csv, old, new):
        # 13 lines of default rates, one more from the edit, then the bad row.
        path = tmp_path / "rates.csv"
        path.write_text(default_rates_csv.replace(old, new) + "slope,Steep,0.1,0.2,1.0\n")
        with pytest.raises(ValueError, match=r"line 15: unknown dimension 'slope'"):
            load_catalog(path)

    def test_unparseable_number_names_the_line(self, tmp_path, default_rates_csv):
        # The bad cell follows a quoted label that spans lines 4-5.
        path = tmp_path / "rates.csv"
        path.write_text(default_rates_csv.replace("friction,Wet,0.4,", 'friction,"Wet\nroad",abc,'))
        with pytest.raises(ValueError) as info:
            load_catalog(path)
        assert str(info.value) == (
            f"crash-rate config {path} line 4: could not convert string to float: 'abc'")

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text("dimension,label,lower,upper,crash_rate,crash_rate\n"
                        "friction,Dry,0.7,0.9,1.9,5.7\n")
        with pytest.raises(ValueError) as info:
            load_catalog(path)
        assert str(info.value) == f"crash-rate config {path}: header repeats column 'crash_rate'"

    def test_repeated_unread_columns_load(self, catalog, tmp_path, default_rates_csv):
        # Only the columns load_catalog reads must be named once.
        lines = [f"{line},,,," for line in default_rates_csv.splitlines()]
        lines[0] = lines[0].replace(",,,,", ",note,note,,")
        path = tmp_path / "rates.csv"
        path.write_text("\n".join(lines) + "\n")
        assert load_catalog(path) == catalog

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text("dimension,label,lower,upper\nfriction,Dry,0.7,0.9\n")
        with pytest.raises(ValueError):
            load_catalog(path)

    def test_unknown_dimension_rejected(self, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text(
            "dimension,label,lower,upper,crash_rate\nslope,Steep,0.1,0.2,1.0\n"
        )
        with pytest.raises(ValueError):
            load_catalog(path)


@pytest.mark.parametrize("block", [2, 5])
def test_numbered_records_give_the_line_before_each_record(block):
    # A header, a row, a blank line, a record whose quoted field spans lines
    # 4-5, then a row on line 6; read in islice blocks, as replay reads them.
    records, read = numbered_records(csv.reader(io.StringIO('a,b\n1,2\n\n"x\ny",3\n4,5\n'))), []
    while chunk := list(islice(records, block)):
        read += [(line + 1, fields) for line, fields in chunk]
    assert read == [(1, ["a", "b"]), (2, ["1", "2"]), (3, []), (4, ["x\ny", "3"]), (6, ["4", "5"])]
