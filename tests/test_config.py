"""Config round trips and validation."""

import json
import re
from pathlib import Path

import pytest

from hireg import RunConfig, ValidationError, load_config, save_config
from hireg.config import DetectorParams, MatchingParams, MetricParams


class TestRunConfig:
    def test_dict_round_trip_is_identity(self):
        config = RunConfig()
        again = RunConfig.from_dict(config.to_dict())
        assert again == config

    def test_file_round_trip(self, tmp_path):
        config = RunConfig(seed=42, anchors=128)
        path = tmp_path / "config.json"
        save_config(path, config)
        loaded = load_config(path)
        assert loaded == config
        save_config(tmp_path / "config2.json", loaded)
        assert (tmp_path / "config.json").read_text() == (tmp_path / "config2.json").read_text()

    def test_partial_dict_uses_defaults(self):
        config = RunConfig.from_dict({"seed": 7, "ransac": {"inlier_threshold": 0.02}})
        assert config.seed == 7
        assert config.ransac.inlier_threshold == 0.02
        assert config.detector == DetectorParams()

    # Sections and knobs that nothing read, and matching.cell_radius, which
    # repeated descriptor.low_radius; they are unknown keys now.
    @pytest.mark.parametrize("document", [
        {"circle": {}},
        {"targets": {}},
        {"loss_weights": {}},
        {"matching": {"mutual": True}},
        {"matching": {"per_cell_selection": False}},
        {"ransac": {"seed": 0}},
        {"matching": {"cell_radius": 0.1}},
        {"positive_reduction": "min"},
    ], ids=["circle", "targets", "loss_weights", "matching.mutual",
            "matching.per_cell_selection", "ransac.seed", "matching.cell_radius",
            "positive_reduction"])
    def test_removed_keys_rejected(self, document):
        with pytest.raises(ValidationError, match="unknown keys"):
            RunConfig.from_dict(document)

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 1
        data = json.loads(blocks[0])
        parsed = RunConfig.from_dict(data).to_dict()
        for key, value in data.items():
            if isinstance(value, dict):
                assert {name: parsed[key][name] for name in value} == value
            else:
                assert parsed[key] == value

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError):
            RunConfig.from_dict({"sede": 3})
        with pytest.raises(ValidationError):
            RunConfig.from_dict({"ransac": {"inlier_thresh": 0.02}})

    def test_invalid_nested_values_rejected(self):
        with pytest.raises(ValidationError):
            RunConfig.from_dict({"matching": {"top_fraction": 0.0}})
        with pytest.raises(ValidationError):
            RunConfig.from_dict({"sampling": {"positive": 0.2, "local_negative": 0.1,
                                              "global_negative": 0.3}})

    # A bool is no number, and a number is no string; each used to pass and
    # fail later inside register with a TypeError.
    @pytest.mark.parametrize("document", [
        {"seed": "3"},
        {"seed": True},
        {"seed": 3.0},
        {"anchors": False},
        {"descriptor": {"bins": 11.5}},
        {"ransac": {"max_iterations": "100"}},
        {"ransac": {"inlier_threshold": True}},
        {"matching": {"top_fraction": "0.5"}},
        {"matching": {"top_fraction": None}},
    ], ids=["seed-str", "seed-bool", "seed-float", "anchors-bool", "bins-float",
            "iterations-str", "threshold-bool", "fraction-str", "fraction-null"])
    def test_wrong_value_type_rejected(self, document):
        with pytest.raises(ValidationError, match="expected (int|float|str), got"):
            RunConfig.from_dict(document)

    # JSON's Infinity, NaN and 1e999 parse as floats. An infinite radius
    # would put every pair of points into one neighbour graph.
    @pytest.mark.parametrize("text, field", [
        ('{"descriptor": {"high_radius": Infinity}}', "config.descriptor.high_radius"),
        ('{"descriptor": {"high_radius": 1e999}}', "config.descriptor.high_radius"),
        ('{"descriptor": {"normal_radius": Infinity}}', "config.descriptor.normal_radius"),
        ('{"sampling": {"global_negative": Infinity}}', "config.sampling.global_negative"),
        ('{"matching": {"top_fraction": NaN}}', "config.matching.top_fraction"),
    ], ids=["high-inf", "high-1e999", "normal-inf", "global-negative-inf", "fraction-nan"])
    def test_nonfinite_float_rejected(self, tmp_path, text, field):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match=re.escape(field) + ": expected a finite"):
            load_config(path)

    def test_int_accepted_for_float_field(self):
        config = RunConfig.from_dict({"matching": {"top_fraction": 1},
                                      "sampling": {"global_negative": 2}})
        assert config.matching.top_fraction == 1.0
        assert type(config.matching.top_fraction) is float
        assert type(config.sampling.global_negative) is float

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            RunConfig.from_dict({"seed": -1})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_config(path)

    def test_section_validation(self):
        with pytest.raises(ValidationError):
            DetectorParams(saliency_k=1)
        with pytest.raises(ValidationError):
            MatchingParams(top_fraction=0.0)
        with pytest.raises(ValidationError):
            MetricParams(fmr_threshold=1.0)
