"""Sectioned config loading and standard-run defaults."""

from __future__ import annotations

import json
import re

import pytest

from skillnet.config import load_app_config
from skillnet.errors import ConfigInvalid, ParseError


class TestDefaults:
    def test_no_file_gives_standard_values(self):
        config = load_app_config(None)
        assert config.retrieval.k_max == 8
        assert config.retrieval.depth == 2
        assert config.retrieval.beam_width == 3
        assert config.evolution.max_new_skills == 3
        assert config.evolution.merge_jaccard == 0.85
        assert config.evolution.reinforce_step == 0.05
        assert config.evolution.decay_factor == 0.99
        assert config.evolution.prune_threshold == 0.05
        assert config.evolution.cooccur_min_count == 2
        assert config.curriculum.warmup_length == 5
        assert config.curriculum.unlock_threshold == 0.6

    def test_omitted_fields_fall_back(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "retrieval": {"k_max": 4},
            "evolution": {"max_new_skills": 1},
        }))
        config = load_app_config(path)
        assert config.retrieval.k_max == 4
        assert config.retrieval.depth == 2          # untouched default
        assert config.evolution.max_new_skills == 1
        assert config.evolution.merge_jaccard == 0.85

    def test_all_sections_parse(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "retrieval": {"beam_width": 5},
            "evolution": {"decay_factor": 0.95},
            "curriculum": {"warmup_length": 2},
            "proposer": {"endpoint": "http://localhost:1", "timeout": 3.0},
            "simulation": {"steps": 10},
        }))
        config = load_app_config(path)
        assert config.proposer.endpoint == "http://localhost:1"
        assert config.simulation.steps == 10
        # the simulator reads the top-level sections, not copies of them
        assert config.simulation.retrieval.beam_width == 5
        assert config.simulation.evolution.decay_factor == 0.95
        assert config.simulation.curriculum.warmup_length == 2


class TestValidation:
    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"retrieval": {"kmax": 9}}))
        with pytest.raises(ConfigInvalid):
            load_app_config(path)

    def test_unknown_section_strict(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mystery": {}}))
        with pytest.raises(ConfigInvalid):
            load_app_config(path, strict=True)
        load_app_config(path, strict=False)

    def test_bad_json_reports_location(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{\n  broken")
        with pytest.raises(ParseError):
            load_app_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            load_app_config(tmp_path / "absent.json")

    def test_non_object_section_rejected(self, tmp_path):
        for section in ("retrieval", "evolution", "curriculum", "proposer"):
            path = tmp_path / f"{section}.json"
            path.write_text(json.dumps({section: "nope"}))
            with pytest.raises(ConfigInvalid):
                load_app_config(path)

    def test_split_band_list_becomes_tuple(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"evolution": {"split_band": [0.1, 0.3]}}))
        config = load_app_config(path)
        assert config.evolution.split_band == (0.1, 0.3)


# each ended in a traceback and exit 1 before types and ranges were checked
BAD_CONFIGS = [
    {"retrieval": {"k_max": "8"}},
    {"evolution": {"split_band": 5}},
    {"curriculum": {"warmup_length": "2"}},
    {"simulation": {"steps": "3"}},
    {"simulation": {"types": [{"nme": "x"}]}},
    {"evolution": {"decay_factor": 6.0}},  # weights would leave [0, 1]
]


class TestTypesAndRanges:
    def load(self, tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return load_app_config(path)

    @pytest.mark.parametrize("doc", BAD_CONFIGS + [
        {"retrieval": {"k_max": True}},         # bool is not a number
        {"retrieval": {"depth": 2.0}},
        {"retrieval": {"depth": -1}},
        {"retrieval": {"beam_width": -1}},
        {"evolution": {"merge_jaccard": 1.5}},
        {"evolution": {"reinforce_step": -0.1}},
        {"evolution": {"prune_threshold": 2}},
        {"evolution": {"deprecate_threshold": "low"}},
        {"evolution": {"split_band": [0.5, 0.2]}},
        {"evolution": {"split_band": [0.1, 0.2, 0.3]}},
        {"evolution": {"max_new_skills": -1}},
        {"evolution": {"cooccur_min_count": 1.5}},
        {"curriculum": {"warmup_length": -1}},
        {"curriculum": {"unlock_threshold": 1.1}},
        {"proposer": {"timeout": 0}},
        {"proposer": {"timeout": 1e300}},       # overflows a socket timeout
        {"proposer": {"temperature": -0.5}},
        {"proposer": {"max_retries": -1}},
        {"proposer": {"endpoint": 80}},
        {"simulation": {"types": "prep"}},
        {"simulation": {"types": [{"name": "x"}]}},  # canonical is required
        {"simulation": {"k_max": 1}},            # lives in retrieval now
        {"simulation": {"evolution": {}}},       # lives at the top level
    ])
    def test_rejected(self, tmp_path, doc):
        with pytest.raises(ConfigInvalid):
            self.load(tmp_path, doc)

    @pytest.mark.parametrize("text", [
        '{"evolution": {"decay_factor": NaN}}',
        '{"evolution": {"decay_factor": Infinity}}',
        '{"evolution": {"decay_factor": 1e400}}',
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, text):
        with pytest.raises(ConfigInvalid):
            self.load(tmp_path, text)

    def test_accepted_values_are_typed(self, tmp_path):
        config = self.load(tmp_path, {
            "retrieval": {"k_max": -1},          # negative means uncapped
            "evolution": {"decay_factor": 1, "split_band": [0, 1]},
            "proposer": {"endpoint": None},
            "simulation": {"types": [{"name": "x", "canonical": list("abcd")}],
                           "initial_skills": []},
        })
        assert config.retrieval.k_max == -1
        assert type(config.evolution.decay_factor) is float
        assert config.evolution.split_band == (0.0, 1.0)
        assert config.proposer.endpoint is None
        assert config.simulation.types[0].chain_max == 4  # dataclass default


def sim_type(**fields) -> dict:
    return {"name": "x", "canonical": ["a", "b", "c", "d"], **fields}


def seed_skill(skill_id: str = "s", category: str = "x") -> dict:
    return {"skill_id": skill_id, "title": "T", "category": category}


# each refusal of TaskTypeSpec.validate and SimConfig.validate; a section
# that names its types also names its starter skills, since the default
# ones belong to the default types
SIM_REFUSALS = [
    ({"types": [sim_type(name="")]}, "bad task type name ''"),
    ({"types": [sim_type(name="general")]}, "bad task type name 'general'"),
    ({"types": [sim_type(canonical=[])]}, "type x: empty concept sequence"),
    ({"types": [sim_type(chain_min=0)]},
     "type x: chain bounds must satisfy 1 <= min <= max <= 6"),
    ({"types": [sim_type(chain_min=3, chain_max=2)]}, "type x: chain bounds"),
    ({"types": [sim_type(canonical=list("abcdefg"), chain_max=7)]}, "type x: chain bounds"),
    ({"types": [sim_type(weight=0)]}, "type x: weight must be positive"),
    ({"types": []}, "simulation needs at least one task type"),
    ({"types": [sim_type(canonical=["a", "b"])]}, "type x: chain_max exceeds concept count"),
    ({"types": [sim_type(), sim_type()]}, "duplicate task type names"),
    ({"types": [sim_type()], "initial_skills": [seed_skill(), seed_skill()]},
     "duplicate initial skill ids"),
    ({"types": [sim_type()], "initial_skills": [seed_skill(category="y")]},
     "skill s: unknown category 'y'"),
    ({"steps": -1}, "steps/tasks_per_step/group_size out of range"),
    ({"tasks_per_step": 0}, "steps/tasks_per_step/group_size out of range"),
    ({"group_size": 0}, "steps/tasks_per_step/group_size out of range"),
    ({"validation_frequency": 0}, "validation_frequency must be >= 1"),
]


@pytest.mark.parametrize("simulation, message", SIM_REFUSALS)
def test_simulation_section_refusals(tmp_path, simulation, message):
    if "types" in simulation:
        simulation = {"initial_skills": [], **simulation}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"simulation": simulation}))
    with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}"):
        load_app_config(path)
