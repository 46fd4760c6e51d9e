"""Artifact schema: conversion, validation, and disk round-trip."""

import enum
import json
from dataclasses import dataclass

import pytest

from repro.exp.artifacts import (
    SCHEMA_TAG,
    ArtifactError,
    build_artifact,
    to_jsonable,
    validate_artifact,
    write_artifact,
)


class Colour(enum.Enum):
    RED = 1
    BLUE = 2


@dataclass
class Point:
    x: int
    label: str


class TestToJsonable:
    def test_primitives_pass_through(self):
        for value in (1, 1.5, "s", True, None):
            assert to_jsonable(value) == value

    def test_dataclass_becomes_dict(self):
        assert to_jsonable(Point(3, "a")) == {"x": 3, "label": "a"}

    def test_enum_becomes_lowercase_name(self):
        assert to_jsonable(Colour.RED) == "red"

    def test_non_string_keys_stringified(self):
        assert to_jsonable({2: 1.0, 8: 2.1}) == {"2": 1.0, "8": 2.1}

    def test_nested_structures(self):
        nested = {"points": (Point(1, "a"), Point(2, "b")), "kind": Colour.BLUE}
        assert to_jsonable(nested) == {
            "points": [{"x": 1, "label": "a"}, {"x": 2, "label": "b"}],
            "kind": "blue",
        }

    def test_unserialisable_rejected(self):
        with pytest.raises(ArtifactError, match="cannot serialise"):
            to_jsonable(object())


def _artifact():
    return build_artifact(
        "demo",
        {"size": 24},
        ("rows",),
        {"rows": [{"a": 1}]},
        0.25,
    )


class TestSchema:
    def test_build_produces_a_valid_artifact(self):
        artifact = _artifact()
        validate_artifact(artifact)  # must not raise
        assert artifact["schema"] == SCHEMA_TAG
        assert artifact["experiment"] == "demo"
        assert artifact["params"] == {"size": 24}
        assert artifact["wall_clock_seconds"] == 0.25

    @pytest.mark.parametrize(
        "key", ["schema", "experiment", "params", "produces", "data"]
    )
    def test_missing_key_rejected(self, key):
        artifact = _artifact()
        del artifact[key]
        with pytest.raises(ArtifactError, match="missing required key"):
            validate_artifact(artifact)

    def test_unknown_schema_tag_rejected(self):
        artifact = _artifact()
        artifact["schema"] = "repro-experiment/v999"
        with pytest.raises(ArtifactError, match="unknown artifact schema"):
            validate_artifact(artifact)

    def test_promised_keys_must_exist_in_data(self):
        with pytest.raises(ArtifactError, match="promises"):
            build_artifact("demo", {}, ("missing",), {"rows": []}, 0.0)

    def test_unjsonable_data_rejected_at_build(self):
        with pytest.raises(ArtifactError, match="cannot serialise"):
            build_artifact("demo", {}, ("rows",), {"rows": object()}, 0.0)

    def test_wrong_type_rejected(self):
        artifact = _artifact()
        artifact["params"] = "not a dict"
        with pytest.raises(ArtifactError, match="must be dict"):
            validate_artifact(artifact)


class TestWrite:
    def test_write_round_trips_as_json(self, tmp_path):
        artifact = _artifact()
        path = write_artifact(tmp_path, artifact)
        assert path == tmp_path / "demo.json"
        assert json.loads(path.read_text()) == artifact

    def test_write_creates_directory(self, tmp_path):
        target = tmp_path / "deeper" / "still"
        path = write_artifact(target, _artifact())
        assert path.exists()
