"""Versioned JSON artifacts: one machine-readable result per experiment.

The text reports reproduce the paper's tables byte for byte; the
artifacts make the same numbers diffable and scriptable.  Every artifact
carries a schema tag so downstream consumers can detect layout changes,
the resolved parameter set so runs are comparable, and the experiment's
data payload converted to plain JSON types.

``wall_clock_seconds`` is the one volatile field — two runs of the same
grid produce artifacts identical everywhere else, which is what the
serial-versus-parallel equivalence checks compare.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from pathlib import Path
from typing import Any, Dict

from repro.errors import EvaluationError

#: Bump when the artifact layout changes shape.
SCHEMA_TAG = "repro-experiment/v1"

#: Fields excluded when comparing artifacts across runs.
VOLATILE_KEYS = ("wall_clock_seconds",)

_REQUIRED = {
    "schema": str,
    "experiment": str,
    "params": dict,
    "produces": list,
    "data": dict,
    "wall_clock_seconds": float,
}


class ArtifactError(EvaluationError):
    """An artifact failed schema validation."""


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` to plain JSON types.

    Handles dataclasses, enums, mappings with non-string keys, tuples
    and sets; everything else must already be a JSON primitive.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.name.lower()
    if isinstance(obj, dict):
        return {str(to_jsonable(key)): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in obj]
    if isinstance(obj, (str, bool, int, float)) or obj is None:
        return obj
    raise ArtifactError(f"cannot serialise {type(obj).__name__} into an artifact")


def build_artifact(
    name: str,
    params: Dict[str, Any],
    produces: tuple,
    data: Dict[str, Any],
    wall_clock_seconds: float,
) -> Dict[str, Any]:
    """Assemble one schema-tagged artifact dict (already validated)."""
    artifact = {
        "schema": SCHEMA_TAG,
        "experiment": name,
        "params": to_jsonable(params),
        "produces": list(produces),
        "data": to_jsonable(data),
        "wall_clock_seconds": round(float(wall_clock_seconds), 4),
    }
    validate_artifact(artifact)
    return artifact


def validate_artifact(artifact: Dict[str, Any]) -> None:
    """Raise :class:`ArtifactError` unless ``artifact`` matches the schema."""
    if not isinstance(artifact, dict):
        raise ArtifactError(f"artifact must be a dict, got {type(artifact).__name__}")
    for key, expected in _REQUIRED.items():
        if key not in artifact:
            raise ArtifactError(f"artifact missing required key {key!r}")
        value = artifact[key]
        if expected is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ArtifactError(f"artifact[{key!r}] must be a number")
        elif not isinstance(value, expected):
            raise ArtifactError(
                f"artifact[{key!r}] must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
    if artifact["schema"] != SCHEMA_TAG:
        raise ArtifactError(
            f"unknown artifact schema {artifact['schema']!r}; "
            f"this reader understands {SCHEMA_TAG!r}"
        )
    for key in artifact["produces"]:
        if key not in artifact["data"]:
            raise ArtifactError(f"artifact promises {key!r} but data lacks it")
    # The whole point is machine-readability: it must round-trip as JSON.
    try:
        json.dumps(artifact)
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"artifact is not JSON-serialisable: {exc}") from exc


def write_artifact(directory: Path, artifact: Dict[str, Any]) -> Path:
    """Validate and write one artifact as ``<experiment>.json``."""
    validate_artifact(artifact)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{artifact['experiment']}.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path
