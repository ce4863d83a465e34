"""JSON artifact files, pretty-printed with sorted keys so reruns are byte-identical."""
from __future__ import annotations

import json
from pathlib import Path

from .errors import InvalidArgumentError


def write_json(path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True))


def read_json(path) -> dict:
    """The JSON object stored at ``path``; InvalidArgumentError naming the file otherwise."""
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise InvalidArgumentError(f"{path}: not a readable JSON artifact: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidArgumentError(f"{path}: top level is a {type(obj).__name__}, not a JSON object")
    return obj
