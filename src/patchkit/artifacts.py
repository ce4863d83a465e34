"""JSON artifact files, pretty-printed with sorted keys so reruns are byte-identical,
the bounds-checked reader behind the binary formats (VOL1, PNC1), and the type
checks shared by artifact loaders and the run configuration."""
from __future__ import annotations

import json
from pathlib import Path
from typing import get_args, get_origin

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


def byte_reader(path, kind: str):
    """``(take, done)`` over the bytes of the ``kind`` file at ``path``.

    ``take(n)`` returns the next ``n`` bytes as a zero-copy memoryview; ``done()``
    checks that nothing follows the last byte taken. Both raise
    InvalidArgumentError naming the file, ``kind`` and the byte offset.
    """
    raw = memoryview(Path(path).read_bytes())
    off = 0

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(raw):
            raise InvalidArgumentError(
                f"{path}: {kind} truncated, {len(raw)} bytes but byte {off + n} needed"
            )
        off += n
        return raw[off - n : off]

    def done() -> None:
        if off != len(raw):
            raise InvalidArgumentError(
                f"{path}: {len(raw) - off} trailing bytes after the {off}-byte {kind}"
            )

    return take, done


def load_artifact(path, from_json):
    """``from_json(read_json(path))``; any InvalidArgumentError it raises names the file."""
    obj = read_json(path)
    try:
        return from_json(obj)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc


# type hint -> (accepted JSON value types, description); bool only fits bool hints
_SCALAR_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    bool: ((bool,), "a boolean"),
    dict: ((dict,), "an object"),
}


def type_mismatch(value, hint, path: str) -> tuple[str, str] | None:
    """``(path, message)`` for the first part of ``value`` that does not fit the
    type hint (a scalar above, ``list[X]`` checked per element, or ``X | None``);
    None when it fits."""
    args = get_args(hint)
    if get_origin(hint) is list:
        if not isinstance(value, list):
            return path, f"must be a list, got {value!r}"
        for i, item in enumerate(value):
            mismatch = type_mismatch(item, args[0], f"{path}[{i}]")
            if mismatch is not None:
                return mismatch
        return None
    if type(None) in args:
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
    accepted, name = _SCALAR_TYPES[hint]
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        return path, f"must be {name}, got {value!r}"
    return None


_REQUIRED = object()


def typed(obj: dict, key: str, hint, default=_REQUIRED):
    """``obj[key]`` once it fits ``hint``; InvalidArgumentError naming the key
    when it does not, or when it is missing and there is no ``default``."""
    if key not in obj:
        if default is _REQUIRED:
            raise InvalidArgumentError(f"missing key {key!r}")
        return default
    mismatch = type_mismatch(obj[key], hint, key)
    if mismatch is not None:
        where, problem = mismatch
        raise InvalidArgumentError(f"{where}: {problem}")
    return obj[key]
