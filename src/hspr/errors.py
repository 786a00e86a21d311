"""Exception types shared across the package, and the file boundary.

The CLI maps these onto exit codes: schema/input problems exit 3,
internal invariant failures exit 4.  Every hspr file is read through
read_json or read_json_lines and written through write_json, so a missing,
unreadable or non-JSON file, a wrong top-level type and a wrong
schema_version all fail here as SchemaError naming the file; loaders
convert fields inside `malformed`.
"""

import contextlib
import json


class SchemaError(ValueError):
    """A file or config does not match its expected schema."""


class InvariantViolation(ValueError):
    """Validated data breaks one of its declared invariants.

    The message names the first violated invariant.
    """


class InternalError(RuntimeError):
    """A condition the engine itself guarantees was broken (a bug)."""


@contextlib.contextmanager
def _open(path, kind: str):
    """The file at path as UTF-8 text; failures to open or decode name the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise SchemaError(f"{kind} file {path} cannot be read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{kind} file {path} is not UTF-8 text: {exc}") from exc


def _parse(text: str, label: str, version: int | None, top: type):
    try:
        payload = json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise SchemaError(f"{label} is not valid JSON: {exc}") from exc
    if not isinstance(payload, top):
        raise SchemaError(f"{label} must contain a JSON {'array' if top is list else 'object'}")
    if version is not None:
        found = payload.get("schema_version")
        if found != version or type(found) is not int:  # JSON true == 1 in Python
            raise SchemaError(f"{label} has schema_version {found!r}, expected {version}")
    return payload


def read_json(path, kind: str, version: int | None = None, top: type = dict):
    """The JSON document in a file, checked to be a `top` (dict or list) and,
    when a version is given, to carry that schema_version."""
    with _open(path, kind) as fh:
        text = fh.read()
    return _parse(text, f"{kind} file {path}", version, top)


def read_json_lines(path, kind: str, version: int | None = None):
    """Yield (label, record) for each nonblank line of a JSON-lines file.

    Each record must be a JSON object with the given schema_version; the
    label names the record as "<kind> record <path>:<line>".
    """
    with _open(path, kind) as fh:
        for line_no, line in enumerate(fh, 1):
            if line.strip():
                label = f"{kind} record {path}:{line_no}"
                yield label, _parse(line, label, version, dict)


class malformed:
    """Context manager: a field that fails to convert raises SchemaError("malformed <label>: ...").

    A class, not a generator, because loaders enter it once per record.
    """

    def __init__(self, label: str):
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, _type, exc, _traceback):
        if isinstance(exc, (AttributeError, KeyError, OverflowError, TypeError, ValueError)):
            raise SchemaError(f"malformed {self.label}: {exc}") from exc


def write_json(path, payload, indent: int | None = None, lines: bool = False) -> None:
    """Write payload as JSON with sorted keys and a final newline; with lines,
    payload is an iterable of documents, each written on its own line."""
    with open(path, "w", encoding="utf-8") as fh:
        for document in payload if lines else (payload,):
            fh.write(json.dumps(document, sort_keys=True, indent=indent))
            fh.write("\n")
