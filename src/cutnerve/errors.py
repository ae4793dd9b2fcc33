"""The package's two exception types, one per way a caller reacts to a
refusal, and the input checks of the JSON readers.

- ``InvalidParameterError``: the input is bad.  A parameter out of range or
  past a scenario's guard, a face or vertex the complex does not have, an
  operation undefined on the void complex, a graph with no independent
  k-set to cover, or malformed JSON.
- ``ResourceLimitError``: the input is fine but its enumeration would pass
  the face budget; ``what`` names the count and ``budget`` its limit.

The command line maps both to one ``error:`` line and exit code 2."""

import json


class InvalidParameterError(ValueError):
    """An argument, parameter, face or file the operation cannot take."""


class ResourceLimitError(RuntimeError):
    """A configured enumeration budget was exceeded."""

    def __init__(self, what: str, budget: int):
        super().__init__(f"{what} exceeded the configured budget of {budget}")
        self.what = what
        self.budget = budget


def json_array(value, what: str, length: int | None = None) -> list:
    """``value`` when it is a JSON array, of ``length`` items if given: a
    string or an object iterates too, as characters or keys, so neither
    passes."""
    if type(value) is not list:
        raise InvalidParameterError(f"{what} is {json.dumps(value)}, not a JSON array")
    if length is not None and len(value) != length:
        raise InvalidParameterError(f"{what} {json.dumps(value)} has {len(value)} items, not {length}")
    return value


def json_object(value, what: str, keys) -> dict:
    """``value`` when it is a JSON object that holds every key in ``keys``."""
    if type(value) is not dict:
        raise InvalidParameterError(f"{what} must be a JSON object")
    for key in keys:
        if key not in value:
            raise InvalidParameterError(f"{what} has no {json.dumps(key)}")
    return value


def check_json_ground(labels, faces):
    """The labels read from JSON must be an array of strings, and the faces
    an array of arrays of distinct int vertex indices: JSON ``true`` is not
    vertex 1, and [0, 0, 1] is no face."""
    for lab in json_array(labels, '"vertices"'):
        if not isinstance(lab, str):
            raise InvalidParameterError(f"vertex label {json.dumps(lab)} is not a string")
    for face in json_array(faces, '"facets"'):
        for v in json_array(face, "a face"):
            if type(v) is not int:
                raise InvalidParameterError(f"face {json.dumps(face)} has {json.dumps(v)} for a vertex index")
        if len(set(face)) != len(face):
            raise InvalidParameterError(f"face {json.dumps(face)} repeats a vertex index")
