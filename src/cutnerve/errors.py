"""Exception types shared across the package, and the input check of the
JSON readers."""

import json


class InvalidParameterError(ValueError):
    """A constructor or operation received an out-of-range argument."""


class InvalidFaceError(ValueError):
    """A face refers to unknown vertices or is not a face of the complex."""


class InvalidMatchingError(ValueError):
    """A matching violates the partial-matching or acyclicity requirements."""


class VoidComplexError(ValueError):
    """The operation is undefined on the void complex."""


class EmptyCoverError(ValueError):
    """No cover can be built because the generating family is empty."""


class ResourceLimitError(RuntimeError):
    """A configured enumeration budget was exceeded."""

    def __init__(self, what: str, budget: int):
        super().__init__(f"{what} exceeded the configured budget of {budget}")
        self.what = what
        self.budget = budget


class GuardError(ValueError):
    """A scenario parameter lies outside its desk-scale guard."""


def check_json_ground(labels, groups, what: str):
    """Labels read from JSON must be strings, and each ``what`` (face or
    edge) must list int vertex indices: JSON ``true`` is not vertex 1."""
    for lab in labels:
        if not isinstance(lab, str):
            raise InvalidParameterError(f"vertex label {json.dumps(lab)} is not a string")
    for group in groups:
        for v in group:
            if type(v) is not int:
                raise InvalidParameterError(
                    f"{what} {json.dumps(group)} has {json.dumps(v)} for a vertex index")
