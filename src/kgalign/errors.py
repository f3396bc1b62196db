"""Exception types shared across the package, and the check of numeric settings."""

import math
import numbers


class ParseError(ValueError):
    """Malformed input file; message carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class IntegrityError(ValueError):
    """Input data violates a cross-file or uniqueness constraint."""


class SamplingError(RuntimeError):
    """Negative sampling could not satisfy its constraints."""


class TrainingError(RuntimeError):
    """Optimization produced non-finite values."""


class EvaluationError(ValueError):
    """Evaluation inputs are incomplete or inconsistent."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; message names the stage and the cause."""


def check_number(name: str, value, low=None, *, integer=False, above=False,
                 high=None) -> None:
    """Raise ValueError unless ``value`` is a valid numeric setting ``name``:
    with ``integer`` an int or numpy integer (no bool, no 3.0), else a finite
    real number (no bool); then >= ``low``, or > ``low`` with ``above``, and
    <= ``high``. A closed range [``low``, ``high``] is checked first and named
    whole, NaN included. No value is converted, so a valid one reaches
    config.json and the stage keys as it was given."""
    kind = type(value)  # int and float skip the slower ABC checks
    if not (kind is int or kind is float and not integer or kind is not bool
            and isinstance(value, numbers.Integral if integer else numbers.Real)):
        rule = "a non-negative integer" if low == 0 else "an integer"
        raise ValueError(f"{name} must be {rule if integer else 'a number'}, got {value!r}")
    if high is not None and not above and not low <= value <= high:  # NaN fails it too
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    if not (integer or kind is int or math.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value}")
    if low is not None and (value <= low if above else value < low):
        raise ValueError(f"{name} must be {'>' if above else '>='} {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
