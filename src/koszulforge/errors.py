"""Exceptions shared across the package."""


class KoszulForgeError(Exception):
    """Base class for package errors."""


class InputError(KoszulForgeError, ValueError):
    """Malformed user input: bad graph spec, width mismatch, invalid flag."""


class ResourceCapError(KoszulForgeError, RuntimeError):
    """An explicit resource budget was exceeded (S-pairs, markings, sizes).

    This is a hard failure, never a silent truncation; the CLI maps it to
    exit code 2.
    """


def check_cap(name: str, cap: int) -> int:
    """cap, unless it is negative: a budget of 0 is valid, a negative one is
    malformed input rather than a budget to raise."""
    if cap < 0:
        raise InputError(f"{name} must be nonnegative, got {cap}")
    return cap
