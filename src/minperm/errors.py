class CapExceededError(RuntimeError):
    """Raised when a brute-force sweep, a determinant count or a printed
    Knuth chain would exceed its size cap."""


def _check_int(name: str, value) -> None:
    if type(value) is not int:  # exact type: no bool, no float
        raise ValueError(f"{name} must be an integer, got {value!r}")
