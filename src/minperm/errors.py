class CapExceededError(RuntimeError):
    """Raised when a brute-force sweep, a determinant count or a printed
    Knuth chain would exceed its size cap."""


def _check_int(name: str, value) -> None:
    if type(value) is not int:  # exact type: no bool, no float
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_ints(name: str, values) -> tuple:
    """values as a tuple, each checked by _check_int's exact-int rule."""
    t = tuple(values)
    if not {int}.issuperset(map(type, t)):  # exact type: no bool, no float
        raise ValueError(f"{name} must be integers: {t}")
    return t


def _parse_int(token: str) -> int:
    """The integer an optional sign and ASCII digits spell, with ASCII
    blanks around them allowed; ValueError for anything else, including
    the other digits and the underscores that int() also reads."""
    text = token.strip(" \t\n\r\v\f")
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(text)
