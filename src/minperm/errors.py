"""Errors and argument checks shared by every module; it imports nothing
from the package, so each command can load it without the rest.  Each
argument rule lives here once: _check_int holds the bounds messages of
every single-int argument, _check_type the refusal of an argument that is
not of its value type, _shown how a message shows a refused value, and
_Validated the value types' contract."""

from typing import Callable


def _shown(value) -> str:
    """repr(value) for an error message, or, where the value nests too deeply
    for repr, its type's name, so that building the message cannot fail."""
    try:
        return repr(value)
    except RecursionError:
        return f"a {type(value).__name__} nested too deeply to show"


class CapExceededError(RuntimeError):
    """Raised when a completion-count table, a determinant count, a printed
    output or a count's decimal text would exceed its cap."""


def _check_int(name: str, value, lo: int | None = None, hi: int | None = None) -> None:
    """ValueError unless value is an int, not a bool or a float, in lo..hi;
    either bound may be None, and hi is given only with lo.  An empty
    range, hi < lo, refuses every value."""
    if type(value) is not int:  # exact type: no bool, no float
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    if hi is not None:
        if hi < lo:
            raise ValueError(f"no {name} is valid here ({lo}..{hi} is empty), got {value}")
        if not lo <= value <= hi:
            raise ValueError(f"{name} must be in {lo}..{hi}, got {value}")
    elif lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")


def _check_type(name: str, value, cls: type) -> None:
    """ValueError unless value is an instance of cls, one of the value
    types, so that a function handed something else refuses at the call
    instead of failing on an attribute or an index later."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {_shown(value)}")


class _Validated:
    """Listed first among the bases of a NamedTuple subclass whose __new__
    is its one validating constructor: _make, and so _replace, build
    through it, and so do copy, deepcopy and unpickling at every protocol,
    where below protocol 2 copyreg would call tuple.__new__ instead."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def __reduce__(self):
        return type(self), tuple(self)


def _as_tuple(name: str, values) -> tuple:
    """values read once into a tuple; ValueError if they are not iterable."""
    try:
        it = iter(values)
    except TypeError:
        raise ValueError(f"expected an iterable for {name}, got {_shown(values)}") from None
    return tuple(it)


def _check_ints(name: str, values) -> tuple:
    """values as a tuple, each checked by _check_int's exact-int rule."""
    t = _as_tuple(name, values)
    if not {int}.issuperset(map(type, t)):  # exact type: no bool, no float
        raise ValueError(f"{name} must be integers: {_shown(t)}")
    return t


def _exact_div(num: int, den: int, what: Callable[[], str]) -> int:
    """num / den as an int, raising ArithmeticError unless the division is
    exact and the quotient nonnegative; what() names the quotient, and is
    called only on failure."""
    q, rem = divmod(num, den)
    if rem or q < 0:
        raise ArithmeticError(f"{what()} evaluated to {num}/{den}, expected a nonnegative integer")
    return q


def _parse_int(token: str) -> int:
    """The integer an optional sign and ASCII digits spell, with ASCII
    blanks around them allowed; ValueError for anything else, including
    the other digits and the underscores that int() also reads."""
    text = token.strip(" \t\n\r\v\f")
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(text)
