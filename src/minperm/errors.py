class CapExceededError(RuntimeError):
    """Raised when a brute-force sweep, a determinant count or a printed
    Knuth chain would exceed its size cap."""
