class CapExceededError(RuntimeError):
    """Raised when a brute-force sweep or a determinant count would exceed
    its size cap."""
