class CapExceededError(RuntimeError):
    """Raised when a brute-force sweep or a determinant sum would exceed
    its size cap."""
