"""Exception types shared across the package."""


class EllspecError(Exception):
    """Base class for all ellspec-specific errors."""


class SurfaceMismatchError(EllspecError):
    """Two divisor classes from different surfaces were combined."""


class SpanError(EllspecError):
    """A class lies outside the span required by an operation."""


class UnsupportedProductError(EllspecError):
    """A cohomology product fell outside the implemented fragment."""


class PolarizationError(EllspecError):
    """The supplied polarization could not be certified ample."""


class SchemaError(EllspecError):
    """A certificate file is malformed.

    ``path`` locates the bad value in the document as object keys and array
    indices; the loaders prepend their own key as the error passes up.
    """

    def __init__(self, reason: str, path: tuple[str | int, ...] = ()) -> None:
        super().__init__(reason)
        self.reason = reason
        self.path = path

    def __str__(self) -> str:
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in self.path)
        return f"{where.lstrip('.')}: {self.reason}" if where else self.reason


class TamperError(EllspecError):
    """Stored certificate data disagrees with recomputation."""
