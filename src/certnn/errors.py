"""The base of every certnn exception, and the exceptions several modules raise."""


class CertnnError(Exception):
    """Base class of every certnn exception."""


class DimensionMismatch(CertnnError):
    """Operands have incompatible dimensions."""


class NoConvergence(CertnnError):
    """A numerical routine did not reach its answer (iteration cap or failed solve)."""


class EmptyInput(CertnnError):
    """The operation requires a nonempty set of constraints."""
