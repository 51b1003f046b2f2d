"""Exception types shared across the package.

Every domain error carries a stable machine-readable ``code`` and a
``details`` dict that serializes cleanly to JSON.  The CLI maps any
DomainError to exit code 1 and prints ``to_json()``.
"""


class DomainError(Exception):
    code = "DomainError"

    def __init__(self, message="", **details):
        super().__init__(message or self.code)
        self.details = details

    def to_json(self):
        return {"error": self.code, "message": str(self), "details": self.details}


class InvalidFamilyError(DomainError):
    code = "InvalidFamily"


class ZeroDirectionError(DomainError):
    code = "ZeroDirection"


class NotSquareError(DomainError):
    code = "NotSquare"


class NegativeEntryError(DomainError):
    code = "NegativeEntry"


class ShapeMismatchError(DomainError):
    code = "ShapeMismatch"


class ShapeNotDominatedError(DomainError):
    code = "ShapeNotDominated"


class OriginMismatchError(DomainError):
    code = "OriginMismatch"


class NoFillingError(DomainError):
    code = "NoFilling"


class BudgetExceededError(DomainError):
    code = "BudgetExceeded"


class ScaleTooFineError(DomainError):
    code = "ScaleTooFine"


class WindowTooWideError(DomainError):
    code = "WindowTooWide"


class RankOneError(DomainError):
    code = "RankOne"


class ShapeTooSmallError(DomainError):
    code = "ShapeTooSmall"


class ParseError(DomainError):
    code = "ParseError"


class OutputError(DomainError):
    code = "OutputError"


class RadiusUnderflowError(DomainError):
    """The normalized power in the spectral-radius loop underflowed to a
    nilpotent float matrix although the input is not nilpotent."""
    code = "RadiusUnderflow"


class NonFiniteResultError(DomainError):
    code = "NonFiniteResult"


class TransferChainUnderflowError(DomainError, ArithmeticError):
    """Every weight of a live transfer chain underflowed.  Also an
    ArithmeticError, as OverflowError is."""
    code = "TransferChainUnderflow"


class UnknownLetterError(DomainError):
    code = "UnknownLetter"
