"""Exception hierarchy of the engine.

Every error carries a stable ``code`` string; the CLI prints it and maps any
EngineError to exit status 1.
"""


class EngineError(Exception):
    code = "engine-error"


class InvalidField(EngineError):
    code = "invalid-field"


class FieldMismatch(EngineError):
    code = "field-mismatch"


class DivisionByZero(EngineError):
    code = "division-by-zero"


class UnknownVariable(EngineError):
    code = "unknown-variable"


class ParseError(EngineError):
    """Syntax error in an expression string, annotated with the 0-based offset."""

    code = "syntax-error"

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PowerTooLarge(ParseError):
    """A ``^`` in an expression whose result would exceed a size limit."""

    code = "power-too-large"


class UnknownGenerator(EngineError):
    code = "unknown-generator"


class ShapeMismatch(EngineError):
    code = "shape-mismatch"


class InvalidSize(EngineError):
    code = "invalid-size"


class CharacteristicTooSmall(EngineError):
    code = "characteristic-too-small"


class NotCommuting(EngineError):
    code = "not-commuting"


class RepeatedEigenvalue(EngineError):
    code = "repeated-eigenvalue"


class NonzeroDiagonalRHS(EngineError):
    code = "nonzero-diagonal-rhs"


class NotDiagonalLeadingTerm(EngineError):
    code = "not-diagonal-leading-term"


class ScalarInput(EngineError):
    code = "scalar-input"


class BadTensorFile(EngineError):
    code = "bad-tensor-file"


class UnsupportedDenominator(EngineError):
    code = "unsupported-denominator"


class BadReport(EngineError):
    code = "bad-report"
