"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Matrix or vector dimensions do not match the operation."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class CircuitError(ValueError):
    """Invalid gate, slice, or circuit structure."""


class CircuitParseError(CircuitError):
    """Syntax or validation error in the circuit text format."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
