"""Exceptions shared across the kernel."""


class KernelError(Exception):
    """Base class for every error the kernel reports."""


class ContextMismatchError(KernelError):
    """Two values from incompatible field contexts were combined."""


class InvalidStarStructureError(KernelError):
    """A map used as a star is no star: it lies outside the paper's family
    and fails a check of the star verifier (``star.require_star``)."""


class InvalidAutomorphismError(KernelError):
    """A candidate automorphism is no psi_L, L invertible and diagonal unless n = 2."""


class ExprSyntaxError(KernelError):
    """Expression text failed to parse; carries the source location."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column
