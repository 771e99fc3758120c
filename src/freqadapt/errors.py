"""Exception types shared across the toolkit.

All of them derive from ValueError so generic callers can treat any of
them as an invalid-input condition. The CLI maps error classes to exit
codes in one table, :data:`freqadapt.cli.EXIT_CODES`; several classes
may share a code.
"""


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class SymmetryViolationError(ValueError):
    """An inverse transform produced a non-negligible imaginary part.

    Raised when a spectrum fed to the inverse transform is not
    conjugate-symmetric, i.e. it does not correspond to a real signal.
    """


class DegenerateSpectrumError(ValueError):
    """Amplitude normalization hit a group with (near-)zero spread."""


class TensorFileError(ValueError):
    """A tensor file is malformed or truncated."""


class NonFiniteResultError(ValueError):
    """A computed array holds a NaN or an infinity: the result cannot be represented in float64.

    Raised when the library adopts an array it has computed
    (:meth:`freqadapt.tensor._Checked._adopt`), e.g. a transform of a
    finite but huge map that overflows.
    """
