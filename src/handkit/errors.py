"""The one error family of handkit; each member carries its CLI exit code.

It derives from ``ValueError``.  The older names are aliases: ``CliError``
and ``ContainerError`` of ``InputError``; ``ModelError`` and
``profiler.ShapeError`` of ``ShapeError``; ``FitDivergedError``, both
``DegenerateSkeletonError``, ``DegenerateBoneError``,
``DegenerateConfigurationError`` and ``BehindCameraError`` of
``NumericError``.
"""

EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_NUMERIC = 4


class HandkitError(ValueError):
    exit_code = EXIT_PARSE


class InputError(HandkitError):
    """A malformed file or argument."""


class ShapeError(HandkitError):
    """A shape or consistency mismatch."""

    exit_code = EXIT_SHAPE


class NumericError(HandkitError):
    """Degenerate geometry or numerical divergence."""

    exit_code = EXIT_NUMERIC
