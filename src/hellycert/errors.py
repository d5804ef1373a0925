"""Exception types shared across the package.

Each class states the command line's exit code for it once, as
``exit_code``: 2, a failed verdict (claims that name no selection, a
solver answer that fails its check, a stage or generator that cannot meet
its post-condition), unless the class overrides it with 3, invalid or
degenerate input, or 4, a request past a brute-force cap. ``cli.main``
exits with it and reads no other table.
"""

from __future__ import annotations


class HellycertError(Exception):
    """Base class for all package-specific failures.

    ``stage`` names the pipeline stage the error left, when it left one;
    the message then starts with it.
    """

    stage: str | None = None
    exit_code = 2

    def __str__(self):
        msg = super().__str__()
        return f"{self.stage}: {msg}" if self.stage else msg


class InvalidMatrix(HellycertError):
    """Matrix input is malformed (not square, not finite, wrong shape)."""

    exit_code = 3


class SolverStall(HellycertError):
    """A solver hit its iteration limit, or its answer failed its check."""


class NotInterior(HellycertError):
    """A point that must lie strictly inside a body does not."""

    exit_code = 3


class DegenerateInterior(HellycertError):
    """The intersection of the family has (numerically) no interior."""

    exit_code = 3


class UnboundedBody(HellycertError):
    """An operation that needs a bounded set met an unbounded one."""

    exit_code = 3


class DegenerateSpan(HellycertError):
    """Input points do not span the ambient space."""

    exit_code = 3


class JohnExtractionFailed(HellycertError):
    """Contact-point extraction left residuals above tolerance."""


class BarrierStuck(HellycertError):
    """No admissible vector in a barrier step of the sparsifier."""


class ShiftCertificateFailed(HellycertError):
    """Every retry of the shifted decomposition failed its certificate."""


class CaratheodoryFailed(HellycertError):
    """Could not express the target as a small convex combination."""


class OracleTooLarge(HellycertError):
    """A brute-force request exceeds its hard caps: the vertex oracle's, or
    those of the sharpness generator's covering test."""

    exit_code = 4


class SharpnessGenFailed(HellycertError):
    """Sharpness instance generation exhausted its resampling budget."""


class InvalidInstance(HellycertError):
    """Instance file fails schema or consistency validation."""

    exit_code = 3


class CertificateRejected(HellycertError):
    """A certificate's claims name no selection of the instance."""
