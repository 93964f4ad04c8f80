"""Exception types shared across the toolkit.

Every error raised on bad input derives from ToolkitError, so callers can
catch one base class.  cli.EXIT_CODES gives each class its exit code: a
usage or parse error (BadBounds, BadInput, CertificateFormatError and the
malformed-argument classes) exits 2, every other ToolkitError is a failed
precondition and exits 3.  InvariantViolation is reserved for internal
consistency failures (two independent computations of the same quantity
disagreeing, or a search that passes its bound); it indicates a bug, not
bad input, and exits 1.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors triggered by input."""


class InvariantViolation(AssertionError):
    """An internal cross-check failed; this is a bug, not a usage error."""


# -- field construction / element arithmetic --------------------------------

class NonPrimeCharacteristic(ToolkitError):
    pass


class DegreeZero(ToolkitError):
    pass


class SizeOverflow(ToolkitError):
    pass


class ZeroElement(ToolkitError):
    pass


class SingularMatrix(ToolkitError):
    pass


# -- integer arithmetic ------------------------------------------------------

class NotCoprime(ToolkitError):
    pass


class BadInput(ToolkitError):
    pass


class BadBounds(ToolkitError):
    pass


# -- characters and induction -------------------------------------------------

class BadCharacter(ToolkitError):
    pass


class BadType(ToolkitError):
    pass


class BadResidueChar(ToolkitError):
    pass


# -- group engine --------------------------------------------------------------

class CapExceeded(ToolkitError):
    pass


class SingularGenerator(ToolkitError):
    pass


class TooLarge(ToolkitError):
    pass


# -- orthogonal analysis --------------------------------------------------------

class DegenerateForm(ToolkitError):
    pass


class OddCharacteristicRequired(ToolkitError):
    pass


class NotOrthogonal(ToolkitError):
    pass


class BadParams(ToolkitError):
    pass


class NotSimilitude(ToolkitError):
    pass


class PromiseUnverifiable(ToolkitError):
    pass


# -- certificates -----------------------------------------------------------------

class CertificateFormatError(ToolkitError):
    pass
