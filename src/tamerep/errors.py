"""Exception types shared across the toolkit.

Every error raised on bad input derives from ToolkitError, so callers can
catch one base class at the CLI boundary.  InvariantViolation is reserved
for internal consistency failures (two independent computations of the same
quantity disagreeing); it indicates a bug, not bad input.
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
