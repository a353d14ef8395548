"""Exception types shared across the package.

Everything raised on purpose derives from LeonardError so callers can catch
one base class at the CLI boundary.
"""

from __future__ import annotations


class LeonardError(Exception):
    pass


class NonPrimeModulus(LeonardError):
    """The p of GF(p) or GF(p^k) is not prime."""


class ReducibleModulus(LeonardError):
    """The extension modulus has a factor of degree >= 1 over GF(p)."""


class ZeroToNegativePower(LeonardError):
    """0**n requested with n < 0."""


class LengthMismatch(LeonardError):
    """Component lengths do not match the stated diameter."""


class BudgetExceeded(LeonardError):
    """Enumeration hit its kernel-call budget before finishing."""


class SingularMatrix(LeonardError):
    """Matrix inversion requested for a singular matrix."""


class RepeatedEigenvalue(LeonardError):
    """Primitive idempotents need pairwise distinct eigenvalues."""


class BaseNotApplicable(LeonardError):
    """S-matrix requested for a base where it is undefined (q = 1 or q = -1)
    or for a scalar that is not a base of the array."""


class IdentityViolated(LeonardError):
    """An exact identity that holds for every validated array failed.

    Reaching this means the input was not validated or there is a bug; it is
    never an expected runtime outcome.
    """


class PreconditionViolated(LeonardError):
    """Family parameters violate one of the family's stated inequalities.

    The message names the violated inequality.
    """


class CharacteristicMismatch(LeonardError):
    """Family requested over a field whose characteristic it forbids."""


class DenominatorPoleBeforeTermination(LeonardError):
    """A denominator Pochhammer factor vanished before the terminating
    numerator factor did."""


class SeriesDoesNotTerminate(LeonardError):
    """No terminating numerator factor appeared within the term budget."""


class NeedsFieldExtension(LeonardError):
    """The requested scalar lives in a quadratic extension that this build
    does not construct (over Q, or beyond the supported degree).

    Carries the monic quadratic x^2 + b*x + c it would have to split.
    """

    def __init__(self, message: str, b=None, c=None):
        super().__init__(message)
        self.b = b
        self.c = c


class NoCaseMatched(LeonardError):
    """Classification fell through every case.  Impossible for validated
    arrays with d >= 1; treated as a test failure, never expected."""
