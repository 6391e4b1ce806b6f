"""Exception hierarchy shared across the package."""


class HyperquditError(ValueError):
    """Base class for all domain errors raised by this package."""


# -- ring construction and arithmetic ---------------------------------------

class NonMonic(HyperquditError):
    """Modulus polynomial is not monic of the requested degree."""


class ReducibleModulus(HyperquditError):
    """Mod-p reduction of the modulus factors over F_p."""


class BadCoefficient(HyperquditError):
    """Ring parameters out of range (bad coefficient, non-prime p, ...)."""


class RingMismatch(HyperquditError):
    """Operands belong to different rings."""


class NoPrimitiveElement(HyperquditError):
    """The ring's kernel has no unit of order p^d - 1; a valid Galois ring always has one."""


class UnknownRing(HyperquditError):
    """A ring name that is not in the catalog."""


# -- cyclicity ---------------------------------------------------------------

class OutOfRange(HyperquditError):
    """Exponent component outside its cyclic monoid."""


class ExponentOutOfRange(HyperquditError):
    """Integer polynomial exponent at or above delta."""


# -- hypergraphs and morphisms ----------------------------------------------

class SizeMismatch(HyperquditError):
    """Ordinal morphism size does not match the hypergraph grade."""


class DomainMismatch(HyperquditError):
    """Exponent function not defined on the expected vertex set."""


class BadDocument(HyperquditError):
    """A JSON document lacks a field or has one of the wrong type."""


# -- states -------------------------------------------------------------------

class GradeMismatch(HyperquditError):
    """Configurations or states of different grade combined."""


class BasisMismatch(HyperquditError):
    """States in different bases combined."""


class WrongBasis(HyperquditError):
    """Operation requires the other basis tag."""


class TooLarge(HyperquditError):
    """An exact table or a dense cross-check would exceed its size cap."""


class BadSetting(HyperquditError):
    """An environment setting has an invalid value."""


# -- field-only polynomial machinery ------------------------------------------

class NotField(HyperquditError):
    """Operation defined only for fields (r = 1)."""


class NotPrimeField(HyperquditError):
    """Operation defined only for prime fields (r = d = 1)."""


class NotBinaryField(HyperquditError):
    """Operation defined only over F_2."""


class Singular(HyperquditError):
    """A matrix that must be invertible failed elimination (arithmetic bug)."""


class DegreeTooHigh(HyperquditError):
    """Polynomial degree exceeds q - 1 where a reduced representative is required."""


class NotEffective(HyperquditError):
    """Operation requires an effective calibrated hypergraph."""


class BadMark(HyperquditError):
    """Marked hyperedge with invalid target or too few vertices."""
