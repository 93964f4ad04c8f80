"""Depth-zero characters of the unramified degree-n extension of Q_p.

A TameCharacter is the finite data (n, p, t, sign): a character of order t on
the residue units F_{p^n}^x, inflated trivially through the 1-units, extended
to the full multiplicative group by sending the uniformizer to sign.  The
self-duality test, like the admissibility test arith.admissible_arith,
reduces to a divisibility statement, on p^(n/2) + 1 (on p^d - 1 there), read
off pow(p, e, t) so that no power of p is built in full; the exhaustive
field-level cross-check of both reductions lives in the test suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd

from .arith import has_mult_order, is_prime
from .errors import BadCharacter


class CharType(enum.Enum):
    O_TYPE = "O"
    S_TYPE = "S"
    NEITHER = "neither"


@dataclass(frozen=True)
class TameCharacter:
    """Character data: dimension n, residue prime p, order t, uniformizer sign.

    exponent_index selects which primitive order-t character is meant (they
    are Galois conjugates of one another); it defaults to 1 and only permutes
    the induced basis.
    """

    n: int
    p: int
    t: int
    sign: int
    exponent_index: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise BadCharacter(f"degree must be positive, got {self.n}")
        if not is_prime(self.p):
            raise BadCharacter(f"p must be prime, got {self.p}")
        if gcd(self.n, self.p) != 1:
            raise BadCharacter(f"tameness requires p coprime to n, got {self.p}, {self.n}")
        if self.t < 1:
            raise BadCharacter(f"order must be positive, got {self.t}")
        if (pow(self.p, self.n, self.t) - 1) % self.t:
            raise BadCharacter(
                f"no character of order {self.t} on F_{self.p}^{self.n} units"
            )
        if self.sign not in (1, -1):
            raise BadCharacter(f"sign must be +1 or -1, got {self.sign}")
        idx = self.exponent_index % self.t
        if gcd(idx, self.t) != 1 and self.t > 1:
            raise BadCharacter(
                f"exponent index {self.exponent_index} is not a unit mod {self.t}"
            )
        object.__setattr__(self, "exponent_index", idx)


def is_self_dual(chi: TameCharacter) -> bool:
    """True when the character is trivial on the norms from the index-2 subfield.

    For odd n there is no index-2 subfield and the answer is False (the p = 2
    order-two branch is outside this toolkit: p is odd here).
    """
    if chi.p == 2:
        raise BadCharacter("p = 2 is outside the supported (odd p) setting")
    if chi.n % 2 != 0:
        return False
    return (pow(chi.p, chi.n // 2, chi.t) + 1) % chi.t == 0


def classify_type(chi: TameCharacter) -> CharType:
    """O-type / S-type detection: prime order t = 1 mod n with ord_t(p) = n,
    admissible and self-dual; the sign picks orthogonal vs symplectic."""
    if failed_type_condition(chi) is not None:
        return CharType.NEITHER
    return CharType.O_TYPE if chi.sign == 1 else CharType.S_TYPE


def failed_type_condition(chi: TameCharacter) -> str | None:
    """Name of the first O/S-type condition that fails, for error reporting;
    ord_t(p) = n leaves no p^(n/q) at 1 mod t, so chi is then admissible."""
    if not is_prime(chi.t):
        return "t is not prime"
    if chi.t % chi.n != 1:
        return "t is not congruent to 1 mod n"
    if not has_mult_order(chi.p, chi.n, chi.t):
        return "order of p mod t is not n"
    if not is_self_dual(chi):
        return "character is not self-dual"
    return None
