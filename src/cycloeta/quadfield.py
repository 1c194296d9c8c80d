"""Integers of the imaginary quadratic field of discriminant -7.

Elements are (u + v*sqrt(-7))/2 with u = v (mod 2), stored as the pair
(u, v).  The field has class number one and units +-1, so ideals are
principal and each nonzero ideal has exactly two generators, alpha and
-alpha.  The rational prime 2 splits; its chosen prime factor is
PI_TWO = (1 + sqrt(-7))/2.
"""

import math

from .arith import CheckFailure, Record, epsilon, is_prime


class SplittingError(CheckFailure):
    """Splitting data requested for a prime that does not split."""


class InconsistencyError(CheckFailure):
    """An internal invariant of the splitting data failed."""


class QuadInt(Record):
    __slots__ = ("u", "v")

    def __init__(self, u, v):
        if (u - v) % 2 != 0:
            raise ValueError(f"({u} + {v}*sqrt(-7))/2 is not integral")
        super().__init__(u, v)

    def __add__(self, other):
        return QuadInt(self.u + other.u, self.v + other.v)

    def __mul__(self, other):
        # ((u1 + v1 r)/2)((u2 + v2 r)/2) with r^2 = -7; both halves are even
        # because u = v (mod 2) on each factor.
        u = (self.u * other.u - 7 * self.v * other.v) // 2
        v = (self.u * other.v + other.u * self.v) // 2
        return QuadInt(u, v)

    def conjugate(self):
        return QuadInt(self.u, -self.v)

    def norm(self):
        return (self.u * self.u + 7 * self.v * self.v) // 4

    def rational_part(self):
        """The element as a plain integer, if it is one."""
        if self.v != 0 or self.u % 2 != 0:
            raise ValueError(f"{self} is not a rational integer")
        return self.u // 2

    def __str__(self):
        return f"({self.u} + {self.v}*sqrt(-7))/2"


PI_TWO = QuadInt(1, 1)


def split_rep(p):
    """The pair x, y > 0 with p = x^2 + 7 y^2, for an odd split prime p.

    Cornacchia's algorithm (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 1.5.2): a square root r of -7 mod p, then Euclid
    on (p, r) down to the first remainder x < sqrt(p); the class number is
    one, so every split p is reached.  Raises ValueError when p is not a
    prime, and SplittingError when no representation exists (p inert or
    ramified, or p = 2, whose prime factor PI_TWO is a half-integer pair
    and has no such representation).
    """
    if not is_prime(p):
        raise ValueError(f"split_rep needs a prime, got {p}")
    if p == 2 or p == 7:
        raise SplittingError(f"p={p} has no x^2 + 7y^2 representation")
    # (-7/p) = (p/7) for odd p != 7 by quadratic reciprocity
    if epsilon(p) != 1:
        raise SplittingError(f"p={p} is not x^2 + 7y^2; it does not split")
    a, b = p, _sqrt_mod_prime(p - 7, p)
    while b * b > p:
        a, b = b, a % b
    return b, math.isqrt((p - b * b) // 7)


def _sqrt_mod_prime(a, p):
    """A square root of the quadratic residue a modulo the odd prime p
    (Tonelli-Shanks)."""
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q * 2^s, q odd
    q = (p - 1) >> s
    x = pow(a, (q + 1) // 2, p)
    if s == 1:
        return x
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def pi_element(p):
    """A prime of the ring above the split rational prime p."""
    if p == 2:
        return PI_TWO
    x, y = split_rep(p)
    return QuadInt(2 * x, 2 * y)


def hecke_weight(alpha):
    """alpha**2: the character-times-norm weight of the ideal (alpha).

    Unit-independent since (-alpha)**2 = alpha**2, so this is well defined
    on ideals.
    """
    return alpha * alpha


def ideals_of_norm(n):
    """One generator per ideal of norm n, canonically chosen and sorted.

    Solutions of u^2 + 7 v^2 = 4n with u = v (mod 2), one per unit orbit
    {alpha, -alpha}: the representative has v > 0, or v = 0 and u > 0.
    Sorted by (v, u).
    """
    if n < 1:
        raise ValueError("norm must be >= 1")
    out = []
    m = 4 * n
    for v in range(0, math.isqrt(m // 7) + 1):
        rem = m - 7 * v * v
        u = math.isqrt(rem)
        if u * u != rem or (u - v) % 2 != 0:
            continue
        if v == 0:
            if u > 0:
                out.append(QuadInt(u, 0))
        elif u == 0:
            out.append(QuadInt(0, v))
        else:
            out.append(QuadInt(-u, v))
            out.append(QuadInt(u, v))
    out.sort(key=lambda a: (a.v, a.u))
    return out


def split_trace(p):
    """pi_p^2 + conj(pi_p)^2 as a rational integer: -3 at p = 2, else
    2*(x^2 - 7*y^2), read off p = x^2 + 7 y^2 without forming ring
    elements."""
    if p == 2:
        return -3
    x, y = split_rep(p)
    return 2 * (x * x - 7 * y * y)
