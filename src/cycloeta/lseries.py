"""Dirichlet coefficients of the decomposition
(a(n) - b(n))/8 = c(n), where c(n) are the Fourier coefficients of
eta(7*tau)^7/eta(tau).

a(n) is the coefficient of the product of the character series (character
mod 7) with the twice-shifted zeta function; b(n) is the coefficient of the
once-shifted Hecke series of the field of discriminant -7, a theta series.
Both are multiplicative; each has an independent brute-force oracle (divisor
sum for a, ideal enumeration for b), and b's closed prime-power forms and
truncated Euler product are two more routes to it.  All arithmetic is in
exact ints.
"""

import math
import sys
from array import array
from functools import lru_cache
from itertools import accumulate

from . import etaprod
from .arith import (
    CheckFailure,
    Record,
    divisors,
    epsilon,
    factorize,
    primes_up_to,
    sieve_multiplicative,
)
from .etaprod import expansion_values
from .quadfield import InconsistencyError, hecke_weight, ideals_of_norm, split_trace


class IdentityViolation(CheckFailure):
    """8 does not divide a(n) - b(n): the decomposition identity failed."""

    def __init__(self, n, a, b):
        super().__init__(f"a({n}) - b({n}) = {a - b} is not divisible by 8")
        self.n = n
        self.a = a
        self.b = b


_KINDS = ("A", "B", "C")


# a(n) <= sigma_2(n) < zeta(2) n^2 < 1.65 n^2, |b(n)| <= d(n) n is smaller
# still, and c = (a - b)/8, so every identity table fits in 64-bit words
# while 1.65 n_max^2 < 2^63, up to about 2.36e9
WORD_N_MAX = math.isqrt((2**63 - 1) * 100 // 165)


def _check_word_range(n_max):
    if n_max > WORD_N_MAX:
        raise ValueError(
            f"n-max {n_max} is past {WORD_N_MAX}, where the a, b and c "
            "tables outgrow 64-bit words"
        )


class CoeffTable(Record):
    """Coefficient table values[1..n_max]; values[0] is unused and 0.

    kind "A" and "B" tables are multiplicative with values[1] = 1;
    kind "C" (the eta-quotient coefficients) has values[1] = 0.  values
    are held as an array('q'), 8 bytes a value against about 40 in a list
    of ints; a value past 64 bits raises OverflowError.  An array('q') is
    kept, not copied: a copy raised positivity's 1e6 peak from 54 to 65 MB.
    """

    __slots__ = ("kind", "n_max", "values")

    def __init__(self, kind, n_max, values):
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if n_max < 1 or len(values) != n_max + 1 or values[0] != 0:
            raise ValueError("values must be [0] followed by entries for 1..n_max")
        want = 0 if kind == "C" else 1
        if values[1] != want:
            raise ValueError(f"kind {kind} requires values[1] == {want}")
        if not (isinstance(values, array) and values.typecode == "q"):
            values = array("q", values)
        super().__init__(kind, n_max, values)

    def __getitem__(self, n):
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n={n} outside 1..{self.n_max}")
        return self.values[n]


# ---------------------------------------------------------------------------
# a(n): character series times twice-shifted zeta

def a_prime_power(p, k):
    """a(p^k) = (p^(2k+2) - e^(k+1)) / (p^2 - e) with e = epsilon(p): the
    geometric series of the local factor 1/((1 - e X)(1 - p^2 X)) at every
    p, so e = 0 gives 7^(2k)."""
    e = epsilon(p)
    q, r = divmod(p ** (2 * (k + 1)) - e ** (k + 1), p * p - e)
    if r:
        raise InconsistencyError(f"a({p}^{k}) closed form is not integral")
    return q


def a_coeff(n):
    return math.prod(a_prime_power(p, k) for p, k in factorize(n))


def a_table(n_max):
    _check_word_range(n_max)
    return CoeffTable("A", n_max, sieve_multiplicative(a_prime_power, n_max))


def a_oracle(n):
    """Divisor-sum route: sum of epsilon(d) * (n/d)^2 over d | n."""
    return sum(epsilon(d) * (n // d) ** 2 for d in divisors(n))


def a_oracle_table(n_max):
    """Same divisor sum, assembled as a Dirichlet convolution over the
    whole range; never factorizes anything."""
    table = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        e = epsilon(d)
        if e:
            for m in range(1, n_max // d + 1):
                table[d * m] += e * m * m
    return CoeffTable("A", n_max, table)


# ---------------------------------------------------------------------------
# b(n): once-shifted Hecke series

_trace = lru_cache(maxsize=None)(split_trace)


def _split_power_sum(t, p, k):
    """s_k = sum_j pi^(2j) conj(pi)^(2(k-j)) via the integer recurrence
    s_k = t s_(k-1) - p^2 s_(k-2) from s_(-1) = 0, s_0 = 1, where
    t = pi^2 + conj(pi)^2 is the split trace of p."""
    s_prev, s = 0, 1
    for _ in range(k):
        s_prev, s = s, t * s - p * p * s_prev
    return s


def b_prime_power(p, k):
    """b(p^k) in closed form; a split p takes its trace from the _trace cache."""
    if p == 7:
        return (-7) ** k
    if epsilon(p) == 1:
        return _split_power_sum(_trace(p), p, k)
    return p ** k if k % 2 == 0 else 0


def b_coeff(n):
    return math.prod(b_prime_power(p, k) for p, k in factorize(n))


def b_table(n_max):
    """b as the theta series it is: Re(alpha^2) summed over one generator
    alpha = (u + v*sqrt(-7))/2 of each ideal, at its norm (u^2 + 7v^2)/4.

    One pass over u, v >= 0 of equal parity: a pair on an axis stands for
    one ideal and adds (u^2 - 7v^2)/4 = +-n, a pair with u, v > 0 for the
    two ideals of +-u and adds (u^2 - 7v^2)/2 = 2n - 7v^2.  Along one v,
    each step u -> u + 2 raises n by u + 1.  A value past 64 bits raises
    OverflowError rather than wrap."""
    _check_word_range(n_max)
    # zeroed from bytes, not as array("q", (0,)) * (n_max + 1): under glibc's
    # dynamic mmap threshold, positivity --n-max 1000000 peaked at 46.9 MB
    # this way against 54.5 MB, with the same data alive
    values = array("q", bytes(8 * (n_max + 1)))
    for t in range(1, math.isqrt(n_max) + 1):
        values[t * t] += t * t
    for s in range(1, math.isqrt(n_max // 7) + 1):
        values[7 * s * s] -= 7 * s * s
    m = 4 * n_max
    for v in range(1, math.isqrt(m // 7) + 1):
        c = 7 * v * v
        u, top = 2 - v % 2, math.isqrt(m - c)  # the least u > 0 of v's parity
        if u <= top:
            for n in accumulate(range(u + 1, top, 2), initial=(u * u + c) >> 2):
                values[n] += 2 * n - c
    return CoeffTable("B", n_max, values)


def b_oracle(n):
    """Ideal-enumeration route: sum of alpha^2 over one generator per ideal
    of norm n.  The imaginary parts must cancel exactly."""
    total_u = 0
    total_v = 0
    for alpha in ideals_of_norm(n):
        sq = hecke_weight(alpha)
        total_u += sq.u
        total_v += sq.v
    if total_v != 0:
        raise InconsistencyError(
            f"ideal weights of norm {n} leave imaginary residue {total_v}/2"
        )
    if total_u % 2:
        raise InconsistencyError(f"ideal weight sum of norm {n} is half-integral")
    return total_u // 2


def euler_truncate(n_max):
    """Kind-B table from the truncated Euler product of the shifted Hecke
    series over every prime <= n_max: local factor 1/(1 + 7X) at 7,
    1/(1 - q^2 X^2) at inert q, and the reciprocal of the quadratic split
    factor elsewhere.
    """
    table = [0] * (n_max + 1)
    table[1] = 1
    for p in primes_up_to(n_max):
        for pj, uj in _local_expansion(p, n_max):
            for m in range(1, n_max // pj + 1):
                if m % p and table[m]:
                    table[m * pj] += table[m] * uj
    return CoeffTable("B", n_max, table)


def _local_expansion(p, n_max):
    """(p^j, u_j) for j >= 1 while p^j <= n_max, where sum u_j X^j is the
    reciprocal of the local Euler factor 1 + c1 X + c2 X^2 at p:
    u_j = -c1 u_(j-1) - c2 u_(j-2) from u_(-1) = 0, u_0 = 1."""
    if p == 7:
        c1, c2 = 7, 0
    elif epsilon(p) == 1:
        c1, c2 = -split_trace(p), p * p
    else:
        c1, c2 = 0, -p * p
    out = []
    u_prev, u = 0, 1
    pj = p
    while pj <= n_max:
        u_prev, u = u, -c1 * u - c2 * u_prev
        out.append((pj, u))
        pj *= p
    return out


# ---------------------------------------------------------------------------
# c(n) = (a(n) - b(n))/8, two ways

def c_table(n_max, at=None):
    """Fourier coefficients of the quotient via the decomposition identity.

    c is written over a's own value array, so no third table is ever
    alive.  An n_max past WORD_N_MAX is refused (ValueError) before
    anything is allocated.  Given `at`, returns (table, a(n) for n in at,
    b(n) for n in at) instead, the values read before c overwrites a and
    held as array('q') words.  A slice `at` is one slice copy of each
    table; any other `at` is an iterable of indices, consumed only once
    both tables exist and gathered one index at a time."""
    av = a_table(n_max).values
    bv = b_table(n_max).values
    if isinstance(at, slice):
        a_at, b_at = av[at], bv[at]
    elif at is not None:
        at = array("q", at)
        a_at = array("q", map(av.__getitem__, at))
        b_at = array("q", map(bv.__getitem__, at))
    _eighths(av, bv)
    c = CoeffTable("C", n_max, av)
    return c if at is None else (c, a_at, b_at)


# Word passes: an array('q') chunk is read as one int of 64-bit fields, in
# the machine's byte order, and each pass is a few whole-int operations on it
_ORDER = sys.byteorder
# the byte of a 64-bit word that holds its sign bit
_HIGH_BYTE = 7 if _ORDER == "little" else 0
# words per chunk, so each field int is 32 KB
_CHUNK = 1 << 12


def _fields(word):
    """The int of _CHUNK 64-bit fields, each holding `word`."""
    return int.from_bytes(word.to_bytes(8, _ORDER) * _CHUNK, _ORDER)


_TOP = _fields(1 << 63)
_LOW_3 = _fields(7)
_LOW_63 = _fields((1 << 63) - 1)


def _eighths(av, bv):
    """av[n] = (av[n] - bv[n]) / 8 in place for two array('q') tables,
    raising IdentityViolation at the first n where 8 does not divide; the
    chunks before that n's are then already written.

    A chunk at a time, in its field ints: words agree mod 8 exactly when
    their two's complement low three bits do, so the check is one XOR
    and one mask.  The quotients are then (a >> 3) - (b >> 3).  Flipping
    each sign bit makes a field w + 2^63, and shifting the int right by 3
    leaves (w >> 3) + 2^60 in each field, plus the next field's low three
    bits at bits 61-63, which the check made equal in a and b, so they
    cancel in the difference.  Each field difference plus 2^63 then lies
    in (0, 2^64), so no field borrows from the next, and flipping the
    sign bit back leaves the quotient in two's complement.  A short last
    chunk leaves the full-width constants' extra fields 0.
    """
    a_bytes, b_bytes = memoryview(av).cast("B"), memoryview(bv).cast("B")
    size = len(a_bytes)
    for i in range(0, size, 8 * _CHUNK):
        j = i + 8 * _CHUNK
        x = int.from_bytes(a_bytes[i:j], _ORDER)
        y = int.from_bytes(b_bytes[i:j], _ORDER)
        if (x ^ y) & _LOW_3:
            n = next(n for n in range(i // 8, min(j, size) // 8) if (av[n] - bv[n]) % 8)
            raise IdentityViolation(n, av[n], bv[n])
        x, y = (x ^ _TOP) >> 3, (y ^ _TOP) >> 3
        a_bytes[i:j] = ((x - y + _TOP) ^ _TOP).to_bytes(min(j, size) - i, _ORDER)


def nonpositive_indices(words, start):
    """The n >= start with words[n] <= 0 in an array('q'), ascending.

    In a chunk's field int x, a field of s = (x & low63) + low63 has bit
    63 set exactly when the field of x has some low bit set, and s stays
    below 2^64, so no field carries into the next; (s | x) ^ x then
    clears bit 63 where x's sign bit is set.  Bit 63 is left set exactly
    in the fields whose word is > 0, so their high bytes are 0x80 or 0,
    and the zeros are found by bytes.find."""
    out = []
    view = memoryview(words).cast("B")
    for i in range(start, len(words), _CHUNK):
        x = int.from_bytes(view[8 * i:8 * (i + _CHUNK)], _ORDER)
        s = (x & _LOW_63) + _LOW_63
        positive = ((s | x) ^ x) & _TOP
        size = 8 * min(_CHUNK, len(words) - i)
        signs = memoryview(positive.to_bytes(size, _ORDER))[_HIGH_BYTE::8].tobytes()
        k = signs.find(0)
        while k >= 0:
            out.append(i + k)
            k = signs.find(0, k + 1)
    return out


def coeff_table_from_series(series, n_max):
    """Read an integer-exponent q-expansion into a kind C 1..n_max table;
    its window must reach n_max."""
    values = expansion_values(series, n_max)
    if series.order24 // 24 + series.trunc - 1 < n_max:
        raise ValueError("series window too short for requested table")
    return CoeffTable("C", n_max, values)


def c_table_from_expansion(n_max):
    """The independent pipeline: expand the eta quotient itself.  The
    expansion holds at least its leading term q^2, so that n_max = 1
    reads c(1) = 0.  An n_max past WORD_N_MAX is refused (ValueError)
    before anything is expanded."""
    _check_word_range(n_max)
    series = etaprod.expand(etaprod.cyclotomic_spec(7), n_max)
    return coeff_table_from_series(series, n_max)

