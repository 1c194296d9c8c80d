"""Elementary number theory helpers: primes, factorization, the quadratic
character mod 7, and a slice-filled sieve for multiplicative functions;
also the package's check-failure base and immutable record base.

Everything here works on plain Python ints, so all arithmetic is exact and
never overflows; the sieve stores its table as 64-bit words and raises
OverflowError for a value that does not fit, rather than wrap it.
"""

import math
from itertools import chain, compress, repeat
from operator import floordiv, getitem, mul

# Quadratic residues mod 7 are {1, 2, 4}.  eps is the completely
# multiplicative character with eps(7) = 0.
_EPS_BY_RESIDUE = (0, 1, 1, -1, 1, -1, -1)

# values per slice of sieve_multiplicative's in-place write: 512 KB of
# words at a time
_SIEVE_CHUNK = 1 << 16


class CheckFailure(ArithmeticError):
    """A mathematical check of the package failed: the base of its own
    check failures, which the CLI reports with exit 1."""


class Record:
    """Immutable record of the fields named in a subclass's __slots__, with
    equality, hash and repr by those fields in order, as a frozen dataclass
    gives them without loading dataclasses."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


def epsilon(n):
    """Character value of n mod 7: +1 on residues {1,2,4}, -1 on {3,5,6}, 0 at 0."""
    if n < 0:
        raise ValueError("epsilon is defined for nonnegative n")
    return _EPS_BY_RESIDUE[n % 7]


def prime_flags(n):
    """bytearray of length n + 1 (n >= 0) with flags[m] = 1 exactly when m
    is prime."""
    flags = bytearray([1]) * (n + 1)
    flags[:2] = bytes(min(n + 1, 2))
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p:: p] = bytearray(len(range(p * p, n + 1, p)))
    return flags


def iter_primes(n):
    """The primes <= n, ascending, read off prime_flags(n) as they are
    walked rather than held as a list of ints."""
    if n < 2:
        return iter(())
    # 2, then the odd flags only: half the range to walk
    return chain((2,), compress(range(3, n + 1, 2), memoryview(prime_flags(n))[3::2]))


def primes_up_to(n):
    """All primes <= n, ascending."""
    return list(iter_primes(n))


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Below each limit the bases make Miller-Rabin deterministic: no strong
# pseudoprime to all of them is smaller (Pomerance, Selfridge and Wagstaff;
# Jaeschke; Sorenson and Webster).
_MR_BASES = (
    (1_373_653, (2, 3)),
    (3_215_031_751, (2, 3, 5, 7)),
    (3_317_044_064_679_887_385_961_981, _SMALL_PRIMES),
)


def is_prime(n):
    """Deterministic primality by Miller-Rabin with proven base sets.

    Raises ValueError for n >= 3.3e24, where no proven base set is used:
    trial division there does not finish when the least factor is large.
    """
    if n < 2:
        return False
    for limit, bases in _MR_BASES:
        if n < limit:
            break
    else:
        raise ValueError(f"is_prime is proven only below {limit}, got {n}")
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n):
    """Prime factorization of n >= 1 as a list of (p, k) pairs, p ascending.

    Trial division by 2, 3, 4, ...: a composite never divides what is left,
    as its prime factors are already gone.  No command factors anything
    bigger than a level h.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n):
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, k in factorize(n):
        divs = [d * p ** j for d in divs for j in range(k + 1)]
    return sorted(divs)


def totient(n):
    t = n
    for p, _ in factorize(n):
        t -= t // p
    return t


def moebius(n):
    fac = factorize(n)
    if any(k > 1 for _, k in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def spf_table(n_max):
    """table[n] = smallest prime factor of n, for 0 <= n <= n_max."""
    spf = list(range(n_max + 1))
    for i in range(2, math.isqrt(n_max) + 1):
        if spf[i] == i:
            for j in range(i * i, n_max + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def sieve_multiplicative(prime_power_rule, n_max):
    """Tabulate the multiplicative function with the given prime-power values.

    prime_power_rule(p, k) must return f(p**k).  Returns an array('q')
    table with table[0] = 0, table[1] = 1, table[n] = f(n) for
    2 <= n <= n_max: 8 bytes a value against about 40 in a list of ints.
    A value past 64 bits (each f(p**k) is a table value too) raises
    OverflowError.  Each distinct (p, k) is evaluated once; the rest is
    table lookups.

    Slice fills mark every multiple of each prime power q = p**k with q and
    f(q), so part[n] ends as the full power of one prime of n (whichever
    wrote last) and table[n] as its value.  Then
    f(n) = f(n // part[n]) * table[n], with n // part[n] <= n / 2 coprime
    to part[n].  A prime p > sqrt(n_max) divides any n <= n_max once, and
    beside a smaller prime that marks n unless n = p, so p marks only its
    own slot.
    """
    from array import array  # off the start-up path of commands with no table

    if n_max < 1:
        raise ValueError("sieve_multiplicative requires n_max >= 1")
    root = math.isqrt(n_max)
    # part holds prime powers <= n_max in unsigned 32-bit words, half the
    # size of the table: past 2^32 - 1 (above any identity table's n_max)
    # a write raises OverflowError
    part = array("I", (1,)) * (n_max + 1)
    table = array("q", (0,)) * (n_max + 1)
    table[1] = 1
    for p in iter_primes(n_max):
        if p > root:
            part[p] = p
            table[p] = prime_power_rule(p, 1)
            continue
        q, k = p, 1
        while q <= n_max:
            count = n_max // q
            part[q::q] = array("I", (q,)) * count
            table[q::q] = array("q", (prime_power_rule(p, k),)) * count
            q *= p
            k += 1
    # f(n) over the local values in place, one slice [lo, hi) at a time at
    # C speed: with hi <= 2 lo every n // part[n] lies below lo, so each
    # lookup reads a final value.  getitem reads the array without the
    # argument tuple that a call of table.__getitem__ builds, and the
    # slice's array raises OverflowError for a product past 64 bits.
    parts, values = memoryview(part), memoryview(table)
    lo = 2
    while lo <= n_max:
        hi = min(2 * lo, lo + _SIEVE_CHUNK, n_max + 1)
        rest = map(floordiv, range(lo, hi), parts[lo:hi])
        values[lo:hi] = array("q", map(mul, map(getitem, repeat(table), rest), values[lo:hi]))
        lo = hi
    return table
