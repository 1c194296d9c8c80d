"""Elementary number theory helpers: primes, factorization, the quadratic
character mod 7, and a slice-filled sieve for multiplicative functions.

Everything here works on plain Python ints, so all arithmetic is exact and
never overflows.
"""

import math
from itertools import compress, islice
from operator import floordiv, mul

# Quadratic residues mod 7 are {1, 2, 4}.  eps is the completely
# multiplicative character with eps(7) = 0.
_EPS_BY_RESIDUE = (0, 1, 1, -1, 1, -1, -1)


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


def primes_up_to(n):
    """All primes <= n, ascending."""
    if n < 2:
        return []
    return list(compress(range(n + 1), prime_flags(n)))


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

    prime_power_rule(p, k) must return f(p**k).  Returns table with
    table[0] = 0, table[1] = 1, table[n] = f(n) for 2 <= n <= n_max.
    Each distinct (p, k) is evaluated once; the rest is table lookups.

    Slice fills mark every multiple of each prime power q = p**k with q and
    f(q), so part[n] ends as the full power of one prime of n (whichever
    wrote last) and local[n] as its value.  Then
    f(n) = f(n // part[n]) * local[n], with n // part[n] < n coprime to
    part[n] and already filled.  A prime p > sqrt(n_max) divides any
    n <= n_max once, and beside a smaller prime that marks n unless n = p,
    so p marks only its own slot.
    """
    if n_max < 1:
        raise ValueError("sieve_multiplicative requires n_max >= 1")
    root = math.isqrt(n_max)
    part = [1] * (n_max + 1)
    local = [0] * (n_max + 1)
    for p in primes_up_to(n_max):
        if p > root:
            part[p] = p
            local[p] = prime_power_rule(p, 1)
            continue
        q, k = p, 1
        while q <= n_max:
            count = n_max // q
            part[q::q] = [q] * count
            local[q::q] = [prime_power_rule(p, k)] * count
            q *= p
            k += 1
    # One pass at C speed: list.extend appends each product as the map
    # yields it, so the lookup of n // part[n] < n reads a filled entry.
    # (An extend that drained the map first would raise IndexError here,
    # never return a wrong table.)
    rest = map(floordiv, range(2, n_max + 1), islice(part, 2, None))
    table = [0, 1]
    table.extend(map(mul, map(table.__getitem__, rest), islice(local, 2, None)))
    return table
