"""Modelled cost of `expand --spec`, used to keep the family workload's
work the same from seed to seed.

The model follows etaprod.expand step by step on coefficient supports
(Python ints used as bit sets), so it does no big-integer arithmetic: it
counts the schoolbook inner-loop trips, the products that go to the
Kronecker kernel and the quotient-solve steps, and weighs them by their
time per unit on a 2.0 GHz Xeon under Python 3.11.  Supports ignore
coefficients that cancel to zero, so the counts are upper bounds.  On 80
drawn specs at n_max 3000 the modelled time correlated with the measured
time at r = 0.95.  A list of 16 specs takes about 25 ms to model.
"""

SCHOOLBOOK_OP_S = 35e-9
SOLVE_STEP_S = 178e-9
KRONECKER_PER_COEFF_S = 15e-6
KRONECKER_NNZ_N = 2_000_000  # qseries._mul_lists sends nnz * n above this to Kronecker


def _pentagonal(limit):
    """Exponents of the nonzero terms of prod (1 - q^n) in 1..limit."""
    out = []
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        out.append(k * (3 * k - 1) // 2)
        if k * (3 * k + 1) // 2 <= limit:
            out.append(k * (3 * k + 1) // 2)
        k += 1
    return sorted(out)


def _positions(support):
    bits = bin(support)[:1:-1]
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


class _Tally:
    def __init__(self):
        self.seconds = 0.0

    def product(self, a, b, n):
        """Support of the first n coefficients of a * b, tallying the cost
        of the kernel qseries._mul_lists would choose."""
        pa, pb = _positions(a), _positions(b)
        if min(len(pa), len(pb)) * n > KRONECKER_NNZ_N:
            self.seconds += KRONECKER_PER_COEFF_S * n
        else:
            # both operands have length n, so the loop runs over a's nonzeros
            self.seconds += SCHOOLBOOK_OP_S * sum(n - i for i in pa)
        fewer, other = (pa, b) if len(pa) <= len(pb) else (pb, a)
        out = 0
        for i in fewer:
            out |= other << i
        return out & ((1 << n) - 1)


def spec_seconds(terms, n_max):
    """Modelled seconds of etaprod.expand for ((scale, exponent), ...)."""
    terms = sorted(terms)
    n = (24 * n_max - sum(s * e for s, e in terms)) // 24 + 1
    tally = _Tally()
    cur = 1
    for s, e in terms:
        if e > 0:
            base = 1
            for g in _pentagonal((n - 1) // s):
                base |= 1 << (g * s)
            power, k = None, e
            while k:
                if k & 1:
                    power = base if power is None else tally.product(power, base, n)
                k >>= 1
                if k:
                    base = tally.product(base, base, n)
            cur = tally.product(cur, power, n)
    for s, e in terms:
        if e < 0:
            offsets = [g * s for g in _pentagonal((n - 1) // s)]
            steps, j = 0, 0
            for k in range(n):
                while j < len(offsets) and offsets[j] <= k:
                    j += 1
                steps += j
            tally.seconds += SOLVE_STEP_S * -e * steps
    return tally.seconds
