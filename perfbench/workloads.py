"""The benchmark's workloads: which CLI invocations each one runs, and the
check every output must pass.

Why these workloads (see BENCHMARK.json for the one-line versions):

- verify: the paper's headline check at its stated scale.  Almost all of
  its time is the expansion side (Kronecker powers, then one long
  pentagonal quotient solve), so expansion-layer changes show here.
- tables: the identity side and rendering only (sieve, split traces, a/b/c
  tables, positivity, the text/json/csv renderers writing several MB).
  qseries and etaprod never run, so an expansion-layer change must leave
  it unchanged.
- family: many small and medium expansions, where schoolbook products and
  short quotient solves dominate and process start-up is a large share.
  A change that helps large n but slows small products, or moves the
  multiplication dispatch threshold, shows here.  Only this workload uses
  the seed.

Fixed invocations are checked against SHA-256 digests of their stdout
recorded from the unmodified program (digests.json, written by
record_digests.py); seeded `expand --spec` draws are checked against a
literal-product oracle that shares no code with cycloeta.
"""

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

import speccost

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

CORPUS_NAMES = ("32^2*16/8", "48^3/24", "72*36*24/12")
PRIME_BANDS = ((11, 100), (100, 200), (200, 300), (300, 401))
SPEC_SCALES = range(1, 13)
SPEC_EXPONENTS = (-3, -2, -1, 1, 2, 3, 4)
SPEC_N_MAX = 3000
# One class per drawn spec: every draw list holds negative-only and
# fractional-leading-exponent specs.
SPEC_CLASSES = ("negative",) * 4 + ("fractional",) * 4 + ("any",) * 8
# The modelled time of a seed's spec list (speccost) must lie within
# SPEC_COST_TOL of SPEC_COST_S, the median over seeds; lists outside are
# drawn again.  Unbalanced, the lists' cost varies by 21% (cv) between
# seeds, and that work, not noise, dominated the family's run-to-run spread.
SPEC_COST_S = 1.6
SPEC_COST_TOL = 0.02
ORACLE_PREFIX = 64

VERIFY_ARGV = ("verify", "--n-max", "100000")
TABLES_ARGVS = (
    ("coeffs", "--n-max", "100000"),
    ("coeffs", "--n-max", "100000", "--format", "json"),
    ("coeffs", "--n-max", "100000", "--format", "csv"),
    ("positivity", "--n-max", "1000000"),
)
FAMILY_FIXED_ARGVS = (
    ("scan", "--h-max", "24", "--n-max", "3000"),
    *(("uniqueness", "--corpus", name) for name in CORPUS_NAMES),
    ("expand", "--h", "7", "--format", "json"),
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  `check(stdout, exit_code)` returns None when the
    output is right, else a one-line description of what is wrong."""

    argv: tuple
    check: Callable


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def band_primes(lo, hi):
    return [p for p in range(lo, hi) if is_prime(p)]


def nondecomp_primes():
    return [p for band in PRIME_BANDS for p in band_primes(*band)]


def draw_spec(rng, kind):
    """((scale, exponent), ...) with 2-4 distinct scales in 1..12 and
    nonzero exponents in -3..4, of the given class."""
    while True:
        scales = rng.sample(SPEC_SCALES, rng.randint(2, 4))
        if kind == "negative":
            exps = [rng.randint(-3, -1) for _ in scales]
        else:
            exps = [rng.choice(SPEC_EXPONENTS) for _ in scales]
        terms = tuple(zip(scales, exps))
        if kind != "fractional" or order24(terms) % 24:
            return terms


def order24(terms):
    return sum(s * e for s, e in terms)


def spec_string(terms):
    return ",".join(f"{s}:{e}" for s, e in terms)


def parse_spec(text):
    return tuple(tuple(map(int, t.split(":"))) for t in text.split(","))


def spec_list_seconds(specs):
    return sum(speccost.spec_seconds(terms, SPEC_N_MAX) for terms in specs)


def family_argvs(seed):
    """The family workload's argv list for `seed`: the fixed scan,
    uniqueness and expand invocations, one nondecomp prime from each band
    of 11..400, and one expand per entry of SPEC_CLASSES, drawn until the
    list's modelled cost is within SPEC_COST_TOL of SPEC_COST_S."""
    rng = random.Random(seed)
    argvs = list(FAMILY_FIXED_ARGVS)
    for lo, hi in PRIME_BANDS:
        p = rng.choice(band_primes(lo, hi))
        argvs.append(("nondecomp", "--p", str(p)))
    while True:
        specs = [draw_spec(rng, kind) for kind in SPEC_CLASSES]
        if abs(spec_list_seconds(specs) / SPEC_COST_S - 1) <= SPEC_COST_TOL:
            break
    for terms in specs:
        argvs.append(("expand", "--spec", spec_string(terms), "--n-max", str(SPEC_N_MAX)))
    return argvs


# ---------------------------------------------------------------------------
# checks

def load_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest_check(argv, digests, extra=None):
    want = digests[" ".join(argv)]

    def check(out, code):
        if code != 0:
            return f"exit code {code}"
        if hashlib.sha256(out).hexdigest() != want:
            return "stdout differs from the recorded digest"
        return extra(out) if extra else None

    return check


def _identity_holds(out):
    if not out.startswith(b"identity c=(a-b)/8 holds on [1,100000]\n"):
        return "verify did not report that the identity holds"
    return None


def _known_misprint(out):
    disc = json.loads(out).get("known_discrepancies")
    if disc != {"41": {"tabulated": 21, "computed": 210}}:
        return f"known_discrepancies is {disc!r}, expected n=41 (21 vs 210)"
    return None


def eta_prefix(terms, length):
    """First `length` coefficients of prod_s prod_{m>=1} (1 - q^(s m))^e(s),
    multiplying or dividing by one literal factor (1 - q^k) at a time."""
    c = [1] + [0] * (length - 1)
    for s, e in terms:
        for k in range(s, length, s):
            for _ in range(abs(e)):
                if e > 0:
                    for i in range(length - 1, k - 1, -1):
                        c[i] -= c[i - k]
                else:
                    for i in range(k, length):
                        c[i] += c[i - k]
    return c


_ROW = re.compile(r"(n|num24)=(-?\d+): (-?\d+)")


def spec_check(terms, n_max):
    """The text output of `expand --spec` must have one row per exponent
    (order24 + 24 i)/24 <= n_max, and its first ORACLE_PREFIX rows must
    equal the literal product."""
    o24 = order24(terms)
    integral = o24 % 24 == 0
    window = (24 * n_max - o24) // 24 + 1
    want = eta_prefix(terms, min(ORACLE_PREFIX, window))

    def check(out, code):
        if code != 0:
            return f"exit code {code}"
        rows = [m for m in map(_ROW.fullmatch, out.decode(errors="replace").splitlines()) if m]
        if len(rows) != window:
            return f"{len(rows)} rows, expected {window}"
        for i, (row, c) in enumerate(zip(rows, want)):
            key = ("n", (o24 + 24 * i) // 24) if integral else ("num24", o24 + 24 * i)
            if (row[1], int(row[2]), int(row[3])) != (*key, c):
                return f"row {i} is {row[0]!r}, oracle gives {key[0]}={key[1]}: {c}"
        return None

    return check


def ops_for(workload, seed):
    digests = load_digests()
    if workload == "verify":
        return [Op(VERIFY_ARGV, digest_check(VERIFY_ARGV, digests, _identity_holds))]
    if workload == "tables":
        return [Op(a, digest_check(a, digests)) for a in TABLES_ARGVS]
    if workload == "family":
        ops = []
        for argv in family_argvs(seed):
            if argv[:2] == ("expand", "--spec"):
                check = spec_check(parse_spec(argv[2]), int(argv[4]))
            elif argv[:3] == ("expand", "--h", "7"):
                check = digest_check(argv, digests, _known_misprint)
            else:
                check = digest_check(argv, digests)
            ops.append(Op(argv, check))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify", "tables", "family")


def fixed_argvs():
    """Every invocation whose stdout is checked by digest."""
    return [
        VERIFY_ARGV,
        *TABLES_ARGVS,
        *FAMILY_FIXED_ARGVS,
        *(("nondecomp", "--p", str(p)) for p in nondecomp_primes()),
    ]
