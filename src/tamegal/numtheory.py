"""Integer and rational arithmetic helpers shared across the toolkit.

Primality is strong Miller-Rabin on the prime bases 2..41, after a gcd with
their product rules out their multiples.  Below psi_k, the least strong
pseudoprime to the first k prime bases, those k bases decide (Jaeschke 1993;
Sorenson and Webster 2017), so every n below psi_13 ~ 3.3 * 10^24 is decided
exactly; a larger n is refused unless one of the bases divides it.  Factoring
uses Pollard rho with Floyd's cycle finding.  Everything here is exact integer
arithmetic.

The prime sieve is cached per limit and shared by every caller, so the
arrays ``primes_upto`` returns are read-only.
"""

from __future__ import annotations

import bisect
import functools
import math
import re
from fractions import Fraction

import numpy as np

# primes_upto allocates limit + 1 bytes, so it refuses a limit above this
SIEVE_CAP = 10**7
# primes_upto keeps the sieves of this many limits
_SIEVE_CACHE_SIZE = 4
# parse_rational refuses a decimal exponent above this in absolute value, the
# digit limit CPython puts on int strings
DECIMAL_EXPONENT_CAP = 4300
_DECIMAL_EXPONENT = re.compile(r"e[-+]?(\d[\d_]*)\s*\Z", re.IGNORECASE)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BASES_PRODUCT = math.prod(_MR_BASES)
# psi_k for k = 1..13 (OEIS A014233): below psi_k the first k bases decide.
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as a read-only int64 array, for a limit up to
    SIEVE_CAP.

    Each limit is sieved once (simple numpy sieve) and the array is shared
    by every caller; the last _SIEVE_CACHE_SIZE limits are kept.  A limit
    above the cap is refused before the cache, on every call.
    """
    if limit > SIEVE_CAP:
        raise ValueError(f"prime bound {limit} is above the sieve cap {SIEVE_CAP}")
    return _sieve(limit)


@functools.lru_cache(maxsize=_SIEVE_CACHE_SIZE)
def _sieve(limit: int) -> np.ndarray:
    if limit < 2:
        primes = np.array([], dtype=np.int64)
    else:
        mask = np.ones(limit + 1, dtype=bool)
        mask[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if mask[p]:
                mask[p * p :: p] = False
        primes = np.flatnonzero(mask).astype(np.int64)
    primes.setflags(write=False)
    return primes


def is_prime(n: int) -> bool:
    """Exact primality of n.

    Decided for every n below psi_13 and every n with a prime factor
    below 43; any other n raises ``ValueError``.
    """
    n = int(n)
    if n < 2:
        return False
    if math.gcd(n, _MR_BASES_PRODUCT) != 1:
        return n in _MR_BASES
    k = bisect.bisect_right(_PSI, n) + 1  # the least k with n < psi_k
    if k > len(_PSI):
        raise ValueError(f"primality of {n} is decided only below psi_13 = {_PSI[-1]}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * d with d odd
    d = (n - 1) >> s
    for a in _MR_BASES[:k]:
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


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite n, by Pollard rho on x -> x^2 + c with
    Floyd's cycle finding: x takes one step and y two, with a gcd per step."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"factor search failed for {n}")


@functools.lru_cache(maxsize=1 << 18)
def _factorize_cached(n: int) -> tuple[tuple[int, int], ...]:
    out: dict[int, int] = {}
    rest = n
    for p in (2, 3, 5, 7, 11, 13):
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if m >= _PSI[-1] and math.gcd(m, _MR_BASES_PRODUCT) == 1:  # is_prime refuses m
            raise ValueError(f"{n} cannot be factored: its cofactor {m} >= psi_13 = "
                             f"{_PSI[-1]} has no prime factor below 43")
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(out.items()))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.  A cofactor of n
    at or above psi_13 with no prime factor below 43 is refused.

    Memoized underneath; group-theoretic callers hit the same small orders
    constantly.
    """
    n = int(n)
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    return dict(_factorize_cached(n))


@functools.lru_cache(maxsize=1 << 16)
def prime_divisor_count(n: int) -> int:
    """Number of distinct prime divisors of n >= 1."""
    return len(_factorize_cached(int(n)))


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, a in factorize(n).items():
        ds = [d * p**i for d in ds for i in range(a + 1)]
    return sorted(ds)


def is_prime_power(n: int) -> bool:
    return n >= 2 and len(factorize(n)) == 1


def parse_rational(text: str) -> Fraction:
    """The rational written as text ("a", "a/b" or a decimal), as Fraction
    reads it; a zero denominator is refused with ValueError, not
    ZeroDivisionError, and so is a decimal exponent beyond
    DECIMAL_EXPONENT_CAP, before Fraction expands 10^exponent."""
    exp = _DECIMAL_EXPONENT.search(text)
    digits = exp[1].replace("_", "").lstrip("0") if exp else ""
    # the length test comes first: int() itself refuses more than 4300 digits
    if len(digits) > len(str(DECIMAL_EXPONENT_CAP)) or int(digits or "0") > DECIMAL_EXPONENT_CAP:
        raise ValueError(
            f"rational {text!r} has a decimal exponent beyond {DECIMAL_EXPONENT_CAP}, "
            "the digit limit of a Python int"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None


def p_split(x: int | Fraction, p: int) -> tuple[int, int]:
    """The p-adic split x = p^v * u of a nonzero int or Fraction x, u a
    p-unit, as (v, u mod p): v = v_p(x), and u mod p the residue of x / p^v.
    One pass strips p from the numerator and from the denominator.  A p below
    2 is refused by name: at p = 1 or -1 the strip would never end, and at
    p = 0 it would divide by zero."""
    if p < 2:
        raise ValueError(f"p-adic split needs p >= 2, got p = {p}")
    num, den = x.numerator, x.denominator
    if num == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num * pow(den, -1, p) % p


def _order_from_multiple(a: int, n: int, m: int) -> int:
    """Order of a modulo n, given a multiple m of it: m is divided by each
    prime q while a^(m/q) = 1 (mod n)."""
    if pow(a, m, n) != 1 % n:
        raise ArithmeticError(f"{a}^{m} != 1 mod {n}: {m} is not a multiple of the order")
    for q, k in factorize(m).items():
        for _ in range(k):
            if pow(a, m // q, n) != 1 % n:
                break
            m //= q
    return m


def multiplicative_order_mod(a: int, n: int) -> int:
    """Order of a in (Z/n)^*, divided down from phi(n)."""
    n = int(n)
    a = int(a) % n
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    phi = math.prod(q ** (k - 1) * (q - 1) for q, k in factorize(n).items())
    return _order_from_multiple(a, n, phi)


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return -1 if s == p - 1 else 1


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def is_rational_square(x: Fraction) -> bool:
    x = Fraction(x)
    return x >= 0 and is_perfect_square(x.numerator) and is_perfect_square(x.denominator)


def is_squarefree(n: int) -> bool:
    n = abs(int(n))
    if n == 0:
        return False
    return all(a == 1 for a in factorize(n).values())
