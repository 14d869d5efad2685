"""Small exact number-theory helpers used across the package."""

from __future__ import annotations

from .errors import InputError

__all__ = [
    "MR_BOUND",
    "is_prime",
    "require_prime",
    "vp",
]


# Miller-Rabin with the prime bases 2..41 is deterministic for every n below
# this bound (Sorenson & Webster, Math. Comp. 86 (2017), psi_13).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality by Miller-Rabin for n < MR_BOUND.

    Larger n raise InputError: no fixed base set is proven correct there.
    """
    if n < 2:
        return False
    if n >= MR_BOUND:
        raise InputError(f"primality is only decided below {MR_BOUND}, "
                         f"got a {n.bit_length()}-bit number")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def require_prime(p: int) -> None:
    """Raise InputError unless is_prime(p); a p too long to print is named by its size."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime" if p > -MR_BOUND
                         else f"a {p.bit_length()}-bit negative number is not prime")


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer, for p >= 2."""
    if p < 2:
        raise InputError(f"valuation needs p >= 2, got {p}")
    if n == 0:
        raise InputError("valuation of zero is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v
