import pytest

from kummer.arith import MR_BOUND, is_prime, require_prime, vp
from kummer.errors import InputError


def test_vp_values():
    assert vp(8, 2) == 3
    assert vp(-18, 3) == 2
    assert vp(7, 5) == 0


@pytest.mark.parametrize("p", [1, 0, -2])
def test_vp_rejects_bases_below_two(p):
    with pytest.raises(InputError):
        vp(8, p)


@pytest.mark.parametrize("n, message", [
    (4, "4 is not prime"),
    (-7, "-7 is not prime"),
    (-10 ** 5000, f"a {(10 ** 5000).bit_length()}-bit negative number is not prime"),
], ids=["four", "negative", "too-long-to-print"])
def test_require_prime_names_the_rejected_number(n, message):
    require_prime(7)
    with pytest.raises(InputError) as info:
        require_prime(n)
    assert str(info.value) == message


def test_is_prime_matches_a_sieve_below_100000():
    limit = 100_000
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, 317):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, limit, p))
    assert [n for n in range(-5, limit) if is_prime(n)] == [
        n for n in range(limit) if sieve[n]]


@pytest.mark.parametrize("n", [
    3_215_031_751,              # strong pseudoprime to bases 2, 3, 5, 7
    3_825_123_056_546_413_051,  # strong pseudoprime to bases 2 .. 23
    1_000_000_000_039 * 1_000_000_007,
])
def test_is_prime_rejects_strong_pseudoprimes_and_composites(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [1_000_000_000_039, 10**16 + 61, 2**61 - 1])
def test_is_prime_accepts_large_primes(n):
    assert is_prime(n)


def test_is_prime_refuses_numbers_past_the_proven_bound():
    assert not is_prime(MR_BOUND - 1)
    for n in (MR_BOUND, 2**89 - 1):
        with pytest.raises(InputError):
            is_prime(n)
