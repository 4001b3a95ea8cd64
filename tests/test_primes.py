"""The shared sieve tables against factorization."""

import pytest

from zhat._primes import factorize, smallest_factor_table


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 10**4])
def test_smallest_factor_table_matches_factorize(n):
    spf = smallest_factor_table(n)
    assert spf.shape == (n + 1,)
    assert spf[:2].tolist() == [0] * min(n + 1, 2)
    assert [int(spf[k]) for k in range(2, n + 1)] == [min(factorize(k)) for k in range(2, n + 1)]
