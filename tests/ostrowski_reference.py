"""Bodies that ostro.ostrowski replaced, kept as references for the tests.

encode_nat_full_scan runs the greedy descent over every position down to
0, with the same per-digit check and the same InvalidDigits message, and
returns the digit tuple with its trailing zeros dropped.  The library's
encode_nat ends the descent once the remainder is 0; the tests require
equal digits on true tables and equal errors on corrupted ones.

enumerate_valid_recursive is the recursive body of enumerate_valid, one
nested generator frame per position; the library's odometer over one
digit list must yield the same strings in the same order.
"""

from __future__ import annotations

from bisect import bisect_right

from ostro.cfrac import CFData
from ostro.errors import DepthExceeded, InvalidDigits


def encode_nat_full_scan(n: int, cf: CFData) -> tuple[int, ...]:
    """Greedy digits of n over the q_k scale, every position visited."""
    if n < 0:
        raise ValueError(f"natural number expected, got {n}")
    qs = cf.conv_q  # qs[i] = q_{i-1}
    if n >= qs[-1]:
        raise DepthExceeded(f"{n} >= q_depth = {qs[-1]}; expand deeper")
    period, m = cf.period, cf.m
    digits, rem = [0] * (bisect_right(qs, n, 1) - 1), n
    for k in range(len(digits) - 1, -1, -1):
        if rem >= qs[k + 1]:
            digits[k], rem = divmod(rem, qs[k + 1])
            b, cap = digits[k], period[k % m]
            if b > cap or b == cap and (k == 0 or rem >= qs[k]):
                raise InvalidDigits(f"digit constraint violated at position {k}: {digits}")
    while digits and not digits[-1]:
        digits.pop()
    return tuple(digits)


def enumerate_valid_recursive(cf: CFData, length: int):
    """Every valid digit tuple of the given length, position 0 varying
    slowest, by one nested generator per position."""
    def rec(k: int, prefix: list[int]):
        if k == length:
            yield tuple(prefix)
            return
        cap = cf.a(k + 1)
        hi = cap - 1 if k == 0 else cap
        for b in range(0, hi + 1):
            if k >= 1 and b == cap and prefix[k - 1] != 0:
                continue
            prefix.append(b)
            yield from rec(k + 1, prefix)
            prefix.pop()

    yield from rec(0, [])
