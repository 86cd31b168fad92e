"""Exact reference arithmetic for the benchmark, independent of ostro.

Nothing here imports the library.  The continued fraction of sqrt(d),
d = num/den, comes from the integer recurrence for complete quotients
(P + sqrt(D))/Q with D = num*den, and every comparison against sqrt(d)
is an exact sign test on a + b*sqrt(d).  The benchmark uses this module
to generate the cli-mixed inputs with their documented depths and to
check every output the program prints.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, isqrt, sqrt

# The depth the CLI documents as its default (`ostro <cmd> --help`).
CLI_DEFAULT_DEPTH = 64


def sign(a: Fraction, b: Fraction, d: Fraction) -> int:
    """Exact sign of a + b*sqrt(d) for rational a, b and non-square d > 0."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == 0 or sb == 0 or sa == sb:
        return sa or sb
    # opposite signs: the term with the larger square wins
    return sa if a * a > b * b * d else sb


class Expansion:
    """Continued fraction of sqrt(d) with convergents up to index `depth`.

    p and q are lists indexed from k = -1, so p[k + 1] is p_k.  The
    period is found as the first return of the pair (P, Q) to its value
    at index 1, where the expansion of sqrt(d) becomes purely periodic.
    """

    def __init__(self, d: Fraction, depth: int):
        d = Fraction(d)
        self.d = d
        big_d = d.numerator * d.denominator
        root = isqrt(big_d)
        if root * root == big_d or d <= 1:
            raise ValueError(f"radicand must be a non-square rational > 1, got {d}")
        # sqrt(d) = (0 + sqrt(D)) / den, and den divides D - 0^2.
        p_c, q_c = 0, d.denominator
        self.a0 = (p_c + root) // q_c
        p_c = self.a0 * q_c - p_c
        q_c = (big_d - p_c * p_c) // q_c
        first = (p_c, q_c)
        period = []
        while True:
            a = (p_c + root) // q_c
            period.append(a)
            p_c = a * q_c - p_c
            q_c = (big_d - p_c * p_c) // q_c
            if (p_c, q_c) == first:
                break
        self.period = period
        self.m = len(period)
        self.t = max(self.m, 2)
        self.p = [1, self.a0]
        self.q = [0, 1]
        self.depth = 0
        self.extend(depth)

    def a(self, k: int) -> int:
        return self.a0 if k == 0 else self.period[(k - 1) % self.m]

    def extend(self, depth: int) -> None:
        """Materialize convergents up to index `depth`."""
        for k in range(self.depth + 1, depth + 1):
            ak = self.a(k)
            self.p.append(ak * self.p[-1] + self.p[-2])
            self.q.append(ak * self.q[-1] + self.q[-2])
        self.depth = max(self.depth, depth)

    def beta(self, k: int) -> tuple[Fraction, Fraction]:
        """beta_k = q_k sqrt(d) - p_k as its rational coefficients (a, b)."""
        self.extend(k)
        return Fraction(-self.p[k + 1]), Fraction(self.q[k + 1])

    # -- depth requirements ------------------------------------------------

    def depth_for_nat(self, n: int) -> int:
        """Smallest depth whose q_depth exceeds n (what encoding n needs)."""
        k = 0
        while True:
            self.extend(k)
            if self.q[k + 1] > n:
                return k
            k += 1

    def depth_for_eps(self, eps: Fraction) -> int:
        """Digits needed so that the tail bound times sqrt(d) is below eps.

        The tail after k digits is bounded by |beta_{k-1}| + |beta_k|; the
        two betas have opposite signs, so the bound is |beta_{k-1} - beta_k|.
        """
        k = 1
        while True:
            a1, b1 = self.beta(k - 1)
            a2, b2 = self.beta(k)
            da, db = a1 - a2, b1 - b2
            # (da + db sqrt(d)) * sqrt(d) = db*d + da*sqrt(d)
            ta, tb = db * self.d, da
            if sign(ta, tb, self.d) < 0:
                ta, tb = -ta, -tb
            if sign(ta - eps, tb, self.d) < 0:
                return k
            k += 1

    def documented_depth(self, need: int = 0) -> int:
        """The depth a command is given: the CLI default, the 2t+2 that
        the shift constants ask for, and what the input itself needs."""
        return max(CLI_DEFAULT_DEPTH, 2 * self.t + 2, need)

    # -- digits ---------------------------------------------------------------

    def valid(self, digits) -> bool:
        """The Ostrowski digit constraints, least significant digit first."""
        for k, b in enumerate(digits):
            cap = self.a(k + 1)
            if b < 0 or b > cap or (k == 0 and b == cap):
                return False
            if b == cap and k >= 1 and digits[k - 1] != 0:
                return False
        return True

    def nat_digits(self, n: int) -> list[int]:
        """Greedy digits of n on the q_k scale, without trailing zeros."""
        top = self.depth_for_nat(n)
        digits = [0] * top
        for k in range(top - 1, -1, -1):
            digits[k], n = divmod(n, self.q[k + 1])
        while digits and digits[-1] == 0:
            digits.pop()
        return digits

    def nat_value(self, digits) -> int:
        self.extend(len(digits))
        return sum(b * self.q[k + 1] for k, b in enumerate(digits))

    def real_value(self, digits) -> tuple[Fraction, Fraction]:
        """sum_k digits[k] * beta_k as rational coefficients (a, b)."""
        self.extend(len(digits))
        a = -sum(b * self.p[k + 1] for k, b in enumerate(digits))
        return Fraction(a), Fraction(self.nat_value(digits))

    def in_interval(self, a: Fraction, b: Fraction) -> bool:
        """Membership in I = [a0 - sqrt(d), a0 + 1 - sqrt(d))."""
        return (sign(a - self.a0, b + 1, self.d) >= 0
                and sign(a - self.a0 - 1, b + 1, self.d) < 0)

    def tail_contains(self, n: int, blocked: bool, a: Fraction, b: Fraction) -> bool:
        """Whether a + b*sqrt(d) is a value of valid digit tails from position n.

        With beta_k > 0 exactly for even k, the largest tail puts the full
        digit a_{k+1} on every positive beta and the smallest on every
        negative one.  a_{k+1} beta_k = beta_{k+1} - beta_{k-1} telescopes
        both sums; a blocked first digit (capped one below a_{n+1}) moves
        the far end by beta_n.  The upper end is open.
        """
        bm, bn = self.beta(n - 1), self.beta(n)
        near = (-bn[0], -bn[1])
        if blocked:
            far = (-bm[0] - bn[0], -bm[1] - bn[1])
        else:
            far = (-bm[0], -bm[1])
        lo, hi = (near, far) if n % 2 == 0 else (far, near)
        return (sign(a - lo[0], b - lo[1], self.d) >= 0
                and sign(a - hi[0], b - hi[1], self.d) < 0)

    def real_digits(self, c: tuple[Fraction, Fraction], count: int) -> list[int]:
        """The first `count` Ostrowski digits of c in I, greedily: at each
        position the one digit whose residual lies in the next tail window."""
        a, b = c
        digits = []
        for k in range(count):
            cap = self.a(k + 1) - (1 if k == 0 or digits[-1] != 0 else 0)
            ba, bb = self.beta(k)
            for digit in range(cap + 1):
                if self.tail_contains(k + 1, digit != 0, a - digit * ba, b - digit * bb):
                    break
            else:
                raise AssertionError(f"no digit fits at position {k}")
            digits.append(digit)
            a, b = a - digit * ba, b - digit * bb
        return digits

    def floor(self, a: Fraction, b: Fraction) -> int:
        """floor(a + b*sqrt(d)): a float guess, corrected by exact sign tests."""
        g = floor(a + b * sqrt(self.d))
        while sign(a - g, b, self.d) < 0:
            g -= 1
        while sign(a - g - 1, b, self.d) >= 0:
            g += 1
        return g

    def product_shift_index(self, x: tuple[Fraction, Fraction], eps: Fraction) -> int:
        """The highest convergent index that multiplying x >= 0 by sqrt(d)
        to within eps reads on the shifted-digit route: x is reduced into I,
        encoded to the digits eps needs, and its last nonzero digit is
        shifted up by the period length m.  -1 when no digit is nonzero."""
        whole = self.floor(x[0] - self.a0, x[1] + 1)  # x - whole lies in I
        digits = self.real_digits((x[0] - whole, x[1]), self.depth_for_eps(eps))
        last = max((k for k, b in enumerate(digits) if b), default=None)
        return -1 if last is None else last + self.m

    def real_digits_certified(self, c: tuple[Fraction, Fraction], digits, count: int) -> bool:
        """Whether `digits` are the first `count` Ostrowski digits of c in I.

        Digits are valid and the residual c - sum digits[k] beta_k lies in
        the tail window of position `count`.  The windows of all valid
        prefixes tile I, so at most one prefix passes.
        """
        if len(digits) > count or not self.valid(digits):
            return False
        va, vb = self.real_value(digits)
        last = digits[count - 1] if len(digits) >= count else 0
        return self.tail_contains(count, last != 0, c[0] - va, c[1] - vb)

    def random_valid_digits(self, rng, length: int) -> list[int]:
        """Valid digits drawn position by position from the range the
        constraints leave; the last one is nonzero where that is allowed."""
        digits = []
        for k in range(length):
            hi = self.a(k + 1)
            if k == 0 or digits[k - 1] != 0:
                hi -= 1
            digits.append(rng.randint(1 if k == length - 1 and hi >= 1 else 0, hi))
        while digits and digits[-1] == 0:
            digits.pop()
        return digits

    # -- shift constants ---------------------------------------------------

    def constants_hold(self, v, w, blocks: int = 3) -> bool:
        """q_{kt+i} = v_i p_{kt+i+1} + w_i p_{kt+i} for every residue i < t
        and block k < blocks (two blocks already fix (v_i, w_i))."""
        t = self.t
        if len(v) != t or len(w) != t:
            return False
        self.extend(blocks * t + 1)
        for i in range(t):
            for k in range(blocks):
                j = k * t + i
                if self.q[j + 1] != v[i] * self.p[j + 2] + w[i] * self.p[j + 1]:
                    return False
        return True
