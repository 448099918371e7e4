"""The closed forms' arithmetic: q-series coefficients packed into ints.

A coefficient p(t) whose t-powers are all >= a floor L is stored as the
int p(2^K) 2^{-K L} (Kronecker substitution t -> 2^K; D. Harvey,
J. Symbolic Comput. 44, 2009).  Evaluation at 2^K is a ring
homomorphism, so intermediate values need no size bound; only the final
coefficients, unpacked once as balanced base-2^K digits, must satisfy
|c| < 2^{K-1}.  One K, from the nested-scheme rows at t = 1
(nested_rows_at_one), bounds both families (digit_bits), so the B and X
columns share the cached numerators N_a.  strata's module docstring
gives the closed forms.  The matrix pipeline stays on LaurentPoly, so
the two routes share no arithmetic kernel.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .diagrams import mu_max
from .laurent import InexactDivisionError, LaurentPoly


def packed_column(
    m: int, order: int, denom_shift: int, k_bits: int
) -> tuple[list[int], list[int]]:
    """The column's floors L_n and its packed coefficients E_n(2^K) 2^{-K L_n}.

    Sums c_{m,a} N_a, each N_a shifted from its own floors to the
    column's, applies the q-denominator as factor steps and divides by
    prod_{i<m}(1 - 2^{K(i+1)}); a remainder raises InexactDivisionError.
    """
    x = 1 << k_bits  # t = 2^K
    # floors of c_{m,a} N_a: the valuation C(a,2) + m - a of c_{m,a} plus N_a's
    lows = [[comb(a, 2) + m - a + low for low in numerator_floors(a, order)]
            for a in range(1, m + 1)]
    floors = list(map(min, zip(*lows)))
    column = [0] * (order + 1)
    for a, low in enumerate(lows, 1):
        # c_{m,a} t^{-valuation} = (-1)^{a+1} gauss(m, a) (1 + t + ... + t^{a-1}) at t = 2^K;
        # every partial product of the Gaussian binomial is one, so each // is exact
        c = (x ** a - 1) // (x - 1) * (1 if a % 2 else -1)
        for i in range(a):
            c = c * (1 - x ** (m - i)) // (1 - x ** (i + 1))
        for n, p in enumerate(numerator(a, order, k_bits)):
            if p:
                column[n] += (c * p) << k_bits * (low[n] - floors[n])
    # times prod_k 1/(1 - t^{k+denom_shift} q^k); floors never rise with n, so no shift is negative
    kl = [k_bits * low for low in floors]
    for k in range(1, order + 1):
        ke = k_bits * (k + denom_shift)
        for n in range(k, order + 1):
            if column[n - k]:
                column[n] += column[n - k] << (ke + kl[n - k] - kl[n])
    divisor = 1
    for i in range(1, m):
        divisor *= 1 - (x << k_bits * i)  # 1 - t^{i+1}
    quotients = []
    for n, v in enumerate(column):
        q, r = divmod(v, divisor)
        if r:
            raise InexactDivisionError(
                f"coefficient of q^{n} at m={m} is not divisible by prod_(i<m)(1 - t^(i+1))")
        quotients.append(q)
    return floors, quotients


@lru_cache(maxsize=None)
def numerator_floors(a: int, order: int) -> tuple[int, ...]:
    """L_n = min_{j<=n} (j - a l(j)) for n <= order, with l(j) = mu_max(j) - 1
    the largest number of distinct parts of j: a floor under the t-powers of
    N_a's q^n coefficient (a distinct-part partition of n with l parts gives
    t^{n - a l}), nonincreasing in n."""
    out, low = [], 0
    for j in range(order + 1):
        low = min(low, j - a * (mu_max(j) - 1))
        out.append(low)
    return tuple(out)


@lru_cache(maxsize=None)
def numerator(a: int, order: int, k_bits: int) -> tuple[int, ...]:
    """N_a = prod_{k>=1} (1 - t^{k-a} q^k), packed: p_n(2^K) 2^{-K L_n} for its
    q^n coefficient p_n and the floors L_n of numerator_floors(a, order).

    A factor step subtracts out[n-k] shifted by K(k - a + L_{n-k} - L_n).
    A negative shift drops low bits, which must be zero: a nonzero bit
    means a floor stood above a real t-power, and raises.
    """
    kl = [k_bits * low for low in numerator_floors(a, order)]
    out = [1] + [0] * order
    for k in range(1, order + 1):
        ke = k_bits * (k - a)
        for n in range(order, k - 1, -1):
            v = out[n - k]
            if not v:
                continue
            shift = ke + kl[n - k] - kl[n]
            if shift < 0:
                if v & ((1 << -shift) - 1):
                    raise InexactDivisionError(
                        f"N_{a} at q^{n}: a t-power lies below its floor {kl[n] // k_bits}")
                out[n] -= v >> -shift
            else:
                out[n] -= v << shift
    return tuple(out)


@lru_cache(maxsize=None)
def nested_rows_at_one(order: int) -> tuple[tuple[int, ...], ...]:
    """R_k(n)|_{t=1} = [q^n] q^{C(k,2)} prod_d 1/(1 - q^d) prod_{d<=k} 1/(1 - q^d)
    for 1 <= k <= mu_max(order) and n <= order, with plain ints: the
    nested-scheme rows series_Hnnr(k) at t = 1."""
    f = [1] + [0] * order  # prod_d 1/(1 - q^d), then one more factor per k
    for d in range(1, order + 1):
        for n in range(d, order + 1):
            f[n] += f[n - d]
    rows = []
    for k in range(1, mu_max(order) + 1):
        for n in range(k, order + 1):
            f[n] += f[n - k]
        rows.append((0,) * comb(k, 2) + tuple(f[: order + 1 - comb(k, 2)]))
    return tuple(rows)


@lru_cache(maxsize=None)
def digit_bits(order: int) -> int:
    """K: one bit more than max_{m,n} sum_k C(k, m) R_k(n)|_{t=1}, which
    bounds every coefficient of every B and X column (strata's module
    docstring has the proof); past mu_max(order) every R_k and every
    column vanish to the order."""
    rows = nested_rows_at_one(order)
    bound = max(sum(comb(k, m) * row[n] for k, row in enumerate(rows, 1))
                for m in range(1, len(rows) + 1) for n in range(order + 1))
    return bound.bit_length() + 1


def unpack(v: int, k_bits: int, low: int) -> LaurentPoly:
    """The polynomial whose balanced base-2^K digits are those of v, the
    lowest digit the coefficient of t^low."""
    half, base = 1 << (k_bits - 1), 1 << k_bits
    terms = {}
    while v:
        d = v & (base - 1)
        if d >= half:
            d -= base
        if d:
            terms[low] = d
        v = (v - d) >> k_bits
        low += 1
    return LaurentPoly(terms)
