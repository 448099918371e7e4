"""Packed ints: the closed forms' kernel, and the digit bound and unpacking
that the matrix pipeline shares.

A polynomial p(t) is stored as the int p(2^K) (Kronecker substitution
t -> 2^K; D. Harvey, J. Symbolic Comput. 44, 2009).  Evaluation at 2^K
is a ring homomorphism, so intermediate values need no size bound; only
the final coefficients, unpacked once as balanced base-2^K digits, must
satisfy |c| < 2^{K-1}.  One K, from the nested-scheme rows at t = 1
(nested_rows_at_one), bounds both families (digit_bits), so the B and X
columns share one cached T_m.

strata's module docstring gives the closed forms: the q^n coefficient
of T_m is sum_l (-1)^{l-m+1} d(n, l) t^{e(n,l)} [l, m-1]_t over
l >= m-1, with e(n, l) = n + m-1 - m l + C(m-1, 2) and d(n, l) the
partitions of n into l distinct parts.  Such a partition has
n >= C(l+1, 2), and with j = l-m+1, C(l+1, 2) = C(j, 2) + j m + C(m, 2)
and C(m, 2) + C(m-1, 2) = (m-1)^2 give e(n, l) >= C(j, 2) >= 0.  So
every t-power is nonnegative, every shift below is a left shift and no
step divides.  The matrix pipeline packs its own rows in strata with
the same digit_bits and unpack; the two routes share no formula and no
factor-step code.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .diagrams import mu_max
from .laurent import ZERO, LaurentPoly, _raw


def packed_column(m: int, order: int, denom_shift: int, k_bits: int) -> list[int]:
    """E_n(2^K) for n <= order: T_m times prod_{k>=1} 1/(1 - t^{k+denom_shift} q^k),
    the product applied as factor steps, one shift-and-add each."""
    column = list(t_column(m, order, k_bits))
    for k in range(1, order + 1):
        ke = k_bits * (k + denom_shift)
        for n in range(k, order + 1):
            if column[n - k]:
                column[n] += column[n - k] << ke
    return column


@lru_cache(maxsize=None)
def t_column(m: int, order: int, k_bits: int) -> tuple[int, ...]:
    """T_m's q^n coefficients at t = 2^K for n <= order (module docstring);
    zero for m > mu_max(order), where no n <= order has m-1 distinct parts."""
    gauss = gauss_at(order, k_bits)
    base = m - 1 + comb(m - 1, 2)
    out = []
    for n, counts in enumerate(distinct_parts(order)):
        v = 0
        for l in range(m - 1, len(counts)):
            term = counts[l] * gauss[l][m - 1] << k_bits * (n + base - m * l)
            v += -term if (l - m + 1) % 2 else term
        out.append(v)
    return tuple(out)


@lru_cache(maxsize=None)
def distinct_parts(order: int) -> tuple[tuple[int, ...], ...]:
    """d(n, l), the partitions of n into l distinct parts, for n <= order and
    l < mu_max(n) (no partition of n has more distinct parts).

    Taking 1 off each part leaves l distinct parts of n - l, or l - 1 if
    the smallest part was 1: d(n, l) = d(n-l, l) + d(n-l, l-1).
    """
    d = [(1,)]
    for n in range(1, order + 1):
        row = [0] * mu_max(n)
        for l in range(1, len(row)):
            rest = d[n - l]
            row[l] = (rest[l] if l < len(rest) else 0) + rest[l - 1]
        d.append(tuple(row))
    return tuple(d)


@lru_cache(maxsize=None)
def gauss_at(order: int, k_bits: int) -> tuple[tuple[int, ...], ...]:
    """[l, j] at t = 2^K for 0 <= j <= l < mu_max(order), by Pascal's rule
    [l, j] = [l-1, j-1] + t^j [l-1, j]."""
    rows = [(1,)]
    for l in range(1, mu_max(order)):
        prev = rows[-1] + (0,)
        rows.append((1,) + tuple(prev[j - 1] + (prev[j] << k_bits * j) for j in range(1, l + 1)))
    return tuple(rows)


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
def chi_at_one(m: int, order: int) -> tuple[int, ...]:
    """chi(B^[n]_m) = sum_{k>=m} (-1)^{k-m} C(k, m) R_k(n)|_{t=1} for n <= order:
    the matrix pipeline's inversion at t = 1, where every B and X column
    equals it; zero past mu_max(order)."""
    return _sum_at_one(m, order, -1)


@lru_cache(maxsize=None)
def digit_bits(order: int) -> int:
    """K: one bit more than max_{m,n} sum_k C(k, m) R_k(n)|_{t=1}, chi_at_one's
    sum without the signs, which bounds every coefficient of every B and X
    column (strata's module docstring has the proof); past mu_max(order)
    every R_k and every column vanish to the order."""
    bound = max(max(_sum_at_one(m, order, 1)) for m in range(1, mu_max(order) + 1))
    return bound.bit_length() + 1


def _sum_at_one(m: int, order: int, sign: int) -> tuple[int, ...]:
    """sum_{k>=m} sign^{k-m} C(k, m) R_k(n)|_{t=1} for n <= order."""
    out = [0] * (order + 1)
    for k, row in enumerate(nested_rows_at_one(order)[m - 1:], m):
        c = sign ** (k - m) * comb(k, m)
        out = [a + c * r for a, r in zip(out, row)]
    return tuple(out)


def unpack(v: int, k_bits: int) -> LaurentPoly:
    """The polynomial whose balanced base-2^K digits (each in [-2^{K-1}, 2^{K-1}),
    K >= 2) are those of v, the lowest digit the constant term."""
    if not v:
        return ZERO
    exp = ((v & -v).bit_length() - 1) // k_bits  # the zero low digits, skipped at once
    v >>= k_bits * exp
    # A balanced number of L digits has at least K(L-1) - 1 bits, so `count`
    # digits hold v.  Adding the number whose `count` digits all equal 2^{K-1}
    # makes every digit nonnegative: each step is one mask and one shift.
    half, mask = 1 << (k_bits - 1), (1 << k_bits) - 1
    count = (v.bit_length() + 1) // k_bits + 1
    w = v + half * (((1 << k_bits * count) - 1) // mask)
    terms = {}
    while w:
        d = (w & mask) - half
        if d:
            terms[exp] = d
        w >>= k_bits
        exp += 1
    return _raw(terms)
