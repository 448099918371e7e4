"""Young diagram combinatorics for torus fixed points.

Conventions.  A partition is a weakly decreasing tuple of positive
parts; part b (1-based, counted from the bottom) is the length of row b.
A box is a pair (a, b) = (column from the left, row from the bottom),
both 1-based, so (a, b) lies in lambda iff a <= lambda_b.

An *elbow* is a box with no box above and none to its right, i.e. the
end box of the last row of each run of equal parts; removing any subset
of elbows leaves a valid diagram.  A fixed point of the nested Hilbert
scheme H^[n, n+r] is a diagram with n+r boxes together with r marked
elbows; removing the marks gives the n-box diagram of the larger ideal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb, isqrt
from operator import mul
from typing import Iterator, Sequence

from .laurent import LaurentPoly

Partition = tuple[int, ...]
Box = tuple[int, int]
WeightList = tuple[tuple[int, int], ...]


def check_partition(parts: Sequence[int]) -> Partition:
    parts = tuple(parts)
    if any(p < 1 for p in parts):
        raise ValueError(f"parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    return parts


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in reverse lexicographic order, largest part first."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return list(_gen_partitions(n, n))


def _gen_partitions(n: int, max_part: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _gen_partitions(n - first, first):
            yield (first,) + rest


def boxes(parts: Partition) -> Iterator[Box]:
    for b, row_len in enumerate(parts, start=1):
        for a in range(1, row_len + 1):
            yield (a, b)


def elbows(parts: Partition) -> list[Box]:
    """Removable corner boxes, one per distinct part value, in ascending row order."""
    return [(p, b) for b, p in enumerate(parts, 1) if b == len(parts) or p > parts[b]]


def mu_of_partition(parts: Partition) -> int:
    """Minimal generator count of the monomial ideal: distinct part values + 1.

    Counts the concave (addable) corners of the diagram; the empty
    partition is the unit ideal, which has a single generator.
    """
    return len(set(parts)) + 1


def remove_boxes(parts: Partition, marks: frozenset[Box] | set[Box]) -> Partition:
    """Diagram left after deleting a set of elbows."""
    rows = list(parts)
    for a, b in marks:
        if not (1 <= b <= len(rows)) or rows[b - 1] != a:
            raise ValueError(f"{(a, b)} is not an end-of-row box of {parts}")
        rows[b - 1] -= 1
    out = tuple(r for r in rows if r)
    return check_partition(out)


def arm(parts: Partition, box: Box) -> int:
    """Number of boxes strictly to the right of box, within the diagram."""
    a, b = box
    return parts[b - 1] - a


def leg(parts: Partition, box: Box) -> int:
    """Number of boxes strictly above box, within the diagram."""
    a, b = box
    count = 0
    for bp in range(b, len(parts)):
        if parts[bp] >= a:
            count += 1
        else:
            break
    return count


@dataclass(frozen=True)
class MarkedDiagram:
    """A diagram with n+r boxes and r marked elbows: a fixed point of H^[n, n+r]."""

    parts: Partition
    marks: frozenset[Box] = field(default_factory=frozenset)

    def __post_init__(self):
        check_partition(self.parts)
        elbow_set = set(elbows(self.parts))
        bad = set(self.marks) - elbow_set
        if bad:
            raise ValueError(f"marks {sorted(bad)} are not elbows of {self.parts}")

    def inner_partition(self) -> Partition:
        """The smaller diagram (marks removed)."""
        return remove_boxes(self.parts, self.marks)


def q_boxes(md: MarkedDiagram) -> set[Box]:
    """Crossing boxes of mark pairs: (a, d) for marks (a, b), (c, d) with a < c.

    Marks are elbows, so they lie in distinct rows and columns and a < c
    forces d < b: the box (a, d) lies under the mark (a, b), inside the diagram.
    """
    return {(a, d) for (a, _), (_, d) in combinations(sorted(md.marks), 2)}


def enumerate_marked(n: int, r: int) -> list[MarkedDiagram]:
    """All fixed points of H^[n, n+r]: diagrams of n+r boxes with r marked elbows.

    Deterministic order: partitions reverse lexicographic, marks by the
    elbow order of the diagram.  Empty exactly when n < C(r, 2).  The
    degenerate r = 0 call enumerates the plain fixed points of H^[n].
    """
    if n < 0 or r < 0:
        raise ValueError("n and r must be >= 0")
    if n < comb(r, 2):
        return []
    out = []
    for parts in partitions_of(n + r):
        for chosen in combinations(elbows(parts), r):
            out.append(MarkedDiagram(parts, frozenset(chosen)))
    return out


def tangent_character(md: MarkedDiagram) -> WeightList:
    """Torus weights of the tangent space at a fixed point of H^[n, n+r].

    Every box of the big diagram that is neither marked nor a crossing
    box contributes the two weights

        (-arm_J(box), leg_I(box) + 1)   and   (arm_I(box) + 1, -leg_J(box))

    computed in the big (J) and small (I) diagrams respectively, where
    arm counts boxes to the right and leg boxes above.  The list length
    is 2*(n - C(r, 2)), the dimension of the nested Hilbert scheme.
    """
    delta_j = md.parts
    delta_i = md.inner_partition()
    skip = set(md.marks) | q_boxes(md)
    weights = []
    for box in boxes(delta_j):
        if box in skip:
            continue
        weights.append((-arm(delta_j, box), leg(delta_i, box) + 1))
        weights.append((arm(delta_i, box) + 1, -leg(delta_j, box)))
    return tuple(sorted(weights))


def alpha(weights: WeightList) -> int:
    """Number of positive weights under the one-parameter subgroup order.

    (w1, w2) is positive iff w2 > 0, or w2 = 0 and w1 > 0: the limit
    order of t -> (t, t^N) for N large.
    """
    return sum(1 for w1, w2 in weights if w2 > 0 or (w2 == 0 and w1 > 0))


def e_poly_Hnnr_fixed(n: int, r: int) -> LaurentPoly:
    """E-polynomial of H^[n, n+r]: the sum of t^alpha over its fixed points, from the census.

    A partition lambda of n + r carries C(e(lambda), r) fixed points (r of its
    e(lambda) elbows marked), each with alpha = n - C(r,2) - r + lambda_1
    (Ellingsrud-Stromme, Invent. Math. 87, 1987).  With r = 0 this is E(H^[n]).
    """
    if n < 0 or r < 0:
        raise ValueError("n and r must be >= 0")
    if n < comb(r, 2):
        return LaurentPoly()
    # weights[k] sums over the partitions with parts <= k; a difference keeps lambda_1 = k
    census = _census(n + r)
    binoms = [comb(e, r) for e in range(len(census[0]))]
    weights = [sum(map(mul, binoms, row)) for row in census]
    base = n - comb(r, 2) - r
    return LaurentPoly((base + k, w - v) for k, (w, v) in enumerate(zip(weights, [0] + weights)))


def e_poly_Bnnr_fixed(n: int, r: int) -> LaurentPoly:
    """E-polynomial of the origin-supported locus B^[n, n+r]: sum of t^{2n-r(r-1)-alpha}.

    The reflection t^alpha -> t^{dim - alpha} of e_poly_Hnnr_fixed's census.
    """
    return e_poly_Hnnr_fixed(n, r).invert_variable().shift(2 * n - r * (r - 1))


def mu_max(n: int) -> int:
    """Largest possible generator count on H^[n]: max k with C(k, 2) <= n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (1 + isqrt(8 * n + 1)) // 2


@lru_cache(maxsize=None)
def _census(n: int) -> list[list[int]]:
    """Row k, entry e: the partitions of n with parts <= k and e distinct part values.

    Largest part k is c >= 1 copies of k over a partition of n - c*k with
    parts < k.  Rest sizes ascend from k = 1 on, so each smaller census is
    built before it is read and the recursion stays two calls deep; shared, never mutate.
    """
    width = mu_max(n)  # a partition of n has at most mu_max(n) - 1 distinct parts
    rows = [[int(n == 0)] + [0] * (width - 1)]
    for k in range(1, n + 1):
        row = rows[-1].copy()
        for rest in range(n % k, n - k + 1, k):
            # entries past width - 1 are zero: k on top would need too many distinct parts
            for e, count in enumerate(_census(rest)[min(k - 1, rest)][: width - 1], 1):
                row[e] += count
        rows.append(row)
    return rows


def count_partitions_with_mu(n: int, m: int) -> int:
    """Number of partitions of n with m addable corners, that is m - 1 distinct part values."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _census(n)[-1][m - 1] if m <= mu_max(n) else 0  # mu_max raises for n < 0
