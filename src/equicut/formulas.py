"""Closed-form minimum-equicut values and the consecutive-block cut analysis.

For the d-th power of an n-cycle, the block X of floor(n/2) consecutive
vertices cuts exactly d(d+1) edges. With b = floor(n/2) and the block taken
as u_0..u_{b-1}, the per-vertex boundary counts |(u_j, X^c)| follow two case
tables, split on the parity of b:

b = 2k + 1 (mid-vertex u_k), writing l = d - k when d > k:
    j = k:        0 when d <= k, else 2l
    0 <= j < k:   d - j  when d <= k and j <= d
                  0      when d <= k and j > d
                  d - j  when d > k and j + d <= 2k
                  2l     when d > k and j + d >= 2k + 1
and the block cut assembles by the mirror symmetry about u_k:
    |(X, X^c)| = 2 * sum_{j<k} |(u_j, X^c)| + |(u_k, X^c)|.

b = 2k (mid-vertices u_{k-1}, u_k), writing l = d - (k - 1) when d >= k:
    0 <= j < k:   0      when d <= k - 1 and j >= d
                  d - j  when d <= k - 1 and j < d
                  d - j  when d >= k and j + d <= 2k - 1
                  2l - 1 when d >= k and j + d >= 2k
    |(X, X^c)| = 2 * sum_{j<k} |(u_j, X^c)|.

Both tables are implemented verbatim rather than algebraically collapsed:
the point of this module is checking the formulas against direct counts.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .graphs import GraphFamilySpec, make_cycle_power


def _check_block_range(n: int, d: int) -> int:
    """Validate 2 <= d < floor(n/2) (so the block analysis applies); return floor(n/2)."""
    if n < 5:
        raise InvalidInputError(f"block analysis needs n >= 5, got {n}")
    if not 2 <= d < n // 2:
        raise InvalidInputError(f"need 2 <= d < floor(n/2); got d={d}, n={n}")
    return n // 2


def block_params(n: int, d: int) -> tuple[str, int, int]:
    """Derive (parity_case, k, l) for the block tables: k = floor(b/2) in both
    cases, and l is 0 in the small-d regime."""
    b = _check_block_range(n, d)
    k = b // 2
    if b % 2 == 1:
        return "odd", k, d - k if d > k else 0
    return "even", k, d - (k - 1) if d > k - 1 else 0


def block_cut_value(n: int, d: int) -> int:
    """Size of the consecutive-block equicut of the d-th cycle power: d(d+1)."""
    _check_block_range(n, d)
    return d * (d + 1)


def boundary_count_direct(n: int, d: int, start: int, j: int) -> int:
    """|(u_{start+j}, X^c)| counted straight from circular distances.

    This is the independent check for boundary_count_closed_form: it never
    consults the case tables, only "which vertices outside the block are
    within distance d of position start+j". The loop visits only the n - b
    vertices outside the block, and the distance along the n-cycle is
    min(diff, n - diff) for diff the gap between the two labels.
    """
    b = _check_block_range(n, d)
    if not 0 <= start < n:
        raise InvalidInputError(f"start {start} out of range for n={n}")
    if not 0 <= j < b:
        raise InvalidInputError(f"block offset {j} out of range 0..{b - 1}")
    v = (start + j) % n
    count = 0
    for i in range(b, n):
        diff = abs(v - (start + i) % n)
        if 1 <= min(diff, n - diff) <= d:
            count += 1
    return count


def boundary_count_closed_form(n: int, d: int, j: int) -> int:
    """|(u_j, X^c)| for the block u_0..u_{floor(n/2)-1}, from the case tables.

    Valid for j on the near side of the mid-vertex: 0 <= j <= k in the odd
    case, 0 <= j <= k-1 in the even case (the far side mirrors these).
    """
    case, k, ell = block_params(n, d)
    if case == "odd":
        if not 0 <= j <= k:
            raise InvalidInputError(f"offset {j} outside 0..{k} for block size {n // 2}")
        if j == k:
            return 0 if d <= k else 2 * ell
        if d <= k:
            return d - j if j <= d else 0
        return d - j if j + d <= 2 * k else 2 * ell
    if not 0 <= j <= k - 1:
        raise InvalidInputError(f"offset {j} outside 0..{k - 1} for block size {n // 2}")
    if d <= k - 1:
        return d - j if j < d else 0
    return d - j if j + d <= 2 * k - 1 else 2 * ell - 1


def block_cut_sum_identity(n: int, d: int) -> tuple[int, int]:
    """(closed-form sum, directly counted block cut); both equal d(d+1).

    The closed-form side assembles the per-vertex counts through the block's
    mirror symmetry; the direct side evaluates the cut on the actual graph.
    """
    case, k, _ = block_params(n, d)
    assembled = 2 * sum(boundary_count_closed_form(n, d, j) for j in range(k))
    if case == "odd":
        assembled += boundary_count_closed_form(n, d, k)
    direct = make_cycle_power(n, d).cut_size((1 << (n // 2)) - 1)
    return assembled, direct


def known_rna(spec: GraphFamilySpec) -> int | None:
    """Proven minimum-equicut value for the family member, when one exists.

    Covered: cycles (2), complete graphs (floor(n/2)*ceil(n/2)), cycle powers
    with d >= floor(n/2) (complete collapse), d = 1 (cycle), d = 2 (6) and
    d = 3 (12). For 4 <= d < floor(n/2) nothing is returned: PROOF.md proves
    d(d+1) only for n >= d(d+1), and below that it is conjectured; the sweep
    reports those as findings.
    Specs no builder accepts (a cycle or cycle power with n < 3 or d < 1,
    a complete graph with n < 1) get nothing either.
    """
    n = spec.n
    if spec.family == "complete":
        return (n // 2) * ((n + 1) // 2) if n >= 1 else None
    if n < 3:
        return None
    if spec.family == "cycle":
        return 2
    if spec.family == "cycle_power":
        d = spec.d
        if d < 1:
            return None
        if d == 1:
            return known_rna(GraphFamilySpec("cycle", n))
        if d >= n // 2:
            return known_rna(GraphFamilySpec("complete", n))
        return d * (d + 1) if d in (2, 3) else None
    return None


def kang_upper_bound(n: int, m: int) -> int:
    """floor((2m + n) / 4): an equicut of at most this size always exists."""
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got {n}")
    if m < 0:
        raise InvalidInputError(f"need m >= 0, got {m}")
    return (2 * m + n) // 4
