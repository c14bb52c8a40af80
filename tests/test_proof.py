"""Lemmas W and R of PROOF.md on cyclic two-colourings of C_n^d.

A colouring is a bitmask (bit i set: vertex i on side A). Lemma W: if both
sides have a d-run, the cut is at least d(d+1). Lemma R: a side X with no
d-run has cut at least 2|X|. These tests use neither the package's graphs
nor its solvers.
"""

from hypothesis import given, settings, strategies as st


def check_lemmas(n, d, cut, size_a, run_a, run_b):
    """The failed lemma for one colouring, or None."""
    if run_a and run_b and cut < d * (d + 1):
        return f"W: n={n} d={d} cut {cut}"
    if not run_a and cut < 2 * size_a:
        return f"R: n={n} d={d} cut {cut} < 2*{size_a}"
    if not run_b and cut < 2 * (n - size_a):
        return f"R: n={n} d={d} cut {cut} < 2*{n - size_a}"
    return None


def all_colourings(n):
    """Yield (d, mask, cut, run_a, run_b) for every proper nonempty subset
    and 2 <= d < floor(n/2), with rotations carried from d to d+1."""
    full = (1 << n) - 1
    for mask in range(1, full):
        comp = full ^ mask
        cut = 0
        run_a, run_b = mask, comp  # positions starting a run of length j
        for j in range(1, n // 2):
            rot = ((mask >> j) | (mask << (n - j))) & full
            cut += (mask ^ rot).bit_count()  # edges {i, i+j} with ends on both sides
            if j >= 2:
                yield j, mask, cut, run_a != 0, run_b != 0
            run_a &= rot
            run_b &= full ^ rot


def test_lemmas_on_every_colouring_up_to_14():
    cases = 0
    failures = []
    best = {}  # (n, d) -> least cut over equicuts
    for n in range(5, 15):
        for d, mask, cut, run_a, run_b in all_colourings(n):
            cases += 1
            size_a = mask.bit_count()
            failure = check_lemmas(n, d, cut, size_a, run_a, run_b)
            if failure:
                failures.append(failure)
            if size_a in (n // 2, (n + 1) // 2):
                best[(n, d)] = min(best.get((n, d), cut), cut)
    assert cases == 141_966
    assert failures == []
    for (n, d), value in best.items():
        # the theorem where it applies, the lemmas' bound below it
        if n >= d * (d + 1):
            assert value == d * (d + 1), (n, d)
        else:
            assert min(d * (d + 1), 2 * (n // 2)) <= value <= d * (d + 1), (n, d)


def naive_cut(sides, d):
    n = len(sides)
    return sum(sides[i] != sides[(i + j) % n] for i in range(n) for j in range(1, d + 1))


def has_run(sides, d, side):
    n = len(sides)
    return any(all(sides[(i + k) % n] == side for k in range(d)) for i in range(n))


def test_bitmask_cut_matches_edge_count():
    for n in (9, 11):
        for d, mask, cut, run_a, run_b in all_colourings(n):
            sides = [bool(mask >> i & 1) for i in range(n)]
            assert cut == naive_cut(sides, d)
            assert (run_a, run_b) == (has_run(sides, d, True), has_run(sides, d, False))


def from_runs(lengths):
    """Alternating runs A, B, A, ... of the given lengths."""
    return [k % 2 == 0 for k, length in enumerate(lengths) for _ in range(length)]


colourings = st.one_of(
    st.lists(st.booleans(), min_size=5, max_size=60),
    st.lists(st.integers(1, 15), min_size=1, max_size=30).map(from_runs).map(lambda s: s[:60]),
).filter(lambda s: len(s) >= 5)


@settings(max_examples=200, deadline=None)
@given(colourings, st.data())
def test_lemmas_on_strings_up_to_60(sides, data):
    n = len(sides)
    d = data.draw(st.integers(2, (n - 1) // 2), label="d")  # n >= 2d+1
    failure = check_lemmas(
        n, d, naive_cut(sides, d), sum(sides), has_run(sides, d, True), has_run(sides, d, False)
    )
    assert failure is None
