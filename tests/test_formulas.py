import pytest

from equicut import (
    Equicut,
    GraphFamilySpec,
    InvalidInputError,
    block_cut_sum_identity,
    block_cut_value,
    block_params,
    boundary_count_closed_form,
    boundary_count_direct,
    equicut_size,
    kang_upper_bound,
    known_rna,
    make_cycle_power,
    rna_exhaustive,
)


class TestKnownValues:
    def test_complete(self):
        assert known_rna(GraphFamilySpec("complete", 9)) == 20
        assert known_rna(GraphFamilySpec("complete", 2)) == 1

    def test_cycle(self):
        assert known_rna(GraphFamilySpec("cycle", 3)) == 2
        assert known_rna(GraphFamilySpec("cycle", 17)) == 2

    def test_cycle_powers(self):
        assert known_rna(GraphFamilySpec("cycle_power", 20, d=2)) == 6
        assert known_rna(GraphFamilySpec("cycle_power", 9, d=3)) == 12
        assert known_rna(GraphFamilySpec("cycle_power", 10, d=1)) == 2
        # d >= floor(n/2) collapses to the complete graph
        assert known_rna(GraphFamilySpec("cycle_power", 12, d=6)) == 36
        assert known_rna(GraphFamilySpec("cycle_power", 7, d=3)) == 12

    def test_conjectured_range_returns_nothing(self):
        assert known_rna(GraphFamilySpec("cycle_power", 12, d=5)) is None
        assert known_rna(GraphFamilySpec("cycle_power", 11, d=4)) is None

    def test_complete_outside_builder_range(self):
        assert known_rna(GraphFamilySpec("complete", 1)) == 0
        assert known_rna(GraphFamilySpec("complete", 0)) is None

    def test_cycle_outside_builder_range(self):
        for n in (-1, 0, 1, 2):
            assert known_rna(GraphFamilySpec("cycle", n)) is None

    def test_cycle_power_outside_builder_range(self):
        assert known_rna(GraphFamilySpec("cycle_power", 2, d=1)) is None
        assert known_rna(GraphFamilySpec("cycle_power", 1, d=3)) is None
        assert known_rna(GraphFamilySpec("cycle_power", 10, d=0)) is None
        assert known_rna(GraphFamilySpec("cycle_power", 10, d=-2)) is None
        assert known_rna(GraphFamilySpec("cycle_power", 3, d=1)) == 2

    def test_circulants_not_covered(self):
        assert known_rna(GraphFamilySpec("circulant", 9, jumps=(1, 2))) is None

    def test_agrees_with_exact_solver_where_defined(self):
        for spec in (
            GraphFamilySpec("cycle", 9),
            GraphFamilySpec("complete", 8),
            GraphFamilySpec("cycle_power", 11, d=2),
            GraphFamilySpec("cycle_power", 12, d=3),
            GraphFamilySpec("cycle_power", 9, d=4),
        ):
            want = known_rna(spec)
            assert want is not None
            assert rna_exhaustive(spec.build()).value == want


class TestBlockCutValue:
    @pytest.mark.parametrize("n,d,value", [(13, 2, 6), (16, 3, 12), (20, 7, 56)])
    def test_values(self, n, d, value):
        assert block_cut_value(n, d) == value

    def test_equals_direct_block_cut(self):
        for n, d in [(13, 2), (16, 3), (20, 7), (15, 6)]:
            g = make_cycle_power(n, d)
            cut = Equicut(n, tuple(range(n // 2)))
            assert block_cut_value(n, d) == equicut_size(g, cut)

    def test_range_validation(self):
        with pytest.raises(InvalidInputError):
            block_cut_value(10, 5)
        with pytest.raises(InvalidInputError):
            block_cut_value(10, 1)
        with pytest.raises(InvalidInputError):
            block_cut_value(4, 2)


class TestBoundaryCounts:
    def test_odd_block_examples(self):
        # n=14: block size 7 = 2k+1 with k=3
        assert boundary_count_direct(14, 2, 0, 0) == 2
        assert boundary_count_direct(14, 2, 0, 3) == 0  # mid-vertex, small d
        assert boundary_count_direct(14, 5, 0, 3) == 4  # mid-vertex, d = k + 2

    def test_closed_form_examples(self):
        assert boundary_count_closed_form(14, 2, 1) == 1  # d - j
        # block size 8 = 2k with k=4, d=5=(k-1)+2: saturated branch gives 2l-1
        assert boundary_count_closed_form(16, 5, 3) == 3

    def test_closed_form_matches_direct_everywhere(self):
        for n in range(5, 41):
            b = n // 2
            for d in range(2, b):
                near = (b - 1) // 2 if b % 2 == 1 else b // 2 - 1
                for j in range(near + 1):
                    assert boundary_count_closed_form(n, d, j) == boundary_count_direct(
                        n, d, 0, j
                    ), (n, d, j)

    def test_mirror_symmetry_about_mid_vertex(self):
        for n in (14, 15, 22, 23):
            b = n // 2
            for d in range(2, b):
                if b % 2 == 1:
                    k = (b - 1) // 2
                    for i in range(1, k + 1):
                        assert boundary_count_direct(n, d, 0, k - i) == boundary_count_direct(
                            n, d, 0, k + i
                        )
                else:
                    k = b // 2
                    for j in range(k):
                        assert boundary_count_direct(n, d, 0, k - 1 - j) == boundary_count_direct(
                            n, d, 0, k + j
                        )

    def test_start_translation_invariance(self):
        for start in range(17):
            total = sum(boundary_count_direct(17, 3, start, j) for j in range(8))
            assert total == sum(boundary_count_direct(17, 3, 0, j) for j in range(8))

    def test_offset_range_enforced(self):
        with pytest.raises(InvalidInputError):
            boundary_count_direct(14, 2, 0, 7)
        with pytest.raises(InvalidInputError):
            boundary_count_closed_form(14, 2, 4)  # beyond the mid-vertex
        with pytest.raises(InvalidInputError):
            boundary_count_closed_form(16, 2, 4)


class TestSumIdentity:
    @pytest.mark.parametrize("n,d,value", [(14, 4, 20), (16, 2, 6), (21, 6, 42)])
    def test_examples(self, n, d, value):
        assembled, direct = block_cut_sum_identity(n, d)
        assert assembled == direct == value

    def test_identity_holds_broadly(self):
        for n in range(5, 36):
            for d in range(2, n // 2):
                assembled, direct = block_cut_sum_identity(n, d)
                assert assembled == direct == d * (d + 1), (n, d)


class TestBlockParams:
    def test_parity_cases(self):
        assert block_params(14, 2) == ("odd", 3, 0)
        assert block_params(14, 5) == ("odd", 3, 2)
        assert block_params(16, 5) == ("even", 4, 2)
        assert block_params(16, 3) == ("even", 4, 0)


class TestKangBound:
    @pytest.mark.parametrize("n,m,value", [(6, 6, 4), (12, 24, 15), (5, 10, 6)])
    def test_values(self, n, m, value):
        assert kang_upper_bound(n, m) == value

    def test_block_value_never_exceeds_it(self):
        for n in range(6, 61):
            for d in range(2, n // 2):
                assert block_cut_value(n, d) <= kang_upper_bound(n, n * d)

    def test_holds_on_solved_instances(self):
        for n, d in [(9, 2), (11, 3), (10, 4), (13, 5)]:
            g = make_cycle_power(n, d)
            assert rna_exhaustive(g).value <= kang_upper_bound(g.n, g.m)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            kang_upper_bound(0, 3)
        with pytest.raises(InvalidInputError):
            kang_upper_bound(3, -1)
