import random

import pytest
from hypothesis import given, settings, strategies as st

from equicut import (
    Equicut,
    InvalidInputError,
    ParityLabeling,
    SignedGraph,
    equicut_size,
    graph_from_json_dict,
    is_balanced,
    is_parity_signed,
    make_complete,
    make_cycle,
    make_cycle_power,
    negative_edge_count,
    signature_from_labeling,
    switch_vertices,
)
from equicut.verify import random_connected_graph

from oracles import cut_size_edges


def random_labeling(rng, n):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return ParityLabeling(labels)


class TestParityLabeling:
    def test_parity_set_sizes(self):
        lab = ParityLabeling([3, 1, 4, 2, 5])
        assert lab.even_vertices() == (2, 3)

    def test_rejects_non_bijection(self):
        with pytest.raises(InvalidInputError):
            ParityLabeling([1, 3])
        with pytest.raises(InvalidInputError):
            ParityLabeling([1, 1, 2])

    def test_json_round_trip(self):
        lab = ParityLabeling([2, 1, 3])
        assert ParityLabeling.from_json_dict({"n": lab.n, "f": list(lab.f)}).f == lab.f


# Any parsed JSON document, with the keys the loaders read made likely.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=24,
)
_small = st.integers(-1, 4)
_permutations = st.integers(1, 4).flatmap(lambda n: st.permutations(range(1, n + 1)))
_json_documents = _json_values | st.fixed_dictionaries(
    {},
    optional={
        "n": _small | _json_values,
        "edges": st.lists(st.lists(_small, min_size=2, max_size=2) | _json_values, max_size=6),
        "f": _permutations | st.lists(_small | _json_values, max_size=4),
    },
)


@settings(max_examples=400, deadline=None)
@given(_json_documents)
def test_json_loaders_return_or_reject_any_document(data):
    for load in (graph_from_json_dict, ParityLabeling.from_json_dict):
        try:
            load(data)
        except InvalidInputError:
            pass


class TestSignature:
    def test_consecutive_labels_alternate(self):
        g = make_cycle(4)
        sg = signature_from_labeling(g, ParityLabeling([1, 2, 3, 4]))
        assert negative_edge_count(sg) == 4

    def test_block_labeling_on_c6(self):
        g = make_cycle(6)
        # odd labels on u_0..u_2, even labels on u_3..u_5
        sg = signature_from_labeling(g, ParityLabeling([1, 3, 5, 2, 4, 6]))
        assert sg.neg == {(2, 3), (0, 5)}
        assert negative_edge_count(sg) == 2

    def test_order_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            signature_from_labeling(make_complete(2), ParityLabeling([1, 2, 3]))

    def test_negative_count_matches_even_side_cut(self):
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(2, 12)
            g = random_connected_graph(rng, n)
            lab = random_labeling(rng, n)
            sg = signature_from_labeling(g, lab)
            cut = Equicut(n, lab.even_vertices())
            assert negative_edge_count(sg) == equicut_size(g, cut)

    def test_relabeling_within_parity_class_is_invariant(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(3, 10)
            g = random_connected_graph(rng, n)
            lab = random_labeling(rng, n)
            odd = [x for x in lab.f if x % 2 == 1]
            even = [x for x in lab.f if x % 2 == 0]
            rng.shuffle(odd)
            rng.shuffle(even)
            odd_iter, even_iter = iter(odd), iter(even)
            shuffled = [next(odd_iter) if x % 2 else next(even_iter) for x in lab.f]
            assert (
                signature_from_labeling(g, ParityLabeling(shuffled)).neg
                == signature_from_labeling(g, lab).neg
            )


class TestEquicut:
    def test_sizes_enforced(self):
        Equicut(5, (1, 3))
        with pytest.raises(InvalidInputError):
            Equicut(5, (1, 2, 3))
        with pytest.raises(InvalidInputError):
            Equicut(4, (1, 4))
        with pytest.raises(InvalidInputError):
            Equicut(4, (1, 1))

    @pytest.mark.parametrize("vertices", [(0, 1.5, 2), ("0", "1", "2"), (True, 2, 3)])
    def test_vertices_are_ints_not_coerced(self, vertices):
        # int() would turn each of these into a valid-looking cut.
        with pytest.raises(InvalidInputError):
            Equicut(6, vertices)

    def test_cut_size_examples(self):
        assert equicut_size(make_cycle(6), Equicut(6, (0, 1, 2))) == 2
        assert equicut_size(make_complete(5), Equicut(5, (0, 3))) == 6
        assert equicut_size(make_cycle_power(10, 2), Equicut(10, (0, 1, 2, 3, 4))) == 6

    def test_matches_edge_list_count(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(2, 12)
            g = random_connected_graph(rng, n)
            side = tuple(rng.sample(range(n), n // 2))
            cut = Equicut(n, side)
            assert equicut_size(g, cut) == cut_size_edges(g.edges(), side)

    def test_size_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            equicut_size(make_cycle(6), Equicut(8, (0, 1, 2, 3)))


class TestSwitching:
    def test_empty_and_full_sets_are_identity(self):
        sg = signature_from_labeling(make_cycle(5), ParityLabeling([1, 2, 3, 4, 5]))
        assert switch_vertices(sg, ()).neg == sg.neg
        assert switch_vertices(sg, range(5)).neg == sg.neg

    def test_boundary_edges_flip(self):
        sg = SignedGraph(make_cycle(4))
        switched = switch_vertices(sg, (0, 1))
        assert switched.neg == {(0, 3), (1, 2)}

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 10)
            g = random_connected_graph(rng, n)
            sg = signature_from_labeling(g, random_labeling(rng, n))
            subset = rng.sample(range(n), rng.randint(0, n))
            assert switch_vertices(switch_vertices(sg, subset), subset).neg == sg.neg

    def test_out_of_range_vertex(self):
        for vs in ((4,), (1.5,), (True,)):
            with pytest.raises(InvalidInputError):
                switch_vertices(SignedGraph(make_cycle(4)), vs)


class TestSignedGraph:
    @pytest.mark.parametrize("entry", [(-1, 0), (7, 0), (0, -1), (0, 1, 2), (1.0, 2), ("0", 1), 5, (True, 0)])
    def test_negative_edges_outside_the_vertex_range_are_rejected(self, entry):
        # Unchecked, negative indexing reads (-1, 0) as the edge (5, 0), True
        # is stored as vertex 1, and the others fail with IndexError,
        # TypeError or an unpacking error.
        with pytest.raises(InvalidInputError):
            SignedGraph(make_cycle(6), [entry])

    def test_has_edge_rejects_vertices_outside_the_graph(self):
        g = make_cycle(6)
        assert g.has_edge(5, 0) and not g.has_edge(0, 3)
        for u, v in ((-1, 0), (0, -1), (6, 0), (0, 6), (True, 0)):
            with pytest.raises(InvalidInputError):
                g.has_edge(u, v)


class TestBalance:
    def test_all_positive_is_balanced(self):
        assert is_balanced(SignedGraph(make_complete(6)))

    def test_single_negative_triangle_edge(self):
        sg = SignedGraph(make_cycle(3), [(0, 1)])
        assert not is_balanced(sg)

    def test_every_induced_signature_is_balanced(self):
        rng = random.Random(19)
        for _ in range(100):
            n = rng.randint(2, 11)
            g = random_connected_graph(rng, n)
            assert is_balanced(signature_from_labeling(g, random_labeling(rng, n)))


class TestParityRecognition:
    def test_induced_signatures_are_recognized_with_witness(self):
        rng = random.Random(37)
        for _ in range(80):
            n = rng.randint(2, 11)
            g = random_connected_graph(rng, n)
            sg = signature_from_labeling(g, random_labeling(rng, n))
            ok, witness = is_parity_signed(sg)
            assert ok
            assert len(witness.vertices) == n // 2
            assert switch_vertices(SignedGraph(g), witness.vertices).neg == sg.neg

    def test_single_negative_cycle_edge_is_not(self):
        ok, witness = is_parity_signed(SignedGraph(make_cycle(5), [(1, 2)]))
        assert not ok and witness is None

    def test_all_positive_even_cycle_is_not(self):
        ok, witness = is_parity_signed(SignedGraph(make_cycle(6)))
        assert not ok and witness is None

    def test_all_positive_single_vertex_is(self):
        ok, witness = is_parity_signed(SignedGraph(make_complete(1)))
        assert ok
        assert witness.vertices == ()

