"""Sign characters of the section spaces and the one-form count."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surface_lab import character_calculus
from surface_lab.affine_groups import AffineElement, standard_generators
from surface_lab.character_calculus import (
    UnsupportedTranslation,
    ZeroParameter,
    _mod2_actions,
    character_of_basis,
    coordinate_action,
    d_factor_branch_elements,
    invariant_dim,
    legendre_pair_space,
    one_forms_invariants,
    one_forms_space,
    pencil_fixed_parameters,
    pencil_invariant_count,
    pencil_spaces,
    tensor,
)
from surface_lab.orbifold_covers import (
    BranchedCoverData,
    cover_genus,
    fixed_point_count,
)

from oracles import compose


def C(pattern: str) -> tuple[int, ...]:
    """The character written as a +- string, one sign per generator, as
    its F_2 exponent tuple: 1 where the generator acts as -1."""
    return tuple(0 if c == "+" else 1 for c in pattern)


def dim(space: Counter) -> int:
    return sum(space.values())


def four_gen_actions(coord):
    gens = standard_generators().generators[:4]
    return [coordinate_action(g, coord) for g in gens]


class TestSignCharacter:
    def test_string_round_trip(self):
        assert C("+-+") == (0, 1, 0)

    def test_multiplication_and_values(self):
        assert tensor([Counter([C("+-")]), Counter([C("--")])]) == {C("-+"): 1}
        # the value on a word, read through the invariant dimension
        assert invariant_dim(Counter([C("+--+")]), [(0, 1, 1, 0)]) == 1
        assert invariant_dim(Counter([C("+--+")]), [(0, 1, 0, 0)]) == 0
        assert invariant_dim(Counter([C("+--+")]), [(2, 3, -1, 0)]) == 1
        with pytest.raises(ValueError):
            tensor([Counter([C("+-")]), Counter([C("+--")])])
        with pytest.raises(ValueError):
            invariant_dim(Counter([C("+-")]), [(0, 1, 0)])

    def test_graded_space_validation(self):
        # characters of different lengths in one space meet a mismatch
        with pytest.raises(ValueError):
            tensor([Counter([C("++"), C("+++")]), Counter([C("++")])])
        # a zero multiplicity is dropped
        assert tensor([Counter({C("++"): 0})]) == {}


class TestCharacterOfBasis:
    def test_section_pair_characters_of_the_three_factors(self):
        assert character_of_basis(four_gen_actions(0)) == C("-+-+")
        assert character_of_basis(four_gen_actions(1)) == C("--++")
        assert character_of_basis(four_gen_actions(2)) == C("+--+")

    def test_identity_generator_gives_plus(self):
        g4 = standard_generators().generators[3]
        assert character_of_basis([coordinate_action(g4, 0)]) == C("+")

    def test_sign_of_linear_part_is_irrelevant(self):
        assert character_of_basis([(-1, 0)]) == C("+")
        assert character_of_basis([(-1, 1)]) == C("-")
        assert character_of_basis([(1, (1, 0))]) == C("-")

    def test_tau_half_translation_rejected(self):
        g5 = standard_generators().generators[4]
        with pytest.raises(UnsupportedTranslation):
            character_of_basis([coordinate_action(g5, 0)])

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            character_of_basis([(2, 0)])


class TestTensor:
    def test_pencil_decomposition_four_blocks_of_two(self):
        total = tensor(pencil_spaces())
        assert total == {
            C("++++"): 2,
            C("+--+"): 2,
            C("--++"): 2,
            C("-+-+"): 2,
        }
        assert dim(total) == 8

    def test_tensor_with_trivial_is_identity(self):
        v = legendre_pair_space(four_gen_actions(0))
        one = Counter([C("++++")])
        assert tensor([v, one]) == v

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_total_dimension_multiplies(self, data):
        k = data.draw(st.integers(min_value=1, max_value=3))
        spaces = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            comps = Counter()
            for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
                chi = tuple(data.draw(st.sampled_from((0, 1))) for _ in range(k))
                comps[chi] += data.draw(st.integers(min_value=1, max_value=3))
            spaces.append(comps)
        product_dim = 1
        for s in spaces:
            product_dim *= dim(s)
        assert dim(tensor(spaces)) == product_dim


class TestInvariantDim:
    FULL4 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]

    def test_three_factor_invariants(self):
        total = tensor(pencil_spaces())
        assert invariant_dim(total, self.FULL4) == 2
        assert invariant_dim(total, []) == dim(total) == 8

    def test_two_factor_case_on_three_generators(self):
        # three involutions on the elliptic square: negation of the first
        # coordinate, negation of the second, simultaneous half-shift
        actions_z1 = [[(-1, 0)], [(1, 0)], [(1, 1)]]
        actions_z2 = [[(1, 0)], [(-1, 0)], [(1, 1)]]
        v1 = legendre_pair_space([a[0] for a in actions_z1])
        v2 = legendre_pair_space([a[0] for a in actions_z2])
        assert v1 == {C("+++"): 1, C("++-"): 1}
        assert v2 == {C("+++"): 1, C("++-"): 1}
        pair = tensor([v1, v2])
        assert invariant_dim(pair, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 2
        assert invariant_dim(pair, []) == 4

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_subgroup_growth(self, data):
        total = tensor(pencil_spaces())
        small = data.draw(
            st.lists(st.sampled_from(self.FULL4), max_size=2, unique=True)
        )
        big = small + data.draw(
            st.lists(st.sampled_from(self.FULL4), max_size=2, unique=True)
        )
        assert invariant_dim(total, big) <= invariant_dim(total, small)


class TestBranchElements:
    def test_derived_branch_set(self):
        assert set(d_factor_branch_elements()) == {
            (0, 1, 0, 0),
            (0, 1, 0, 1),
            (0, 0, 1, 1),
            (1, 1, 0, 0),
            (1, 1, 1, 0),
        }

    def test_consistency_with_cover_machinery(self):
        elements = d_factor_branch_elements()
        data = BranchedCoverData(4, elements)
        assert cover_genus(data) == 5
        for v in elements:
            assert fixed_point_count(data, v) == 8

    def test_three_elements_avoid_the_first_generator(self):
        elements = d_factor_branch_elements()
        assert sum(1 for v in elements if v[0] == 0) == 3

    def test_mod2_actions_match_composed_elements(self):
        # each word's element composed left to right with the oracle
        # compose, its action read off on the curve coordinates 2 and 3
        gens = standard_generators().generators[1:]
        actions = _mod2_actions()
        assert len(actions) == 16
        for word, action in actions.items():
            element = AffineElement((1, 1, 1, 1), (0,) * 8)
            for g, e in zip(gens, word):
                if e:
                    element = compose(element, g)
            assert action == tuple(
                (element.sign_at(c), element.trans[c] % 2, element.trans[4 + c] % 2)
                for c in (2, 3)
            ), word

    def test_wrong_genus_raises(self, monkeypatch):
        # a raised error, not an assert statement, so python -O keeps it
        monkeypatch.setattr(character_calculus, "cover_genus", lambda data: 4)
        with pytest.raises(AssertionError, match="genus 4"):
            d_factor_branch_elements()


class TestOneForms:
    def test_character_inventory(self):
        space = one_forms_space()
        assert dim(space) == 7
        assert len(space) == 7
        assert all(m == 1 for m in space.values())
        assert space.get(C("-++++")) == 1  # first coordinate form
        assert space.get(C("+-+++")) == 1  # second coordinate form
        assert C("+++++") not in space

    def test_full_group_has_no_invariants(self):
        assert one_forms_invariants() == 0

    def test_index_two_subgroups_with_one_invariant(self):
        e = [tuple(1 if i == j else 0 for i in range(5)) for j in range(5)]
        assert invariant_dim(one_forms_space(), [e[1], e[2], e[3], e[4]]) == 1
        assert invariant_dim(one_forms_space(), [e[0], e[2], e[3], e[4]]) == 1

    def test_trivial_subgroup_sees_everything(self):
        assert invariant_dim(one_forms_space(), []) == 7


class TestPencilInvariants:
    def test_two_fixed_members(self):
        assert pencil_invariant_count(4.0) == 2
        assert pencil_invariant_count(-1 + 2j) == 2

    def test_fixed_parameters_square_to_the_product(self):
        c1, c2 = pencil_fixed_parameters(3 - 4j)
        assert abs(c1 * c1 - (3 - 4j)) < 1e-12
        assert c2 == -c1

    def test_zero_parameter_rejected(self):
        with pytest.raises(ZeroParameter):
            pencil_invariant_count(0.0)

    @given(
        st.complex_numbers(
            min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_always_two(self, a):
        assert pencil_invariant_count(a) == 2
