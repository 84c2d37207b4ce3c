"""Sign characters of the section spaces and the one-form count."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surface_lab import character_calculus
from surface_lab.affine_groups import standard_generators
from surface_lab.character_calculus import (
    GradedSpace,
    SignCharacter,
    UnsupportedTranslation,
    ZeroParameter,
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

def C(pattern: str) -> SignCharacter:
    """The character written as a +- string, one sign per generator."""
    return SignCharacter(tuple(1 if c == "+" else -1 for c in pattern))


def dim(space: GradedSpace) -> int:
    return sum(space.components.values())


def four_gen_actions(coord):
    gens = standard_generators().generators[:4]
    return [coordinate_action(g, coord) for g in gens]


class TestSignCharacter:
    def test_string_round_trip(self):
        chi = C("+-+")
        assert chi.signs == (1, -1, 1)

    def test_multiplication_and_values(self):
        assert C("+-") * C("--") == C("-+")
        assert C("+--+").value_on((0, 1, 1, 0)) == 1
        assert C("+--+").value_on((0, 1, 0, 0)) == -1
        with pytest.raises(ValueError):
            C("+-") * C("+--")
        with pytest.raises(ValueError):
            SignCharacter((1, 2))

    def test_graded_space_validation(self):
        with pytest.raises(ValueError):
            GradedSpace({C("++"): -1})
        with pytest.raises(ValueError):
            GradedSpace({C("++"): 1, C("+++"): 1})
        assert dim(GradedSpace.of({C("++"): 0})) == 0


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
        assert total.components == {
            C("++++"): 2,
            C("+--+"): 2,
            C("--++"): 2,
            C("-+-+"): 2,
        }
        assert dim(total) == 8

    def test_tensor_with_trivial_is_identity(self):
        v = legendre_pair_space(four_gen_actions(0))
        one = GradedSpace({SignCharacter.trivial(4): 1})
        assert tensor([v, one]) == v

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_total_dimension_multiplies(self, data):
        k = data.draw(st.integers(min_value=1, max_value=3))
        spaces = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            comps = {}
            for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
                signs = tuple(
                    data.draw(st.sampled_from((1, -1))) for _ in range(k)
                )
                comps[SignCharacter(signs)] = comps.get(
                    SignCharacter(signs), 0
                ) + data.draw(st.integers(min_value=1, max_value=3))
            spaces.append(GradedSpace.of(comps))
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
        assert v1.components == {C("+++"): 1, C("++-"): 1}
        assert v2.components == {C("+++"): 1, C("++-"): 1}
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

    def test_wrong_genus_raises(self, monkeypatch):
        # a raised error, not an assert statement, so python -O keeps it
        monkeypatch.setattr(character_calculus, "cover_genus", lambda data: 4)
        with pytest.raises(AssertionError, match="genus 4"):
            d_factor_branch_elements()


class TestOneForms:
    def test_character_inventory(self):
        space = one_forms_space()
        assert dim(space) == 7
        assert len(space.components) == 7
        assert all(m == 1 for m in space.components.values())
        assert space.components.get(C("-++++")) == 1  # first coordinate form
        assert space.components.get(C("+-+++")) == 1  # second coordinate form
        assert SignCharacter.trivial(5) not in space.components

    def test_full_group_has_no_invariants(self):
        assert one_forms_invariants() == 0

    def test_index_two_subgroups_with_one_invariant(self):
        e = [tuple(1 if i == j else 0 for i in range(5)) for j in range(5)]
        assert one_forms_invariants([e[1], e[2], e[3], e[4]]) == 1
        assert one_forms_invariants([e[0], e[2], e[3], e[4]]) == 1

    def test_trivial_subgroup_sees_everything(self):
        assert one_forms_invariants([]) == 7


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
