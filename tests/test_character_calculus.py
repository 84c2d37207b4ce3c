"""Sign characters of the section spaces and the one-form count."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surface_lab import character_calculus, checks
from surface_lab.affine_groups import standard_generators
from surface_lab.character_calculus import (
    UnsupportedTranslation,
    ZeroParameter,
    _branch_dual_characters,
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
from surface_lab.orbifold_covers import cover_genus, fixed_point_count

from oracles import (
    branch_dual_candidates,
    branch_words_by_composition,
    compose,
    mod2_actions_by_composition,
    random_cover_data,
    random_generators,
    standard_cover_data,
)


def C(pattern: str) -> tuple[int, ...]:
    """The character written as a +- string, one sign per generator, as
    its F_2 exponent tuple: 1 where the generator acts as -1."""
    return tuple(0 if c == "+" else 1 for c in pattern)


def dim(space: Counter) -> int:
    return sum(space.values())


GENS = standard_generators()


def four_gen_actions(coord):
    return [coordinate_action(g, coord) for g in GENS[:4]]


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
        assert character_of_basis([coordinate_action(GENS[3], 0)]) == C("+")

    def test_sign_of_linear_part_is_irrelevant(self):
        # an action is read as its translation alone: g1 negates the first
        # coordinate and g3 fixes it, and both shift it by an e-half
        g1, _, g3, _, _ = GENS
        assert (g1.sign_at(0), g3.sign_at(0)) == (-1, 1)
        assert coordinate_action(g1, 0) == coordinate_action(g3, 0) == (1, 0)
        assert character_of_basis([(1, 0), (3, 2), (0, 0), (2, 0)]) == C("--++")

    def test_tau_half_translation_rejected(self):
        with pytest.raises(UnsupportedTranslation):
            character_of_basis([coordinate_action(GENS[4], 0)])
        with pytest.raises(UnsupportedTranslation):
            character_of_basis([(0, 0), (1, 1)])


class TestTensor:
    def test_pencil_decomposition_four_blocks_of_two(self):
        total = tensor(pencil_spaces(GENS))
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
        total = tensor(pencil_spaces(GENS))
        assert invariant_dim(total, self.FULL4) == 2
        assert invariant_dim(total, []) == dim(total) == 8

    def test_two_factor_case_on_three_generators(self):
        # three involutions on the elliptic square: negation of the first
        # coordinate, negation of the second, simultaneous half-shift; on
        # either coordinate they translate by (0, 0), (0, 0) and (1, 0)
        v = legendre_pair_space([(0, 0), (0, 0), (1, 0)])
        assert v == {C("+++"): 1, C("++-"): 1}
        pair = tensor([v, v])
        assert invariant_dim(pair, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 2
        assert invariant_dim(pair, []) == 4

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_subgroup_growth(self, data):
        total = tensor(pencil_spaces(GENS))
        small = data.draw(
            st.lists(st.sampled_from(self.FULL4), max_size=2, unique=True)
        )
        big = small + data.draw(
            st.lists(st.sampled_from(self.FULL4), max_size=2, unique=True)
        )
        assert invariant_dim(total, big) <= invariant_dim(total, small)


class TestBranchElements:
    def test_derived_branch_set(self):
        assert set(d_factor_branch_elements(GENS).branch_images) == {
            (0, 1, 0, 0),
            (0, 1, 0, 1),
            (0, 0, 1, 1),
            (1, 1, 0, 0),
            (1, 1, 1, 0),
        }

    def test_consistency_with_cover_machinery(self):
        data = d_factor_branch_elements(GENS)
        assert data.n == 4 and len(data.branch_images) == 5
        assert cover_genus(data) == 5
        for v in data.branch_images:
            assert fixed_point_count(data, v) == 8

    def test_three_elements_avoid_the_first_generator(self):
        elements = d_factor_branch_elements(GENS).branch_images
        assert sum(1 for v in elements if v[0] == 0) == 3

    def test_mod2_actions_match_composed_elements(self):
        # each word's element composed left to right with the oracle
        # compose, its action read off on the curve coordinates 2 and 3
        actions = _mod2_actions(GENS)
        assert len(actions) == 16
        assert list(actions.items()) == list(mod2_actions_by_composition(GENS).items())

    def test_mod2_actions_with_a_redundant_generator(self):
        # g1 g2 adds a letter whose words repeat the others' actions
        gens = (*GENS, compose(GENS[0], GENS[1]))
        actions = _mod2_actions(gens)
        assert len(actions) == 32
        assert list(actions.items()) == list(mod2_actions_by_composition(gens).items())
        assert actions[(1, 0, 0, 0, 1)] == actions[(0, 0, 0, 0, 0)]

    @pytest.mark.parametrize("seed", range(12))
    def test_mod2_actions_on_random_generators(self, seed):
        rng = random.Random(seed)
        gens = random_generators(rng, rng.randint(1, 6))
        actions = _mod2_actions(gens)
        assert list(actions.items()) == list(mod2_actions_by_composition(gens).items())

    @pytest.mark.parametrize("seed", range(40))
    def test_branch_words_on_random_generators(self, seed, monkeypatch):
        # the words alone: random generators rarely give valid branch data
        rng = random.Random(seed)
        gens = random_generators(rng, rng.randint(2, 6))
        monkeypatch.setattr(character_calculus, "BranchedCoverData", lambda n, words: words)
        assert d_factor_branch_elements(gens) == branch_words_by_composition(gens)

    @pytest.mark.parametrize("seed", range(40))
    def test_branch_duals_match_the_tuple_oracle(self, seed):
        rng = random.Random(seed)
        cover = random_cover_data(rng, seed % 5 + 1)
        candidates = branch_dual_candidates(cover)
        wrong = [(j, len(c)) for j, c in enumerate(candidates) if len(c) != 1]
        if wrong:
            j, count = wrong[0]
            with pytest.raises(ValueError, match=f"^branch {j} has {count} dual functionals"):
                _branch_dual_characters(cover)
        else:
            assert _branch_dual_characters(cover) == [c[0] for c in candidates]

    def test_branch_duals_of_the_standard_covers(self):
        # the parities of a functional on the images sum to its value on
        # their sum, 0, so duals need an odd number of images: the generic
        # cover has them for even n, and the run's cover (5 images) too
        for cover in (*map(standard_cover_data, (2, 4, 6)), d_factor_branch_elements(GENS)):
            assert _branch_dual_characters(cover) == [c for [c] in branch_dual_candidates(cover)]

    def test_wrong_genus_fails_hurwitz_genus5(self, monkeypatch):
        # the builder does not judge the genus; the claims table does
        monkeypatch.setattr(checks, "cover_genus", lambda data: 4)
        [result] = checks.run(checks.RunConfig(checks=("hurwitz_genus5",), taus=()))
        assert (result.status, result.actual) == ("fail", "genus 4")


class TestOneForms:
    def test_character_inventory(self):
        space = one_forms_space(d_factor_branch_elements(GENS), GENS)
        assert dim(space) == 7
        assert len(space) == 7
        assert all(m == 1 for m in space.values())
        assert space.get(C("-++++")) == 1  # first coordinate form
        assert space.get(C("+-+++")) == 1  # second coordinate form
        assert C("+++++") not in space

    def test_full_group_has_no_invariants(self):
        assert one_forms_invariants(one_forms_space(d_factor_branch_elements(GENS), GENS)) == 0

    def test_index_two_subgroups_with_one_invariant(self):
        e = [tuple(1 if i == j else 0 for i in range(5)) for j in range(5)]
        space = one_forms_space(d_factor_branch_elements(GENS), GENS)
        assert invariant_dim(space, [e[1], e[2], e[3], e[4]]) == 1
        assert invariant_dim(space, [e[0], e[2], e[3], e[4]]) == 1

    def test_trivial_subgroup_sees_everything(self):
        assert invariant_dim(one_forms_space(d_factor_branch_elements(GENS), GENS), []) == 7


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
