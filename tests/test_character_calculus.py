"""Sign characters of the section spaces and the one-form count."""

import random
from collections import Counter
from functools import reduce
from itertools import compress, product
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surface_lab import character_calculus, checks
from surface_lab.affine_groups import actions_mod2, span_mod2, standard_generators
from surface_lab.character_calculus import (
    UnsupportedTranslation,
    ZeroParameter,
    _branch_dual_characters,
    character_of_basis,
    curve_span,
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
from surface_lab.integer_algebra import _mask
from surface_lab.orbifold_covers import cover_genus, fixed_point_count

from oracles import (
    branch_dual_candidates,
    branch_words_by_composition,
    character_of_basis_by_entries,
    compose,
    fixed_point_count_by_entries,
    invariant_dim_by_entries,
    mod2_actions_by_composition,
    pairings_by_entries,
    random_cover_data,
    random_generators,
    spanning_letters,
    standard_cover_data,
    tensor_by_entries,
    unmask,
)


def C(pattern: str) -> int:
    """The character written as a +- string, one sign per generator, as
    its F_2 exponent mask: the generator's bit is set where it acts as -1."""
    return _mask([c == "-" for c in pattern])


def dim(space: Counter) -> int:
    return sum(space.values())


GENS = standard_generators()
ACTIONS = actions_mod2(GENS)
CURVE = curve_span(ACTIONS)
COVER = d_factor_branch_elements(CURVE)


def decoded(action: int, n: int = 4) -> tuple[tuple[int, int, int], ...]:
    """An actions_mod2 int as (sign, e-halves, tau-halves) per coordinate."""
    return tuple(
        (1 - 2 * (action >> 3 * c & 1), action >> 3 * c + 1 & 1, action >> 3 * c + 2 & 1)
        for c in range(n)
    )


def halves(action: int, coord: int) -> tuple[int, int]:
    """The (e-halves, tau-halves) parities of an action on one coordinate."""
    return decoded(action)[coord][1:]


def four_gen_actions(coord):
    return [halves(a, coord) for a in ACTIONS[:4]]


class TestSignCharacter:
    def test_string_round_trip(self):
        assert C("+-+") == 0b010
        assert C("-++++") == 0b10000

    def test_multiplication_and_values(self):
        assert tensor([Counter([C("+-")]), Counter([C("--")])]) == {C("-+"): 1}
        # the value on a word, read through the invariant dimension
        assert invariant_dim(Counter([C("+--+")]), [0b0110]) == 1
        assert invariant_dim(Counter([C("+--+")]), [0b0100]) == 0
        assert invariant_dim(Counter([C("+--+")]), [0b1111]) == 1
        assert invariant_dim(Counter([C("+--+")]), [0b0011]) == 0

    def test_graded_space_validation(self):
        # a mask carries no length, so only the empty product is refused
        with pytest.raises(ValueError):
            tensor([])
        # a zero multiplicity is dropped
        assert tensor([Counter({C("++"): 0})]) == {}


class TestCharacterOfBasis:
    def test_section_pair_characters_of_the_three_factors(self):
        assert character_of_basis(four_gen_actions(0)) == C("-+-+")
        assert character_of_basis(four_gen_actions(1)) == C("--++")
        assert character_of_basis(four_gen_actions(2)) == C("+--+")

    def test_identity_generator_gives_plus(self):
        assert character_of_basis([halves(ACTIONS[3], 0)]) == C("+")

    def test_sign_of_linear_part_is_irrelevant(self):
        # an action is read as its translation alone: g1 negates the first
        # coordinate and g3 fixes it, and both shift it by an e-half
        assert (GENS[0].signs[0], GENS[2].signs[0]) == (-1, 1)
        assert halves(ACTIONS[0], 0) == halves(ACTIONS[2], 0) == (1, 0)
        assert character_of_basis([(1, 0), (3, 2), (0, 0), (2, 0)]) == C("--++")

    def test_tau_half_translation_rejected(self):
        with pytest.raises(UnsupportedTranslation):
            character_of_basis([halves(ACTIONS[4], 0)])
        with pytest.raises(UnsupportedTranslation):
            character_of_basis([(0, 0), (1, 1)])
        # wherever it stands among even ones
        for k in range(4):
            with pytest.raises(UnsupportedTranslation):
                character_of_basis([(1, 0)] * k + [(0, 1)] + [(1, 0)] * (3 - k))


class TestTensor:
    def test_pencil_decomposition_four_blocks_of_two(self):
        total = tensor(pencil_spaces(ACTIONS))
        assert total == {
            C("++++"): 2,
            C("+--+"): 2,
            C("--++"): 2,
            C("-+-+"): 2,
        }
        assert dim(total) == 8

    def test_pencil_rejects_a_tau_half_among_the_first_four(self):
        # g5 translates coordinates 1..3 by tau-halves; the pencil reads the
        # tau-half parity bit itself, not the next coordinate's sign bit
        with pytest.raises(UnsupportedTranslation):
            pencil_spaces(actions_mod2((*GENS[:3], GENS[4])))

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
                chi = data.draw(st.integers(0, (1 << k) - 1))
                comps[chi] += data.draw(st.integers(min_value=1, max_value=3))
            spaces.append(comps)
        product_dim = 1
        for s in spaces:
            product_dim *= dim(s)
        assert dim(tensor(spaces)) == product_dim


class TestInvariantDim:
    FULL4 = [0b1000, 0b0100, 0b0010, 0b0001]

    def test_three_factor_invariants(self):
        total = tensor(pencil_spaces(ACTIONS))
        assert invariant_dim(total, self.FULL4) == 2
        assert invariant_dim(total, []) == dim(total) == 8

    def test_words_after_a_negating_word_go_unread(self):
        # any() stops at the first word that negates chi: a later word that
        # is not a mask is read only for characters the earlier ones fix
        assert invariant_dim(Counter([C("-")]), [0b1, None]) == 0
        with pytest.raises(TypeError):
            invariant_dim(Counter([C("+")]), [0b1, None])

    def test_two_factor_case_on_three_generators(self):
        # three involutions on the elliptic square: negation of the first
        # coordinate, negation of the second, simultaneous half-shift; on
        # either coordinate they translate by (0, 0), (0, 0) and (1, 0)
        v = legendre_pair_space([(0, 0), (0, 0), (1, 0)])
        assert v == {C("+++"): 1, C("++-"): 1}
        pair = tensor([v, v])
        assert invariant_dim(pair, [0b100, 0b010, 0b001]) == 2
        assert invariant_dim(pair, []) == 4

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_subgroup_growth(self, data):
        total = tensor(pencil_spaces(ACTIONS))
        small = data.draw(
            st.lists(st.sampled_from(self.FULL4), max_size=2, unique=True)
        )
        big = small + data.draw(
            st.lists(st.sampled_from(self.FULL4), max_size=2, unique=True)
        )
        assert invariant_dim(total, big) <= invariant_dim(total, small)


class TestBranchElements:
    def test_derived_branch_set(self):
        assert set(COVER.branch_images) == {0b0100, 0b0101, 0b0011, 0b1100, 0b1110}

    def test_consistency_with_cover_machinery(self):
        data = COVER
        assert data.n == 4 and len(data.branch_images) == 5
        assert cover_genus(data) == 5
        for v in data.branch_images:
            assert fixed_point_count(data, v) == 8

    def test_three_elements_avoid_the_first_generator(self):
        assert sum(1 for v in COVER.branch_images if not v & 0b1000) == 3

    @staticmethod
    def assert_table_matches_composition(gens):
        # every word in all the letters, composed with the oracle compose,
        # acts on every coordinate as the xor of its letters' actions; the
        # table lists the words in the kept letters in product order, and a
        # letter is kept exactly when no word in earlier letters acts as it
        n, letters = gens[0].n, actions_mod2(gens)
        by_composition = mod2_actions_by_composition(gens)
        for word, action in by_composition.items():
            assert decoded(reduce(xor, compress(letters, word), 0), n) == action, word
        table, kept = span_mod2(letters)
        assert kept == spanning_letters(by_composition, range(n))
        assert len(table) == len(set(by_composition.values())) == 1 << len(kept)
        for word, action in zip(product((0, 1), repeat=len(kept)), table):
            full = [0] * len(gens)
            for i, e in zip(kept, word):
                full[i] = e
            assert decoded(action, n) == by_composition[tuple(full)], word
        return letters, table, kept

    def test_mod2_actions_match_composed_elements(self):
        letters, table, kept = self.assert_table_matches_composition(GENS)
        assert letters == ACTIONS
        assert (len(table), kept) == (32, [0, 1, 2, 3, 4])

    def test_mod2_actions_with_a_redundant_generator(self):
        # g1 g2 acts as g1 and g2 together, so it is left out of the kept
        # letters and the group order stays 32
        gens = (*GENS, compose(GENS[0], GENS[1]))
        letters, table, kept = self.assert_table_matches_composition(gens)
        assert letters[5] == letters[0] ^ letters[1]
        assert (len(table), kept) == (32, [0, 1, 2, 3, 4])

    @pytest.mark.parametrize("seed", range(12))
    def test_mod2_actions_on_random_generators(self, seed):
        rng = random.Random(seed)
        gens = random_generators(rng, rng.randint(1, 6))
        # a copy of a letter, and the product of two, are dependent
        gens = (*gens, gens[0], compose(gens[0], gens[-1]))
        _, _, kept = self.assert_table_matches_composition(gens)
        assert len(gens) - 2 not in kept and len(gens) - 1 not in kept

    @pytest.mark.parametrize("seed", range(40))
    def test_branch_words_on_random_generators(self, seed, monkeypatch):
        # the words alone: random generators rarely give valid branch data
        rng = random.Random(seed)
        gens = random_generators(rng, rng.randint(2, 6))
        monkeypatch.setattr(character_calculus, "BranchedCoverData", lambda n, words: (n, words))
        kept = spanning_letters(mod2_actions_by_composition(gens), (2, 3))
        assert d_factor_branch_elements(curve_span(actions_mod2(gens))) == (
            len(kept),
            tuple(map(_mask, branch_words_by_composition(gens))),
        )

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
            assert _branch_dual_characters(cover) == [_mask(c[0]) for c in candidates]

    @pytest.mark.parametrize("seed", range(40))
    def test_masks_match_the_tuple_oracles(self, seed):
        # the int masks against the 0/1 tuples they encode, integer_algebra._mask
        # of each tuple result: characters multiply and pair, the basis
        # character, the cover's pairing table and every fixed point count
        rng = random.Random(seed)
        k = seed % 5 + 1

        def word() -> tuple[int, ...]:
            return tuple(rng.randint(0, 1) for _ in range(k))

        def masked(space: Counter) -> Counter:
            return Counter({_mask(chi): m for chi, m in space.items()})

        spaces = [
            Counter({word(): rng.randint(0, 3) for _ in range(rng.randint(1, 4))})
            for _ in range(rng.randint(1, 3))
        ]
        total = tensor_by_entries(spaces)
        assert tensor(list(map(masked, spaces))) == masked(total)
        words = [word() for _ in range(rng.randint(0, 3))]
        assert invariant_dim(masked(total), list(map(_mask, words))) == invariant_dim_by_entries(
            total, words
        )
        actions = [(rng.randint(-3, 3), 2 * rng.randint(-2, 2)) for _ in range(k)]
        assert character_of_basis(actions) == _mask(character_of_basis_by_entries(actions))
        cover = random_cover_data(rng, k)
        images = [unmask(v, k) for v in cover.branch_images]
        assert list(map(_mask, images)) == list(cover.branch_images)
        assert cover.pairings == pairings_by_entries(k, images)
        for g in product((0, 1), repeat=k):
            if any(g):
                assert fixed_point_count(cover, _mask(g)) == fixed_point_count_by_entries(
                    k, images, g
                )

    def test_branch_duals_of_the_standard_covers(self):
        # the parities of a functional on the images sum to its value on
        # their sum, 0, so duals need an odd number of images: the generic
        # cover has them for even n, and the run's cover (5 images) too
        for cover in (*map(standard_cover_data, (2, 4, 6)), COVER):
            assert _branch_dual_characters(cover) == [_mask(c) for [c] in branch_dual_candidates(cover)]

    def test_wrong_genus_fails_hurwitz_genus5(self, monkeypatch):
        # the builder does not judge the genus; the claims table does
        monkeypatch.setattr(checks, "cover_genus", lambda data: 4)
        [result] = checks.run(checks.RunConfig(checks=("hurwitz_genus5",), taus=()))
        assert (result.status, result.actual) == ("fail", "genus 4")


class TestOneForms:
    def test_character_inventory(self):
        space = one_forms_space(COVER, ACTIONS, CURVE)
        assert dim(space) == 7
        assert len(space) == 7
        assert all(m == 1 for m in space.values())
        assert space.get(C("-++++")) == 1  # first coordinate form
        assert space.get(C("+-+++")) == 1  # second coordinate form
        assert C("+++++") not in space

    def test_full_group_has_no_invariants(self):
        assert one_forms_invariants(one_forms_space(COVER, ACTIONS, CURVE)) == 0

    def test_index_two_subgroups_with_one_invariant(self):
        e = [1 << (4 - j) for j in range(5)]
        space = one_forms_space(COVER, ACTIONS, CURVE)
        assert invariant_dim(space, [e[1], e[2], e[3], e[4]]) == 1
        assert invariant_dim(space, [e[0], e[2], e[3], e[4]]) == 1

    def test_a_redundant_letter_takes_the_product_of_its_factors(self):
        # the characters are lifted to G through the cover's table, so on
        # g1 g2 each takes the product of its values on g1 and g2
        actions = actions_mod2((*GENS, compose(GENS[0], GENS[1])))
        curve = curve_span(actions)
        cover = d_factor_branch_elements(curve)
        assert (curve, cover) == (CURVE, COVER)
        space = one_forms_space(cover, actions, curve)
        # g1, g2 and g1 g2 are bits 5, 4 and 0 of a six-letter character
        assert all((chi ^ chi >> 4 ^ chi >> 5) & 1 == 0 for chi in space)
        assert Counter({chi >> 1: m for chi, m in space.items()}) == one_forms_space(
            cover, ACTIONS, CURVE
        )

    def test_trivial_subgroup_sees_everything(self):
        assert invariant_dim(one_forms_space(COVER, ACTIONS, CURVE), []) == 7


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
