import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from wordweight.errors import BudgetExhausted, ConjugatorTooLong, IndexTooSmall
from wordweight.genset import (
    BigGen,
    GenSetParams,
    check_family_size,
    enumerate_generators,
    expand_generator,
    family_size,
    longest_expansion,
    max_usable_index,
    normalize_conjugator,
    theta_value,
)
from wordweight.lengths import xlength
from wordweight.words import IDENTITY, LETTERS, Word

W = Word.parse

P5 = GenSetParams(base=5, jmin=2)
P2 = GenSetParams(base=2, jmin=1)


def raw_expansion(v: Word, j: int, params: GenSetParams) -> Word:
    """Expansion straight from the defining product, no normal form."""
    return (
        v
        * W(f"b^{params.inner_exp(j)}")
        * ~v
        * W(f"a^{params.outer_exp(j)}")
        * W(f"b^{params.outer_exp(j)}")
    )


P3 = GenSetParams(base=3, jmin=1)
DIFF_PARAMS = [P2, P3, P5]


@st.composite
def conjugated(draw):
    """(params, j, v): j is jmin or jmin + 1 and v a reduced conjugator
    within the index's bound, often led by a^(+-k) so that the a-runs of
    v^-1 and the tail merge, and possibly ending in b^(+-1)."""
    params = draw(st.sampled_from(DIFF_PARAMS))
    j = params.jmin + draw(st.integers(0, 1))
    bound = params.conjugator_bound(j)
    lead = draw(st.integers(-bound, bound))
    most = min(bound - abs(lead), 40)  # so that |v| <= |lead| + most <= bound
    letters = draw(st.lists(st.sampled_from(LETTERS), max_size=most))
    v = Word.from_runs([("a", lead)] + [(l.base, l.sign) for l in letters])
    return params, j, v


def all_reduced_words(max_len: int):
    """Brute-force: every reduced word with at most max_len letters."""
    words = [IDENTITY]
    frontier = [IDENTITY]
    for _ in range(max_len):
        nxt = []
        for u in frontier:
            for l in LETTERS:
                w = u * l.word()
                if w.s_length == u.s_length + 1:
                    nxt.append(w)
        words.extend(nxt)
        frontier = nxt
    return words


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenSetParams(base=1)
        with pytest.raises(ValueError):
            GenSetParams(jmin=0)
        with pytest.raises(ValueError):
            GenSetParams(base=5, jmin=2, jmax_cap=1)

    @pytest.mark.parametrize(
        "fields, message",
        [
            # a float base once gave the family length 129.0 of
            # c^3 a^625 b^625 and a witness item b^-1 *125.0
            ({"base": 5.0, "jmin": 2}, "base must be an int, got 5.0"),
            ({"base": True}, "base must be an int, got True"),
            ({"jmin": True}, "jmin must be an int, got True"),
            ({"jmin": 2.0}, "jmin must be an int, got 2.0"),
            ({"jmax_cap": 3.0}, "jmax_cap must be an int, got 3.0"),
            ({"jmax_cap": False}, "jmax_cap must be an int, got False"),
        ],
    )
    def test_inexact_fields_are_refused(self, fields, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            GenSetParams(**fields)

    def test_int_fields_are_kept(self):
        assert (P5.base, P5.jmin, P5.jmax_cap) == (5, 2, None)
        capped = GenSetParams(base=3, jmin=1, jmax_cap=4)
        assert (capped.base, capped.jmin, capped.jmax_cap) == (3, 1, 4)
        r = xlength(W("c^3 a^625 b^625"), P5, mode="family")
        assert r.exact and type(r.lower) is int and r.lower == 129

    def test_schedule(self):
        assert P5.conjugator_bound(2) == 25
        assert P5.inner_exp(2) == 125
        assert P5.outer_exp(2) == 625
        assert theta_value(2, P5) == 125 + 2 * 625


class TestNormalize:
    def test_strips_trailing_b_power(self):
        gen = normalize_conjugator(W("a b^3"), 2, P5)
        assert gen == BigGen(W("a"), 2)

    def test_identity_fixed(self):
        assert normalize_conjugator(IDENTITY, 2, P5) == BigGen(IDENTITY, 2)

    def test_pure_b_power_drops_to_identity(self):
        assert normalize_conjugator(W("b^2"), 2, P5) == BigGen(IDENTITY, 2)

    def test_errors(self):
        with pytest.raises(IndexTooSmall):
            normalize_conjugator(IDENTITY, 1, P5)
        with pytest.raises(ConjugatorTooLong):
            normalize_conjugator(W("a^26"), 2, P5)
        with pytest.raises(ConjugatorTooLong, match=r"^\|v\|=26 exceeds bound 25 "):
            normalize_conjugator(W("a^26 b"), 2, P5)

    def test_bound_applies_after_stripping(self):
        # |a b^2| = 3 exceeds B^j = 2, but the generator is x(a, 1)
        assert normalize_conjugator(W("a b^2"), 1, GenSetParams(2, 1)) == BigGen(W("a"), 1)

    def test_index_above_cap(self):
        capped = GenSetParams(5, 2, jmax_cap=3)
        with pytest.raises(ValueError, match="^index 4 above jmax_cap=3$"):
            normalize_conjugator(W("a"), 4, capped)
        assert normalize_conjugator(W("a"), 3, capped) == BigGen(W("a"), 3)

    def test_idempotent_and_expansion_preserving(self):
        rng = random.Random(7)
        for _ in range(1000):
            j = rng.choice([1, 2])
            bound = P2.conjugator_bound(j)
            v = IDENTITY
            for _ in range(rng.randint(0, bound)):
                v = v * rng.choice(LETTERS).word()
            if v.s_length > bound:
                continue
            gen = normalize_conjugator(v, j, P2)
            again = normalize_conjugator(gen.conj, j, P2)
            assert again == gen
            assert expand_generator(gen, P2) == raw_expansion(v, j, P2)


class TestExpansion:
    def test_identity_conjugator_base5(self):
        gen = BigGen(IDENTITY, 2)
        assert expand_generator(gen, P5) == W("b^125 a^625 b^625")
        assert expand_generator(gen, P5).s_length == 1375
        assert expand_generator(gen, P5).abelianize() == (625, 750, 0)

    def test_letter_conjugator_base2(self):
        assert expand_generator(BigGen(W("a"), 1), P2) == W("a b^2 a^3 b^4")

    def test_letter_conjugator_base5(self):
        assert expand_generator(BigGen(W("c"), 2), P5) == W(
            "c b^125 c^-1 a^625 b^625"
        )

    def test_letter_gen(self):
        assert expand_generator(LETTERS[1], P5) == W("a^-1")

    @pytest.mark.parametrize("params", DIFF_PARAMS, ids=str)
    def test_letter_gens_are_their_letters(self, params):
        for letter in LETTERS:
            assert expand_generator(letter, params) == letter.word()

    @given(conjugated())
    @example((P2, 1, IDENTITY))
    @example((P5, 3, IDENTITY))
    @example((P5, 2, W("a^7 c")))
    @example((P3, 2, W("a^-9")))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_defining_product(self, case):
        # The reference is the definition, four Word products and an
        # inverse; the expansion is built from one run sequence.
        params, j, v = case
        expected = raw_expansion(v, j, params)
        normal = expand_generator(normalize_conjugator(v, j, params), params)
        hand_built = expand_generator(BigGen(v, j), params)
        assert normal == hand_built == expected
        assert Word.from_runs(normal.runs).runs == normal.runs  # reduced

    def test_expansion_length_formula(self):
        # Writing the normal-form conjugator as a^k w0 (k >= 0 maximal,
        # w0 not starting with a positive a-run), the expansion reduces to
        # a^k w0 b^inner w0^-1 a^(outer-k) b^outer with no other losses:
        # |expansion| = k + 2|w0| + inner + (outer - k) + outer.
        rng = random.Random(13)
        for _ in range(200):
            j = rng.choice([1, 2])
            v = IDENTITY
            for _ in range(rng.randint(0, P2.conjugator_bound(j))):
                v = v * rng.choice(LETTERS).word()
            if v.s_length > P2.conjugator_bound(j):
                continue
            gen = normalize_conjugator(v, j, P2)
            runs = gen.conj.runs
            k = runs[0][1] if runs and runs[0][0] == "a" and runs[0][1] > 0 else 0
            w0_len = gen.conj.s_length - k
            expected = (
                k
                + 2 * w0_len
                + P2.inner_exp(j)
                + (P2.outer_exp(j) - k)
                + P2.outer_exp(j)
            )
            assert expand_generator(gen, P2).s_length == expected


class TestEnumeration:
    def test_base2_index1_complete_count(self):
        gens = list(enumerate_generators(P2, 1))
        assert len(gens) == 25

    def test_matches_bruteforce_expansion_set(self):
        # Oracle: expand the raw definition over every reduced v with
        # |v| <= 2 and dedupe by expansion.
        oracle = {
            raw_expansion(v, 1, P2) for v in all_reduced_words(P2.conjugator_bound(1))
        }
        gens = list(enumerate_generators(P2, 1))
        assert {expand_generator(g, P2) for g in gens} == oracle
        assert len(oracle) == 25

    def test_pairwise_distinct_and_deterministic(self):
        for j in (1, 2):
            a = list(enumerate_generators(P2, j))
            b = list(enumerate_generators(P2, j))
            assert a == b
            expansions = [expand_generator(g, P2) for g in a]
            assert len(set(expansions)) == len(expansions) == family_size(P2, j)

    def test_length_lex_order_prefix(self):
        gens = list(itertools.islice(enumerate_generators(P2, 1), 5))
        assert [g.conj for g in gens] == [
            IDENTITY,
            W("a"),
            W("a^-1"),
            W("c"),
            W("c^-1"),
        ]

    @pytest.mark.parametrize("base, j", [(2, 1), (2, 2), (3, 1)])
    def test_order_is_the_filtered_product(self, base, j):
        # move order sets the search engines' tie-breaks, so node counts
        params = GenSetParams(base=base, jmin=1)
        expected = [
            Word.from_runs((l.base, l.sign) for l in letters)
            for n in range(params.conjugator_bound(j) + 1)
            for letters in itertools.product(LETTERS, repeat=n)
            if all(x.base != y.base or x.sign == y.sign for x, y in zip(letters, letters[1:]))
            and not (letters and letters[-1].base == "b")
        ]
        assert [g.conj for g in enumerate_generators(params, j)] == expected

    def test_stream_is_lazy_at_canonical_base(self):
        # the index-2 family at base 5 has 5^25 generators: callers take a
        # prefix, so the walk must not build a level of words at a time
        tracemalloc.start()
        try:
            stream = itertools.islice(enumerate_generators(P5, 2), 200_000)
            taken = sum(1 for _ in stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert taken == 200_000
        assert peak < 10_000_000, peak

    def test_stream_prefix_at_canonical_base(self):
        gens = list(itertools.islice(enumerate_generators(P5, 2), 10))
        assert len(gens) == 10
        assert gens[0].conj == IDENTITY and gens[0].index == 2
        expansions = [expand_generator(g, P5) for g in gens]
        assert len(set(expansions)) == 10

    def test_budget_exhausted_when_complete_demanded(self):
        with pytest.raises(BudgetExhausted):
            check_family_size(P2, 1, 10)
        with pytest.raises(BudgetExhausted):
            check_family_size(P5, 2, 1000)

    def test_index_below_jmin(self):
        with pytest.raises(IndexTooSmall):
            list(enumerate_generators(P5, 1))

    def test_family_size_matches_enumeration(self):
        for base, j in [(2, 1), (2, 2), (3, 1), (4, 1)]:
            params = GenSetParams(base=base, jmin=1)
            listed = sum(1 for _ in enumerate_generators(params, j))
            assert family_size(params, j) == listed
        assert family_size(P2, 1) == 25 and family_size(P5, 2) == 5**25

    def test_longest_expansion_matches_enumeration(self):
        expected = {(2, 1): 14, (2, 2): 48, (3, 1): 27, (4, 1): 44}
        for (base, j), value in expected.items():
            params = GenSetParams(base=base, jmin=1)
            listed = max(
                expand_generator(gen, params).s_length
                for gen in enumerate_generators(params, j)
            )
            assert longest_expansion(params, j) == listed == value

    def test_budget_refused_before_anything_is_yielded(self):
        # the index-5 family at base 5 has 5^3125 generators; its size is
        # refused from the closed form, without listing or building it
        with pytest.raises(BudgetExhausted, match="index-5 .* max_count=1000000$"):
            check_family_size(P5, 5, 10**6)
        check_family_size(P2, 1, 25)
        assert len(list(enumerate_generators(P2, 1))) == 25


class TestMaxUsableIndex:
    def test_no_index_qualifies(self):
        assert max_usable_index(W("c^3"), 3, P2) is None

    def test_small_target(self):
        assert max_usable_index(W("a^4 b^4"), 3, P2) == 1

    def test_base5_block(self):
        assert max_usable_index(W("a^625 b^625"), 126, P5) == 2

    def test_respects_cap(self):
        capped = GenSetParams(base=2, jmin=1, jmax_cap=1)
        assert max_usable_index(W("a^100 b^100"), 100, capped) == 1
        assert max_usable_index(W("a^100 b^100"), 100, P2) == 3
