import random
import threading

import pytest
from hypothesis import given, strategies as st

from wordweight.errors import WordSyntaxError
from wordweight.words import (
    HOM_AB,
    HOM_B_MINUS_C,
    HOM_C,
    IDENTITY,
    AbelianVector,
    Word,
    hom_value,
    seam,
)

W = Word.parse


def random_word(rng: random.Random, max_runs: int = 5, max_exp: int = 4) -> Word:
    runs = []
    prev = None
    for _ in range(rng.randint(0, max_runs)):
        base = rng.choice([b for b in "abc" if b != prev])
        prev = base
        exp = rng.choice([e for e in range(-max_exp, max_exp + 1) if e != 0])
        runs.append((base, exp))
    return Word(tuple(runs))


words_st = st.builds(
    lambda seed, runs: random_word(random.Random(seed), runs),
    st.integers(0, 2**32),
    st.integers(0, 6),
)


class TestParse:
    def test_already_reduced(self):
        assert W("a^4 b^4").runs == (("a", 4), ("b", 4))

    def test_forced_cancellation(self):
        assert W("a b b^-1 a").runs == (("a", 2),)

    def test_empty_is_identity(self):
        assert W("") == IDENTITY
        assert W("   ") == IDENTITY

    def test_zero_exponent_reduces_away(self):
        assert W("c^0") == IDENTITY

    def test_round_trip(self):
        for text in ["a^4 b^4", "a b^-2 c^100", "b^-1", ""]:
            assert str(W(text)) == text

    def test_huge_exponent(self):
        w = W(f"a^{5**40}")
        assert w.runs == (("a", 5**40),)

    def test_syntax_error_position(self):
        with pytest.raises(WordSyntaxError) as exc:
            W("a^2 d^3")
        assert exc.value.position == 4
        with pytest.raises(WordSyntaxError):
            W("a^")
        with pytest.raises(WordSyntaxError):
            W("a^1.5")


class TestConcat:
    def test_full_cancellation(self):
        assert W("a^3") * W("a^-3") == IDENTITY

    def test_inner_run_cancellation(self):
        assert W("a b^3") * W("b^-3 c") == W("a c")

    def test_run_merge_constant_runs(self):
        big = 5**10
        w = W(f"a^{big}") * W(f"a^{big}")
        assert w.runs == (("a", 2 * big),)

    def test_multi_run_cancellation(self):
        assert W("a b c") * W("c^-1 b^-1 a") == W("a^2")


class TestInvert:
    def test_basic(self):
        assert ~W("a b^2") == W("b^-2 a^-1")

    def test_identity(self):
        assert ~IDENTITY == IDENTITY

    @given(words_st)
    def test_group_axiom(self, u):
        assert u * ~u == IDENTITY
        assert ~~u == u


class TestPow:
    def test_single_letter(self):
        assert W("c") ** 5 == W("c^5")

    def test_conjugate_collapses(self):
        assert W("a b a^-1") ** 3 == W("a b^3 a^-1")

    def test_zero(self):
        assert W("a b") ** 0 == IDENTITY

    def test_negative(self):
        assert W("a b") ** -2 == W("b^-1 a^-1 b^-1 a^-1")

    def test_deep_conjugate_huge_exponent(self):
        w = W("a^2 c b^-3") * W(f"b^{5**30}") * W("b^3 c^-1 a^-2")
        p = w**7
        assert p == W("a^2 c b^-3") * W(f"b^{7 * 5**30}") * W("b^3 c^-1 a^-2")
        assert len(p.runs) == 5

    @given(words_st, st.integers(-6, 6))
    def test_matches_repeated_product(self, u, n):
        expected = IDENTITY
        base = u if n >= 0 else ~u
        for _ in range(abs(n)):
            expected = expected * base
        assert u**n == expected

    @given(
        words_st,
        st.sampled_from(["a b", "a b a", "a^2 c a^3", "a b^-1 c a^-2 b"]),
        st.integers(-6, 6),
    )
    def test_matches_repeated_product_under_shells(self, shell, core, n):
        # multi-run cores, seam-merging or not, inside a random shell
        u = shell * W(core) * ~shell
        expected = IDENTITY
        base = u if n >= 0 else ~u
        for _ in range(abs(n)):
            expected = expected * base
        assert u**n == expected

    def test_multi_run_core_bounded_cost(self):
        # the power once took n-1 products, each copying the whole word:
        # (a b)^16000 took 2 s
        cases = [
            (W("a b"), 16000, 32000),
            (W("c a b a c^-1"), 10**6, 2 * 10**6 + 3),
        ]
        results = []

        def run():
            results.extend(len((u**n).runs) for u, n, _ in cases)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert results == [runs for _, _, runs in cases]


class TestLengthAndHoms:
    def test_s_length_sum_of_runs(self):
        assert W("a^625 b^625").s_length == 1250
        assert IDENTITY.s_length == 0

    def test_abelianize(self):
        assert W("a b c^-1").abelianize() == AbelianVector(1, 1, -1)

    def test_hom_ab_on_ab(self):
        assert hom_value(HOM_AB, W("a b")) == 2

    def test_hom_b_minus_c(self):
        assert hom_value(HOM_B_MINUS_C, W("c^2 b^-125")) == -127

    def test_homs_vanish_on_identity(self):
        for coeffs in [HOM_AB, HOM_B_MINUS_C, HOM_C, (3, -2, 7)]:
            assert hom_value(coeffs, IDENTITY) == 0

    @given(words_st, words_st)
    def test_conjugation_invariance(self, u, v):
        assert (v * u * ~v).abelianize() == u.abelianize()


class TestSplitAt:
    def test_at_run_boundary(self):
        assert W("a^4 b^4").split_at(4) == (W("a^4"), W("b^4"))

    def test_at_zero(self):
        u = W("a^2 b")
        assert u.split_at(0) == (IDENTITY, u)

    def test_mid_run(self):
        assert W("a^2 b").split_at(1) == (W("a"), W("a b"))

    def test_negative_run(self):
        assert W("a^-3 c").split_at(2) == (W("a^-2"), W("a^-1 c"))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            W("a b").split_at(3)
        with pytest.raises(IndexError):
            W("a").split_at(-1)

    @given(words_st, st.integers(0, 40))
    def test_parts_recombine_without_cancellation(self, u, i):
        if i > u.s_length:
            i = i % (u.s_length + 1)
        left, right = u.split_at(i)
        assert left * right == u
        assert left.s_length == i
        assert left.s_length + right.s_length == u.s_length


class TestAlgebraLaws:
    @given(words_st, words_st, words_st)
    def test_associative(self, u, v, w):
        assert (u * v) * w == u * (v * w)

    @given(words_st, words_st)
    def test_subadditive(self, u, v):
        assert (u * v).s_length <= u.s_length + v.s_length

    @given(words_st, words_st)
    def test_hom_additive(self, u, v):
        for coeffs in [HOM_AB, HOM_B_MINUS_C, (2, -1, 3)]:
            assert hom_value(coeffs, u * v) == hom_value(coeffs, u) + hom_value(
                coeffs, v
            )

    @given(words_st)
    def test_length_dominates_abelianization(self, u):
        na, nb, nc = u.abelianize()
        assert u.s_length >= abs(na) + abs(nb) + abs(nc)

    @given(words_st, words_st)
    def test_reducedness_preserved(self, u, v):
        for w in (u * v, ~u, u**3, (u * v) * ~v):
            for i, (base, exp) in enumerate(w.runs):
                assert exp != 0
                if i:
                    assert w.runs[i - 1][0] != base


# Exponents at both scales: small, and powers of the bases 2 and 5 up to
# 5^20, where a whole run is one step of the seam walk.
exponents = st.one_of(
    st.integers(1, 4),
    st.builds(pow, st.sampled_from([2, 5]), st.integers(1, 20)),
).flatmap(lambda n: st.sampled_from([n, -n]))
big_words = st.lists(
    st.tuples(st.sampled_from("abc"), exponents), max_size=5
).map(Word.from_runs)


@st.composite
def seam_pairs(draw):
    """(x, y) whose seam cancels whole runs, part of a run, or merges two
    runs: y starts with the inverse of a tail of x, then an optional run on
    the base of the next run of x, then anything."""
    x = draw(big_words)
    keep = draw(st.integers(0, len(x.runs)))
    runs = [(base, -exp) for base, exp in reversed(x.runs[keep:])]
    if keep and draw(st.booleans()):
        runs.append((x.runs[keep - 1][0], draw(exponents)))
    y = Word.from_runs(runs + list(draw(big_words).runs))
    return x, y


def respelled(draw, w):
    """w as one of the paths that leave the cached letter data empty."""
    return draw(st.sampled_from([
        lambda: Word.parse(str(w)),
        lambda: Word.from_runs(w.runs),
        lambda: ~Word(tuple((b, -e) for b, e in reversed(w.runs))),
        lambda: (w**3) * ~(w**2),
        lambda: Word(w.runs),
    ]))()


class TestCachedLetterData:
    @given(seam_pairs(), st.data())
    def test_product_matches_recount(self, pair, data):
        x, y = (respelled(data.draw, w) for w in pair)
        warm = data.draw(st.tuples(st.booleans(), st.booleans()))
        for w, on in zip((x, y), warm):
            if on:
                w.s_length, w.abelianize()
        product = x * y
        fresh = Word(product.runs)
        assert product.runs == Word.from_runs(x.runs + y.runs).runs
        if x and y:
            # the product inherits the pair only from two factors that have it
            assert (product._len is not None) == all(warm)
            assert (product._ab is not None) == all(warm)
        assert product.s_length == fresh.s_length
        assert product.abelianize() == fresh.abelianize()

    @given(seam_pairs())
    def test_seam_counts_what_cancels(self, pair):
        x, y = pair
        taken, merged, cancelled = seam(x.runs, y.runs)
        product = x * y
        assert cancelled == x.s_length + y.s_length - product.s_length
        middle = (merged,) if merged else ()
        assert x.runs[: len(x.runs) - taken] + middle + y.runs[taken:] == product.runs

    def test_seam_cases(self):
        big = 5**20
        a, ai = ("a", big), ("a", -big)
        assert seam((("b", 1), a), (ai, ("b", -1))) == (2, None, 2 * big + 2)
        assert seam((("b", 1), a), (("a", 3 - big),)) == (1, ("a", 3), 2 * big - 6)
        assert seam((a,), (("a", 2),)) == (1, ("a", big + 2), 0)
        assert seam((a,), (("b", 2),)) == (0, None, 0)
        assert seam((), (a,)) == (0, None, 0)
