import functools
import math
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wordweight import algebra, lengths
from wordweight.algebra import (
    ExpScalar,
    ExpSum,
    NormRoot,
    ONE,
    WeightProvider,
    WeightedVector,
    _e_bounds,
    _exp_bounds,
    _sum_bounds,
    block_word,
    chain_prefixes,
    chain_product,
    convolve,
    min_tail_index,
    normalized_point_mass,
    omega_norm,
    pair_omega,
    sandwich_decay_bound,
    sandwich_norm_bound,
    spectral_probe,
    vector_from_literal,
    vector_to_literal,
)
from wordweight.errors import (
    ConstraintViolation,
    PreconditionViolated,
    UnknownLength,
    WordSyntaxError,
)
from wordweight.genset import GenSetParams
from wordweight.lengths import chain_word, family_length
from wordweight.words import IDENTITY, LETTERS, Word

W = Word.parse
P5 = GenSetParams(base=5, jmin=2)
P2 = GenSetParams(base=2, jmin=1)


@pytest.fixture(scope="module")
def fam5():
    return WeightProvider(P5, mode="family")


@pytest.fixture(scope="module")
def exact2():
    return WeightProvider(P2, mode="exact")


@pytest.fixture(scope="module")
def mpmath():
    """The reference the fixed-point bounds are checked against; the
    library itself never imports it."""
    return pytest.importorskip("mpmath")


def interval_sign(mpmath, terms) -> int:
    """Sign of a sum of m*e^E terms by mpmath interval arithmetic at
    doubling precision: an interval wholly above or below 0 proves it."""
    iv = mpmath.iv
    saved = iv.prec
    try:
        for prec in (64 << i for i in range(11)):
            iv.prec = prec
            total = iv.mpf(0)
            for exponent, m in terms:
                m = iv.mpf(m.numerator) / iv.mpf(m.denominator)
                total += m * iv.exp(iv.mpf(exponent))
            if total > 0:
                return 1
            if total < 0:
                return -1
    finally:
        iv.prec = saved
    raise ArithmeticError("interval sign did not resolve")


# S_N < e < S_N + 1/(N! N) with S_N the sum of 1/k! for k <= N; at
# N = 200, 1/(N! N) < 2^-1200, far inside 2^-512 e^-60
E_UNDER = sum(Fraction(1, math.factorial(k)) for k in range(201))
E_OVER = E_UNDER + Fraction(1, math.factorial(200) * 200)


@functools.cache
def rational_e_power(n: int) -> tuple[Fraction, Fraction]:
    """Rationals under and over e^n."""
    return (E_UNDER**n, E_OVER**n) if n >= 0 else (E_OVER**n, E_UNDER**n)


def hand_built(sign=0):
    """ExpSum terms as a caller may write them: out of order, repeated
    exponents, terms that cancel to zero, int mantissas. With ``sign``
    +-1, every mantissa is nonzero and of that sign."""
    mantissa = st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=6)
    if sign:
        mantissa = mantissa.filter(bool).map(lambda m: sign * abs(m))
    terms = st.lists(st.tuples(st.integers(-3, 3), mantissa), max_size=4)
    return terms.map(lambda t: ExpSum(tuple(t)))


MISSING = object()  # a literal field left out

MIXED_SUMS = st.lists(
    st.tuples(
        st.integers(-200, 200) | st.integers(-(10**5), 10**5),
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**3),
    ),
    min_size=2,
    max_size=5,
)


class TestExpScalar:
    def test_normalizes_zero(self):
        assert ExpScalar(Fraction(0), 17) == ExpScalar(Fraction(0), 0)

    def test_product(self):
        x = ExpScalar(Fraction(2, 3), -5) * ExpScalar(Fraction(3), 2)
        assert x == ExpScalar(Fraction(2), -3)

    @pytest.mark.parametrize("value", [0.1, 1.0, True, False])
    def test_inexact_mantissa_is_refused(self, value):
        # Fraction() would read 0.1 as 3602879701896397/36028797018963968
        # and True as 1
        with pytest.raises(TypeError, match=f"^{value!r} is not exact"):
            ExpScalar(value)
        with pytest.raises(TypeError, match=f"^{value!r} is not exact"):
            ExpSum.of(ONE) <= value

    @pytest.mark.parametrize("value", [0.5, 2.0, True, False, Fraction(1)])
    def test_exponent_other_than_int_is_refused(self, value):
        # a float or bool exponent once printed as 1*e^0.5 or 1*e^True
        message = f"^exponent {re.escape(repr(value))} is not an int$"
        with pytest.raises(TypeError, match=message):
            ExpScalar(Fraction(1), value)

    def test_ints_and_fractions_are_exact(self):
        assert ExpScalar(3, 2) == ExpScalar(Fraction(3), 2)
        assert ExpScalar(3).mantissa.denominator == 1
        assert ExpSum.of(ONE) <= 1 and ExpSum.of(ONE) < Fraction(3, 2)

    def test_to_float(self):
        import math

        assert abs(ExpScalar(Fraction(2), -1).to_float() - 2 / math.e) < 1e-14
        assert ExpScalar(Fraction(1), -100000).to_float() == 0.0

    def test_to_float_at_the_edges_of_the_float_range(self):
        # e^709.78 is the largest float, e^-744.44 the least
        assert math.isclose(ExpScalar(1, 709).to_float(), math.exp(709), rel_tol=1e-15)
        assert ExpScalar(1, 710).to_float() == math.inf
        assert ExpScalar(-3, 10**5).to_float() == -math.inf
        assert ExpScalar(1, -744).to_float() > 0
        assert ExpScalar(1, -745).to_float() == 5e-324
        for scalar, zero in [(ExpScalar(1, -746), 0.0), (ExpScalar(-1, -746), -0.0)]:
            assert math.copysign(1, scalar.to_float()) == math.copysign(1, zero)
            assert scalar.to_float() == 0
        # the top term alone would overflow: e^710 - 2 e^709 = (e - 2) e^709
        near_max = ExpSum.from_terms([(710, 1), (709, -2)]).to_float()
        assert math.isclose(near_max, (math.e - 2) * math.exp(709), rel_tol=1e-14)
        assert ExpSum.from_terms([(800, 1), (799, -2)]).to_float() == math.inf
        # a huge top exponent gives inf without a 1.4 * 5^13-bit power of e
        assert ExpScalar(Fraction(1, 10**6), 5**13).to_float() == math.inf
        # at top exponent 0 a mantissa past the float range overflows the
        # fixed-point quotient itself
        assert ExpScalar(2**1100).to_float() == math.inf
        assert ExpScalar(-(2**1100)).to_float() == -math.inf
        assert ExpSum.from_terms([(5**13, 1), (5**13 - 1, -3)]).to_float() == -math.inf


class TestExpSum:
    def test_merge_and_cancel(self):
        s = ExpSum.from_terms([(0, Fraction(1)), (0, Fraction(-1)), (2, Fraction(3))])
        assert s.terms == ((2, Fraction(3)),)

    def test_structural_equality_is_value_equality(self):
        a = ExpSum.of(ExpScalar(Fraction(1), -126))
        b = ExpSum.from_terms([(-126, Fraction(1, 2)), (-126, Fraction(1, 2))])
        assert a == b

    def test_three_over_e_exceeds_one(self):
        three_over_e = ExpSum.of(ExpScalar(Fraction(3), -1))
        assert three_over_e > 1 and three_over_e >= 1
        assert ExpSum.of(ExpScalar(Fraction(2), -1)) < 1
        assert not ExpSum.of(ExpScalar(Fraction(2), -1)) >= 1

    def test_the_empty_sum(self):
        assert str(ExpSum()) == "0"
        with pytest.raises(TypeError, match="^cannot compare ExpSum with str$"):
            ExpSum() <= "x"

    def test_mixed_sign_comparison(self):
        # e^1 - 2 > 0, e^1 - 3 < 0
        assert ExpSum.from_terms([(1, Fraction(1)), (0, Fraction(-2))]).sign() == 1
        assert ExpSum.from_terms([(1, Fraction(1)), (0, Fraction(-3))]).sign() == -1

    @pytest.mark.parametrize(
        "terms, sign",
        [
            # e - 3 and e - 68/25 lie within 0.3 and 0.002 of zero
            ([(1, 1), (0, -3)], -1),
            ([(1, 1), (0, Fraction(-68, 25))], -1),
            ([(1, 1), (0, -2)], 1),
            ([(0, Fraction(-1, 2)), (-2, Fraction(1, 2))], -1),
            # at a gap of 10^5 the lower term's bounds are 0 and 1 in
            # units of 2^-p, so 5^64 ~ 2^149 needs p = 256
            ([(10**5, 1), (0, -(10**20))], 1),
            ([(10**5, 1), (0, -(5**64))], 1),
        ],
        ids=["e-3", "e-2.72", "e-2", "half-gap-2", "capped-gap", "capped-gap-too-heavy"],
    )
    def test_dominant_term_decides_before_intervals(self, terms, sign):
        # sums near the edge of being decided by their largest term alone
        s = ExpSum.from_terms((e, Fraction(m)) for e, m in terms)
        assert s.sign() == sign
        assert (-s).sign() == -sign

    def test_hand_built_sums_stay_sound(self):
        # repeated exponents: 1 - 1 + e^-1 > 0
        repeated = ExpSum(((0, Fraction(1)), (0, Fraction(-1)), (-1, Fraction(1))))
        assert repeated.sign() == 1
        # out of order, the first term is not the largest: 13/5 - e < 0
        unsorted = ExpSum(((0, Fraction(13, 5)), (1, Fraction(-1))))
        assert unsorted.sign() == -1
        # terms that cancel to exactly 0, with int mantissas too
        assert ExpSum(((0, Fraction(1)), (0, Fraction(-1)))).sign() == 0
        assert ExpSum(((3, 2), (0, 1), (3, -2), (0, -1))).sign() == 0
        assert ExpSum(((0, Fraction(1)), (0, Fraction(-1)))).to_float() == 0.0

    @given(hand_built())
    @example(ExpSum(((0, Fraction(1)), (0, Fraction(-1)))))
    @settings(max_examples=200, deadline=None)
    def test_hand_built_sign_is_the_normal_sign(self, s):
        normal = ExpSum.from_terms(s.terms)
        assert s.sign() == normal.sign()
        assert s.to_float() == normal.to_float()

    @given(MIXED_SUMS)
    @example([(1, Fraction(1)), (0, Fraction(-68, 25))])
    @example([(3, Fraction(-1)), (0, Fraction(201, 10))])
    @settings(max_examples=200, deadline=None)
    def test_sign_agrees_with_intervals(self, mpmath, terms):
        s = ExpSum.from_terms(terms)
        assume(len(s.terms) >= 2)
        assume(min(m for _, m in s.terms) < 0 < max(m for _, m in s.terms))
        assert s.sign() == interval_sign(mpmath, s.terms)

    @given(MIXED_SUMS)
    @settings(max_examples=200, deadline=None)
    def test_to_float_agrees_with_mpmath(self, mpmath, terms):
        # at 256 bits the double rounding of float() could differ from
        # correct rounding only within 2^-200 of a rounding boundary
        s = ExpSum.from_terms(terms)
        with mpmath.workprec(256):
            value = mpmath.fsum(
                mpmath.mpf(m.numerator) / m.denominator * mpmath.exp(e)
                for e, m in s.terms
            )
            expected = float(value)
        assert s.to_float() == expected
        assert math.copysign(1, s.to_float()) == math.copysign(1, expected)

    def test_exp_bounds_contain_e_powers(self):
        for p in (64, 128, 512):
            for n in range(-60, 61):
                lo, hi = _exp_bounds(n, p)
                under, over = rational_e_power(n)
                assert Fraction(lo, 1 << p) <= under and over <= Fraction(hi, 1 << p)
                # and the bounds are tight: a few units in the last place
                assert hi - lo <= 4 + (hi >> (p - 8))

    def test_sum_bounds_contain_the_sum(self):
        rng = random.Random(5)
        for _ in range(100):
            terms = []
            for _ in range(rng.randint(1, 5)):
                m = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 999))
                terms.append((-rng.randint(0, 40), m))
            under = sum(m * rational_e_power(e)[m < 0] for e, m in terms)
            over = sum(m * rational_e_power(e)[m > 0] for e, m in terms)
            for p in (64, 128, 512):
                lo, hi = _sum_bounds(terms, 0, p)
                assert Fraction(lo, 1 << p) <= under and over <= Fraction(hi, 1 << p)

    def test_sign_gives_up_past_the_bit_ceiling(self):
        # e - m, with m within 2^-70000 of e, is positive, but its sign
        # needs more than the 2^16 bits of the last precision
        lo, _ = _e_bounds(70_000, False)
        near_zero = ExpSum.from_terms([(1, 1), (0, -Fraction(lo, 1 << 70_000))])
        with pytest.raises(ArithmeticError, match=r"^bounds did not resolve within 2\^16 bits$"):
            near_zero.sign()

    def test_to_float_waits_for_the_sign(self):
        # 1 - S_200/e > 0 lies within 2^-1200 of 0, so up to 1024 bits its
        # bracket holds 0, and at 1024 bits both ends of e^-800 times it
        # round to a zero, -0.0 and 0.0
        tiny = ExpSum.from_terms([(-800, 1), (-801, -E_UNDER)])
        for s, sign in [(tiny, 1), (-tiny, -1)]:
            assert s.sign() == sign
            assert s.to_float() == 0 and math.copysign(1, s.to_float()) == sign

    def test_abs_flips_negative_sums(self):
        s = ExpSum.from_terms([(0, Fraction(-2)), (-1, Fraction(1))])
        assert abs(s) == -s

    def test_to_float_accuracy(self):
        import math

        s = ExpSum.from_terms([(2, Fraction(1)), (0, Fraction(-1, 3))])
        expected = math.e**2 - 1 / 3
        assert abs(s.to_float() - expected) / expected < 1e-12


def all_fractions(s: ExpSum) -> bool:
    return all(type(m) is Fraction for _, m in s.terms)


def folded_sum(f: WeightedVector, signed: bool) -> ExpSum:
    """``_weighted_sum`` by the general route: one ``from_terms`` a word."""
    total = ExpSum()
    for w in f.support:
        coeff = f.entries[w] if signed else abs(f.entries[w])
        total = ExpSum.from_terms(total.terms + coeff.shifted(f.provider.length(w)).terms)
    return total


class TestExpSumShortcuts:
    """The one-term and empty-side shortcuts give what ``from_terms`` gives."""

    @given(hand_built(), hand_built())
    @example(ExpSum(), ExpSum(((1, Fraction(1)), (2, Fraction(1)))))
    @example(ExpSum(((0, 2),)), ExpSum())
    @example(ExpSum(((0, Fraction(0)),)), ExpSum())
    @settings(max_examples=300, deadline=None)
    def test_sum_and_product(self, x, y):
        for got, general in [
            (x + y, ExpSum.from_terms(x.terms + y.terms)),
            (
                algebra._expsum_product(x, y),
                ExpSum.from_terms(
                    (ex + ey, mx * my) for ex, mx in x.terms for ey, my in y.terms
                ),
            ),
        ]:
            assert got.terms == general.terms
            assert all_fractions(got)
            assert got.is_normal()

    def test_is_normal(self):
        assert ExpSum().is_normal()
        assert ExpSum.from_terms([(0, 1), (2, Fraction(1, 2))]).is_normal()
        assert not ExpSum(((0, 1),)).is_normal()
        assert not ExpSum(((0, Fraction(0)),)).is_normal()
        assert not ExpSum(((0, Fraction(1)), (0, Fraction(1)))).is_normal()
        assert not ExpSum(((0, Fraction(1)), (1, Fraction(1)))).is_normal()

    def test_from_terms_refuses_inexact_mantissas(self):
        for value in (0.5, True):
            with pytest.raises(TypeError, match="is not exact"):
                ExpSum.from_terms([(0, value)])

    @given(
        st.lists(hand_built(), min_size=1, max_size=4),
        # |coefficient| needs a sign, so the norm takes sums of one sign
        st.lists(st.sampled_from([-1, 1]).flatmap(hand_built), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_weighted_sums(self, fam5, mixed, one_sign):
        for coeffs, weighted_sum, signed in [
            (mixed, pair_omega, True),
            (one_sign, omega_norm, False),
        ]:
            f = WeightedVector(fam5, {W(f"c^{k + 1}"): c for k, c in enumerate(coeffs)})
            got = weighted_sum(f)
            assert got.terms == folded_sum(f, signed).terms
            assert all_fractions(got)


class TestProvider:
    def test_family_c_power(self, fam5):
        assert fam5.length(W("c^7")) == 7

    def test_family_block(self, fam5):
        assert fam5.length(W("a^625 b^625")) == 126

    def test_family_refuses_other_base(self):
        fam2 = WeightProvider(P2, mode="family")
        with pytest.raises(UnknownLength):
            fam2.length(W("a^4 b^4"))

    def test_exact_mode_small_base(self, exact2):
        assert exact2.length(W("a^4 b^4")) == 3

    def test_family_mode_builds_no_witness(self, monkeypatch):
        whitelisted = [
            IDENTITY,
            W("c^7"),
            W("c^3 a^625 b^625"),
            W("a^625 b^625 c^4"),
            W("c^2 a^15625 b^15625 c^9"),
            chain_word([(2, 1876), (2, 1)], P5),
            chain_word([(3, 1876), (2, 1)], P5),
        ]
        refused = [
            W("c^-3"),
            W("a^25 b^25"),  # index 1, below jmin
            W("a^625 b^624"),
            W("c a^625 b^625 c^1876 a^625 b^625"),  # a chain led by a c-power
            chain_word([(2, 1875), (2, 1)], P5),  # separator rule
            W("a^625 b^625 c^-1"),
        ]
        expected = {u: family_length(u, P5) for u in whitelisted + refused}
        assert [expected[u] is None for u in whitelisted + refused] == (
            [False] * len(whitelisted) + [True] * len(refused)
        )

        def no_witness(*args):
            raise AssertionError("a witness was built")

        monkeypatch.setattr(lengths, "_blocks_factorization", no_witness)
        with pytest.raises(AssertionError, match="a witness was built"):
            family_length(W("a^625 b^625"), P5)
        provider = WeightProvider(P5, mode="family")
        for u in whitelisted:
            assert provider.length(u) == expected[u][0]
        for u in refused:
            with pytest.raises(UnknownLength):
                provider.length(u)

    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError, match="^unknown mode 'fast'$"):
            WeightProvider(P2, mode="fast")

    def test_bracket_mode(self):
        prov = WeightProvider(P2, mode="bracket")
        assert prov.length(W("c^9")) == 9
        with pytest.raises(UnknownLength):
            prov.length(W("a^4 b^4"))


class TestVectors:
    def test_normalized_point_mass(self, fam5):
        v = normalized_point_mass(W("c^2"), fam5)
        assert v.entries[W("c^2")] == ExpSum.of(ExpScalar(Fraction(1), -2))
        assert omega_norm(v).equals(1)

    def test_identity_mass(self, fam5):
        v = normalized_point_mass(IDENTITY, fam5)
        assert omega_norm(v).equals(1)

    def test_point_mass_convolution(self, fam5):
        du = WeightedVector.point_mass(fam5, W("c^2"))
        dv = WeightedVector.point_mass(fam5, W("c^3"))
        assert convolve(du, dv) == WeightedVector.point_mass(fam5, W("c^5"))

    def test_normalized_block_times_c_power(self, fam5):
        v = convolve(
            normalized_point_mass(W("a^625 b^625"), fam5),
            WeightedVector.point_mass(fam5, W("c^3")),
        )
        assert v.support == [W("a^625 b^625 c^3")]
        assert v.entries[W("a^625 b^625 c^3")] == ExpSum.of(
            ExpScalar(Fraction(1), -126)
        )
        # that word's exponent is 129, so the norm is e^3
        assert omega_norm(v).equals(ExpScalar(Fraction(1), 3))

    def test_convolution_spreads_support(self, exact2):
        f = WeightedVector.point_mass(exact2, W("a")) + WeightedVector.point_mass(
            exact2, W("b")
        )
        g = WeightedVector.point_mass(exact2, W("a^-1"))
        got = convolve(f, g)
        assert got == WeightedVector.point_mass(exact2, IDENTITY) + (
            WeightedVector.point_mass(exact2, W("b a^-1"))
        )

    def test_convolution_across_parameters_refused(self, fam5, exact2):
        du = WeightedVector.point_mass(fam5, W("c"))
        dv = WeightedVector.point_mass(exact2, W("c"))
        with pytest.raises(ValueError, match="different generating-set parameters"):
            convolve(du, dv)

    def test_scaled_norm(self, fam5):
        v = normalized_point_mass(W("c^4"), fam5).scaled(ExpScalar(Fraction(2)))
        assert omega_norm(v).equals(2)

    def test_norm_lists_unanswerable_words(self, fam5):
        v = WeightedVector.point_mass(fam5, W("a b"))
        with pytest.raises(UnknownLength) as exc:
            omega_norm(v)
        assert exc.value.words == (W("a b"),)

    def test_pairing_of_zero(self, fam5):
        assert pair_omega(WeightedVector(fam5, {})).is_zero()

    def test_pairing_bounded_by_norm(self, exact2):
        rng = random.Random(3)
        for _ in range(40):
            entries = {}
            for _ in range(rng.randint(0, 3)):
                u = IDENTITY
                for _ in range(rng.randint(0, 2)):
                    u = u * rng.choice(LETTERS).word()
                coeff = ExpScalar(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                    rng.randint(-2, 0),
                )
                entries[u] = entries.get(u, ExpSum()) + ExpSum.of(coeff)
            f = WeightedVector(exact2, entries)
            assert abs(pair_omega(f)) <= omega_norm(f)

    def test_submultiplicative_norm(self, exact2):
        rng = random.Random(17)
        for _ in range(1000):
            vecs = []
            for _ in range(2):
                entries = {}
                for _ in range(rng.randint(1, 3)):
                    u = IDENTITY
                    for _ in range(rng.randint(0, 2)):
                        u = u * rng.choice(LETTERS).word()
                    coeff = ExpScalar(Fraction(rng.randint(-4, 4), 3), 0)
                    entries[u] = entries.get(u, ExpSum()) + ExpSum.of(coeff)
                vecs.append(WeightedVector(exact2, entries))
            f, g = vecs
            lhs = omega_norm(convolve(f, g))
            rhs_f = omega_norm(f)
            rhs_g = omega_norm(g)
            # compare exactly: ||f*g|| <= ||f|| ||g||
            product = ExpSum.from_terms(
                (ef + eg, mf * mg)
                for ef, mf in rhs_f.terms
                for eg, mg in rhs_g.terms
            )
            assert lhs <= product

    def test_triple_product_norm_collapses(self, exact2):
        gj = normalized_point_mass(block_word(1, P2), exact2)
        u = W("c")
        mid = normalized_point_mass(u, exact2)
        prod = convolve(convolve(gj, mid), gj)
        total = (
            exact2.length(block_word(1, P2)) * 2 + exact2.length(u)
        )
        word = block_word(1, P2) * u * block_word(1, P2)
        norm = omega_norm(prod)
        assert norm.equals(ExpScalar(Fraction(1), exact2.length(word) - total))


class TestVectorLiteral:
    def test_round_trip(self, fam5):
        v = normalized_point_mass(W("c^2"), fam5) + WeightedVector.point_mass(
            fam5, W("c^5"), ExpScalar(Fraction(-3, 7), 4)
        )
        literal = vector_to_literal(v)
        assert {
            "word": "c^2",
            "mantissa": "1/1",
            "exp": -2,
        } in literal
        assert vector_from_literal(fam5, literal) == v

    def test_mixed_exponent_coefficient_round_trips(self, fam5):
        coeff = ExpSum.from_terms([(0, Fraction(1, 2)), (-3, Fraction(2, 5))])
        v = WeightedVector(fam5, {W("c"): coeff})
        assert vector_from_literal(fam5, vector_to_literal(v)) == v

    def test_repeated_words_accumulate(self, fam5):
        items = [
            {"word": "c", "mantissa": "1/2", "exp": 0},
            {"word": "c", "mantissa": "1/2", "exp": 0},
        ]
        v = vector_from_literal(fam5, items)
        assert v.entries[W("c")] == ExpSum.of(ONE)

    def test_malformed_word_names_the_item(self, fam5):
        # Word.parse names the offset; the item is named before it, as
        # for every other bad field, and the error is still the parser's
        items = [
            {"word": "c", "mantissa": "1/2", "exp": 0},
            {"word": "c^x", "mantissa": "1/2", "exp": 0},
        ]
        with pytest.raises(WordSyntaxError) as err:
            vector_from_literal(fam5, items)
        assert str(err.value) == "item 1 ('c^x'): bad term 'c^x' (at position 0)"
        assert err.value.position == 0

    def test_repr_lists_the_support_in_order(self, fam5):
        # a zero coefficient leaves the support; the identity prints as 1
        v = WeightedVector(
            fam5,
            {
                W("c^2"): ExpSum.from_terms([(-2, Fraction(1, 2)), (0, Fraction(3))]),
                IDENTITY: ExpSum.of(ONE),
                W("c"): ExpSum(),
            },
        )
        assert repr(v) == "WeightedVector({1: 1, c^2: 3 + 1/2*e^-2})"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # int() would read 1.5 and True as 1, Fraction() 0.1 as a binary float
            ("exp", 1.5, "item 1 ('c'): exp must be an integer, got 1.5"),
            ("exp", True, "item 1 ('c'): exp must be an integer, got True"),
            ("mantissa", 0.1, "item 1 ('c'): mantissa must be a 'p/q' string, got 0.1"),
            # int() would read "2" as 2 and refuse "1.5" without naming the item
            ("exp", "2", "item 1 ('c'): exp must be an integer, got '2'"),
            ("exp", "1.5", "item 1 ('c'): exp must be an integer, got '1.5'"),
            # Fraction() raises ZeroDivisionError and a bare ValueError here
            ("mantissa", "1/0", "item 1 ('c'): mantissa must be a 'p/q' string, got '1/0'"),
            ("mantissa", "abc", "item 1 ('c'): mantissa must be a 'p/q' string, got 'abc'"),
            # KeyError, TypeError and AttributeError named no item
            *(
                pytest.param(
                    field,
                    MISSING,
                    f"item 1: needs word, mantissa and exp, got {rest!r}",
                    id=f"missing-{field}",
                )
                for field, rest in [
                    ("word", {"mantissa": "1/2", "exp": 0}),
                    ("mantissa", {"word": "c", "exp": 0}),
                    ("exp", {"word": "c", "mantissa": "1/2"}),
                ]
            ),
            pytest.param(
                None,
                ["c", "1/2", 0],
                "item 1: needs word, mantissa and exp, got ['c', '1/2', 0]",
                id="item-list",
            ),
            pytest.param(
                None, "c", "item 1: needs word, mantissa and exp, got 'c'", id="item-str"
            ),
            pytest.param(
                "word", 5, "item 1: word must be a string, got 5", id="word-int"
            ),
            pytest.param(
                "word", None, "item 1: word must be a string, got None", id="word-none"
            ),
        ],
    )
    def test_inexact_fields_are_refused(self, fam5, field, value, message):
        second = {"word": "c", "mantissa": "1/2", "exp": 0}
        if field is None:
            second = value
        elif value is MISSING:
            del second[field]
        else:
            second[field] = value
        items = [{"word": "c^2", "mantissa": "1/2", "exp": 0}, second]
        with pytest.raises(ValueError) as err:
            vector_from_literal(fam5, items)
        assert str(err.value) == message


class TestDecayBounds:
    def test_min_tail_index(self):
        assert min_tail_index(2, W("b a b^-1"), P5) == 4
        assert min_tail_index(2, IDENTITY, P5) == 4
        assert min_tail_index(3, W("a"), P5) == 5
        assert min_tail_index(2, W(f"a^{5**6}"), P5) == 6

    @pytest.mark.parametrize("j,expo", [(2, -126), (3, -3126)])
    def test_bound_exponent(self, fam5, j, expo):
        for text in ["", "a", "b a b^-1", "c^2 a^-1"]:
            u = W(text)
            n, got = sandwich_decay_bound(j, u, min_tail_index(j, u, P5), fam5)
            assert got == expo == -1 - 5 ** (2 * j - 1)
            assert n == j + 2

    def test_tail_too_small(self, fam5):
        with pytest.raises(PreconditionViolated):
            sandwich_decay_bound(2, W("b a b^-1"), 3, fam5)

    def test_norm_bound_for_unit_vector(self, fam5):
        f = normalized_point_mass(W("c^10"), fam5)
        bound = sandwich_norm_bound(2, f, 4)
        assert bound.equals(ExpScalar(Fraction(1), -126))

    def test_norm_bound_strictly_smaller_for_subunit(self, fam5):
        f = normalized_point_mass(W("c^10"), fam5).scaled(
            ExpScalar(Fraction(1, 3))
        )
        bound = sandwich_norm_bound(2, f, 4)
        assert bound < ExpScalar(Fraction(1), -126)

    def test_norm_bound_of_the_zero_vector(self, fam5):
        assert sandwich_norm_bound(2, WeightedVector(fam5, {}), 4).is_zero()

    def test_norm_bound_below_the_tail_index(self, fam5):
        f = normalized_point_mass(W(f"c^{5**5}"), fam5)
        with pytest.raises(PreconditionViolated, match=r"below N\(j=2, f\) = 5$"):
            sandwich_norm_bound(2, f, 4)

    def test_decay_dominates_any_threshold(self, fam5):
        # the bound exponent falls strictly as the left index grows
        exponents = [
            sandwich_decay_bound(j, W("a"), min_tail_index(j, W("a"), P5), fam5)[1]
            for j in (2, 3, 4)
        ]
        assert exponents == sorted(exponents, reverse=True)
        assert len(set(exponents)) == 3
        assert exponents == [-126, -3126, -78126]

    def test_index_above_cap(self):
        # the left index is checked at once; the tail index min_tail_index
        # = 4 enters through the generator x(u^-1, 4)
        capped = WeightProvider(GenSetParams(5, 2, jmax_cap=3), mode="family")
        u = W("a")
        with pytest.raises(ValueError, match="^index 4 above jmax_cap=3$"):
            sandwich_decay_bound(4, u, 6, capped)
        with pytest.raises(ValueError, match="^index 4 above jmax_cap=3$"):
            sandwich_decay_bound(2, u, min_tail_index(2, u, P5), capped)


class TestChainProduct:
    def test_two_blocks(self, fam5):
        v = chain_product([(2, 1876), (2, 1)], fam5)
        word = chain_word([(2, 1876), (2, 1)], P5)
        assert v.support == [word]
        assert v.entries[word] == ExpSum.of(ExpScalar(Fraction(1), -2129))
        assert pair_omega(v).equals(1)
        assert omega_norm(v).equals(1)

    def test_single_block(self, fam5):
        assert pair_omega(chain_product([(2, 3)], fam5)).equals(1)

    def test_prefixes_are_the_shorter_chains(self, fam5):
        blocks = [(2, 1876), (2, 1876), (2, 1)]
        assert list(chain_prefixes(blocks, fam5)) == [
            chain_product(blocks[:t], fam5) for t in (1, 2, 3)
        ]

    def test_constraint_violation(self, fam5):
        with pytest.raises(ConstraintViolation):
            chain_product([(2, 100), (2, 1)], fam5)

    def test_index_above_cap(self):
        capped = WeightProvider(GenSetParams(5, 2, jmax_cap=2), mode="family")
        with pytest.raises(ValueError, match="index 3 above jmax_cap=2"):
            chain_product([(3, 1)], capped)


class TestSpectralProbe:
    def test_normalized_c_mass_stays_at_one(self, fam5):
        roots = spectral_probe(normalized_point_mass(W("c"), fam5), 5)
        assert all(r.is_one() for r in roots)

    def test_cyclic_chain_stays_at_one(self, fam5):
        f = chain_product([(2, 1876)], fam5)
        roots = spectral_probe(f, 5)
        assert all(r.is_one() for r in roots)

    def test_zero_vector(self, fam5):
        roots = spectral_probe(WeightedVector(fam5, {}), 4)
        assert all(r.is_zero() for r in roots)

    def test_subunit_mass_decays_exactly(self, fam5):
        f = normalized_point_mass(W("c"), fam5).scaled(ExpScalar(Fraction(1, 2)))
        roots = spectral_probe(f, 3)
        for k, r in enumerate(roots, start=1):
            assert r.exponent == 0
            if r.exact:
                assert r.mantissa == Fraction(1, 2)
            else:
                assert abs(r.mantissa - 0.5) < 1e-12

    def test_many_term_norm_has_a_float_root(self, fam5):
        # f = d(c)/2 + d(c^2)/3, so ||f^k|| = e^k (1/2 + e/3)^k exactly
        f = WeightedVector.point_mass(fam5, W("c"), ExpScalar(Fraction(1, 2)))
        f = f + WeightedVector.point_mass(fam5, W("c^2"), ExpScalar(Fraction(1, 3)))
        for r in spectral_probe(f, 4):
            assert not r.exact and r.exponent == 2
            assert math.isclose(r.mantissa, 1 / (2 * math.e) + 1 / 3, rel_tol=1e-14)


NO_MPMATH = textwrap.dedent(
    """
    import math
    import sys
    from fractions import Fraction

    sys.modules["mpmath"] = None  # any import of mpmath now fails
    from wordweight import cli
    from wordweight.algebra import (
        ExpScalar, ExpSum, WeightProvider, WeightedVector, spectral_probe
    )
    from wordweight.genset import GenSetParams
    from wordweight.words import Word

    assert cli.main(["radical-demo", "--j", "2,3", "--r", "2", "--kmax", "5"]) == 0
    assert ExpSum.from_terms([(1, Fraction(1)), (0, Fraction(-3))]).sign() == -1
    assert math.isclose(ExpScalar(Fraction(2), -1).to_float(), 2 / math.e)
    provider = WeightProvider(GenSetParams(base=5, jmin=2))
    f = WeightedVector.point_mass(provider, Word.parse("c"), ExpScalar(1)) + (
        WeightedVector.point_mass(provider, Word.parse("c^2"), ExpScalar(1))
    )
    assert not any(root.exact for root in spectral_probe(f, 3))
    """
)


def test_library_never_imports_mpmath():
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", NO_MPMATH],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
