import random
from fractions import Fraction

import pytest

from wordweight.algebra import (
    ExpScalar,
    ExpSum,
    NormRoot,
    ONE,
    WeightProvider,
    WeightedVector,
    block_word,
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
    xweight,
)
from wordweight.errors import (
    ConstraintViolation,
    PreconditionViolated,
    UnknownLength,
)
from wordweight.genset import GenSetParams
from wordweight.lengths import chain_word
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


class TestExpScalar:
    def test_normalizes_zero(self):
        assert ExpScalar(Fraction(0), 17) == ExpScalar(Fraction(0), 0)

    def test_product(self):
        x = ExpScalar(Fraction(2, 3), -5) * ExpScalar(Fraction(3), 2)
        assert x == ExpScalar(Fraction(2), -3)

    def test_to_float(self):
        import math

        assert abs(ExpScalar(Fraction(2), -1).to_float() - 2 / math.e) < 1e-14
        assert ExpScalar(Fraction(1), -100000).to_float() == 0.0


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
        assert three_over_e > 1
        assert ExpSum.of(ExpScalar(Fraction(2), -1)) < 1

    def test_mixed_sign_comparison(self):
        # e^1 - 2 > 0, e^1 - 3 < 0
        assert ExpSum.from_terms([(1, Fraction(1)), (0, Fraction(-2))]).sign() == 1
        assert ExpSum.from_terms([(1, Fraction(1)), (0, Fraction(-3))]).sign() == -1

    def test_abs_flips_negative_sums(self):
        s = ExpSum.from_terms([(0, Fraction(-2)), (-1, Fraction(1))])
        assert abs(s) == -s

    def test_as_scalar(self):
        assert ExpSum().as_scalar() == ExpScalar(Fraction(0))
        assert ExpSum.of(ONE).as_scalar() == ONE
        assert ExpSum.from_terms([(0, Fraction(1)), (1, Fraction(1))]).as_scalar() is None

    def test_to_float_accuracy(self):
        import math

        s = ExpSum.from_terms([(2, Fraction(1)), (0, Fraction(-1, 3))])
        expected = math.e**2 - 1 / 3
        assert abs(s.to_float() - expected) / expected < 1e-12


class TestProvider:
    def test_family_c_power(self, fam5):
        assert xweight(W("c^7"), fam5) == 7

    def test_family_block(self, fam5):
        assert xweight(W("a^625 b^625"), fam5) == 126

    def test_family_refuses_other_base(self):
        fam2 = WeightProvider(P2, mode="family")
        with pytest.raises(UnknownLength):
            xweight(W("a^4 b^4"), fam2)

    def test_exact_mode_small_base(self, exact2):
        assert xweight(W("a^4 b^4"), exact2) == 3

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

    def test_scaled_norm(self, fam5):
        v = normalized_point_mass(W("c^4"), fam5).scaled(ExpScalar(Fraction(2)))
        assert omega_norm(v).equals(2)

    def test_norm_lists_unanswerable_words(self, fam5):
        v = WeightedVector.point_mass(fam5, W("a b"))
        with pytest.raises(UnknownLength) as exc:
            omega_norm(v)
        assert exc.value.words == (W("a b"),)

    def test_pairing_of_zero(self, fam5):
        assert pair_omega(WeightedVector.zero(fam5)).is_zero()

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

    def test_decay_dominates_any_threshold(self, fam5):
        # the bound exponent falls strictly as the left index grows
        exponents = [
            sandwich_decay_bound(j, W("a"), min_tail_index(j, W("a"), P5), fam5)[1]
            for j in (2, 3, 4)
        ]
        assert exponents == sorted(exponents, reverse=True)
        assert len(set(exponents)) == 3
        assert exponents == [-126, -3126, -78126]


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
        roots = spectral_probe(WeightedVector.zero(fam5), 4)
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
