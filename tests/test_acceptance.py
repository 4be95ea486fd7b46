"""Acceptance suite: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Scaled-base exact values are oracle results for the scaled generating
set only; closed-form equalities are asserted only at base 5 where they
are proven.
"""

import random
import time
from fractions import Fraction

import pytest

from wordweight.algebra import (
    ExpScalar,
    ExpSum,
    WeightProvider,
    WeightedVector,
    chain_product,
    min_tail_index,
    normalized_point_mass,
    omega_norm,
    pair_omega,
    sandwich_decay_bound,
    sandwich_norm_bound,
    spectral_probe,
)
from wordweight.genset import GenSetParams
from wordweight.lengths import (
    Certificate,
    Direction,
    SearchBudget,
    best_certificate_bound,
    block_witness,
    certified_power_collapse,
    chain_witness,
    chain_word,
    eval_certificate,
    single_biggen_cancellation,
    verify_factorization,
    xlength,
)
from wordweight.words import IDENTITY, LETTERS, Word, hom_value

W = Word.parse
P5 = GenSetParams(base=5, jmin=2)
P2 = GenSetParams(base=2, jmin=1)

BIG = 5**20


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def random_reduced_word(rng: random.Random, max_runs: int, big_exponents: bool) -> Word:
    runs = []
    prev = None
    for _ in range(rng.randint(0, max_runs)):
        base = rng.choice([b for b in "abc" if b != prev])
        prev = base
        if big_exponents and rng.random() < 0.5:
            exp = rng.choice([-1, 1]) * rng.randint(BIG // 2, BIG)
        else:
            exp = rng.choice([e for e in range(-4, 5) if e])
        runs.append((base, exp))
    return Word(tuple(runs))


def random_target(rng: random.Random, max_letters: int) -> Word:
    goal = rng.randint(0, max_letters)
    u = IDENTITY
    while u.s_length < goal:
        nu = u * rng.choice(LETTERS).word()
        if nu.s_length > u.s_length:
            u = nu
    return u


def test_criterion_01_algebra_laws():
    rng = random.Random(0xC0FFEE)
    homs = [(1, 1, 0), (0, 1, -1), (0, 0, 1), (2, -1, 3)]
    started = time.perf_counter()
    for trial in range(10_000):
        big = trial % 4 == 0
        u = random_reduced_word(rng, 4, big)
        v = random_reduced_word(rng, 4, big)
        w = random_reduced_word(rng, 3, False)

        for candidate in (u * v, ~u, (u * v) * w):
            for i, (base, exp) in enumerate(candidate.runs):
                assert exp != 0
                assert i == 0 or candidate.runs[i - 1][0] != base

        assert (u * v) * w == u * (v * w)
        assert u * ~u == IDENTITY
        assert (u * v).s_length <= u.s_length + v.s_length

        coeffs = homs[trial % len(homs)]
        assert hom_value(coeffs, u * v) == hom_value(coeffs, u) + hom_value(coeffs, v)

        na, nb, nc = u.abelianize()
        assert u.s_length >= abs(na) + abs(nb) + abs(nc)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"algebra laws took {elapsed:.1f} s"
    report(1, f"10^4 randomized law chains, exponents up to 5^20, {elapsed:.2f} s")


@pytest.fixture(scope="module")
def exact_suite():
    """Criterion 2 corpus: dual-engine exact results on 100 random targets,
    shared with criterion 10."""
    rng = random.Random(20260809)
    budget = SearchBudget(max_nodes=500_000)
    results = []
    started = time.perf_counter()
    for _ in range(100):
        u = random_target(rng, 6)
        best = xlength(u, P2, budget=budget, mode="exact", algorithm="best-first")
        deep = xlength(u, P2, budget=budget, mode="exact", algorithm="deepening")
        results.append((u, best, deep))
    return results, time.perf_counter() - started


def test_criterion_02_dual_oracle_agreement(exact_suite):
    results, elapsed = exact_suite
    disagreements = 0
    for u, best, deep in results:
        assert best.exact and not best.budget_exhausted, str(u)
        assert deep.exact and not deep.budget_exhausted, str(u)
        if best.lower != deep.lower:
            disagreements += 1
        product, count = verify_factorization(best.witness, P2)
        assert product == u and count == best.lower
    assert disagreements == 0
    assert elapsed < 300.0, f"dual searches took {elapsed:.1f} s"
    report(2, f"100 targets, best-first == deepening everywhere, {elapsed:.2f} s")


def test_criterion_03_certificate_collapse():
    started = time.perf_counter()
    cert = certified_power_collapse("c", P5)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"certificate check took {elapsed:.3f} s"
    # one certificate covers every k: spot-check it on the general path
    for k in (1, 2, 17, 12_345, 10**6):
        u = Word((("c", k),))
        assert eval_certificate(cert, u, P5) == k == u.s_length
        result = xlength(u, P5, mode="bracket")
        assert result.exact and result.lower == k and result.nodes_expanded == 0
    report(3, f"|c^k| = k for every k >= 1 with no search, {elapsed*1000:.0f} ms")


def test_criterion_04_block_witnesses_paper_scale():
    checked = []
    for n in (2, 3):
        for k in (0, 5):
            started = time.perf_counter()
            witness = block_witness(n, k, P5)
            product, count = verify_factorization(witness, P5)
            outer = 5 ** (2 * n)
            expected = W(f"c^{k}") * W(f"a^{outer} b^{outer}")
            assert product == expected
            assert count == k + 5 ** (2 * n - 1) + 1
            elapsed = time.perf_counter() - started
            assert elapsed < 1.0
            checked.append(count)
    report(4, f"block witnesses verified, counts {checked}")


def test_criterion_05_chain_witnesses_minimal_admissible():
    counts = []
    for r in (1, 2, 3):
        started = time.perf_counter()
        blocks = [(2, 3 * 5**4 + 1)] * (r - 1) + [(2, 1)]
        witness = chain_witness(blocks, P5)
        product, count = verify_factorization(witness, P5)
        assert product == chain_word(blocks, P5)
        assert count == sum(5**3 + 1 + k for _, k in blocks)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        counts.append(count)
    assert counts[1] == 2129
    report(5, f"chain witnesses verified for r=1,2,3, counts {counts}")


def test_criterion_06_scaled_lower_bound_probe():
    recorded = []
    for k in range(4):
        target = W(f"c^{k}") * W("a^4 b^4")
        result = xlength(target, P2, mode="exact", algorithm="dual")
        assert result.exact and not result.budget_exhausted
        witness_upper = block_witness(1, k, P2).symbol_count
        assert witness_upper == k + 3
        cert_lower, _ = best_certificate_bound(target, P2)
        assert cert_lower <= result.lower <= witness_upper
        recorded.append((k, cert_lower, result.lower, witness_upper))
    # equality with k+3 is recorded, not asserted: the closed form is
    # proven at base 5 only, and these are base-2 oracle values.
    report(6, "exact |c^k a^4 b^4| at base 2: "
              + ", ".join(f"k={k}: [{lo}] {ex} [{up}]" for k, lo, ex, up in recorded))


def test_criterion_07_decay_exponents():
    provider = WeightProvider(P5, mode="family")
    seen = {}
    for j in (2, 3):
        for text in ("", "a", "b a b^-1", "c^2 a^-1"):
            u = W(text)
            started = time.perf_counter()
            n, exponent = sandwich_decay_bound(j, u, min_tail_index(j, u, P5), provider)
            elapsed = time.perf_counter() - started
            assert elapsed < 1.0
            assert exponent == -1 - 5 ** (2 * j - 1)
            seen.setdefault(j, set()).add(exponent)
    assert seen[2] == {-126} and seen[3] == {-3126}
    report(7, "triple-product decay exponents are exactly -126 (j=2), -3126 (j=3)")


def _random_family_word(rng: random.Random) -> Word:
    kind = rng.randrange(3)
    if kind == 0:
        return Word((("c", rng.randint(1, 40)),)) if rng.random() < 0.9 else IDENTITY
    if kind == 1:
        n = rng.choice([2, 3])
        k0 = rng.randint(0, 30)
        k1 = rng.randint(0, 30)
        runs = ([("c", k0)] if k0 else []) + [("a", 5 ** (2 * n)), ("b", 5 ** (2 * n))]
        if k1:
            runs.append(("c", k1))
        return Word.from_runs(runs)
    r = rng.choice([2, 3])
    blocks = []
    for i in range(r):
        n = rng.choice([2, 3])
        blocks.append((n, 0))
    ks = []
    for i in range(r - 1):
        ks.append(3 * 5 ** (2 * blocks[i + 1][0]) + rng.randint(1, 50))
    ks.append(rng.randint(1, 50))
    return chain_word([(n, k) for (n, _), k in zip(blocks, ks)], P5)


def test_criterion_08_sandwich_norm_bound():
    rng = random.Random(88)
    provider = WeightProvider(P5, mode="family")
    violations = 0
    for _ in range(100):
        entries = {}
        support_size = rng.randint(1, 4)
        weights = [Fraction(rng.randint(1, 9)) for _ in range(support_size)]
        total = sum(weights) + rng.randint(0, 3)  # <= 1 after normalization
        for m in weights:
            u = _random_family_word(rng)
            coeff = ExpScalar(
                m / total * rng.choice([1, -1]),
                -provider.length(u) - rng.randint(0, 2),
            )
            entries[u] = entries.get(u, ExpSum()) + ExpSum.of(coeff)
        f = WeightedVector(provider, entries)
        if not f.entries:
            continue
        assert omega_norm(f) <= 1
        j = rng.choice([2, 3])
        k = max(min_tail_index(j, u, P5) for u in f.entries) + rng.randint(0, 1)
        bound = sandwich_norm_bound(j, f, k)
        limit = ExpScalar(Fraction(1), -1 - 5 ** (2 * j - 1))
        if not bound <= limit:
            violations += 1
    assert violations == 0
    report(8, "100 random unit vectors: sandwiched norm bound <= e^(-1-5^(2j-1))")


def test_criterion_09_chain_pairing_and_probe():
    provider = WeightProvider(P5, mode="family")
    one = ExpSum.of(ExpScalar(Fraction(1), 0))
    chains = [
        [(2, 1876)],
        [(2, 1876), (2, 1)],
        [(3, 1876)],
        [(2, 46876), (3, 1876)],
        [(2, 46876), (3, 1876), (2, 1)],
    ]
    for blocks in chains:
        assert len(blocks) <= 3
        vec = chain_product(blocks, provider)
        assert pair_omega(vec) == one  # structural equality, zero tolerance
        assert omega_norm(vec) == one
    probe = spectral_probe(chain_product([(2, 1876)], provider), 5)
    assert len(probe) == 5 and all(root.is_one() for root in probe)
    report(9, f"{len(chains)} chain pairings exactly 1; probe all-ones for K=5 "
              "(decay on one side, spectral persistence on the other)")


def test_criterion_10_cancellation_property(exact_suite):
    results, _ = exact_suite
    witnesses = [best.witness for _, best, _ in results]
    # the random corpus rarely factors through a big generator, so add
    # exact searches on block-shaped targets where one is optimal
    extra_targets = [
        W("a^4 b^4"), W("c a^4 b^4"), W("c^2 a^4 b^4"), W("c^3 a^4 b^4"),
        W("a^4 b^4 c"), W("a^4 b^3"), W("a^5 b^4"), W("b^-1 a^4 b^4"),
    ]
    for target in extra_targets:
        result = xlength(target, P2, mode="exact", algorithm="dual")
        assert result.exact
        witnesses.append(result.witness)
    checked = 0
    for witness in witnesses:
        stats = single_biggen_cancellation(witness, P2)
        if stats is None:
            continue
        cancelled, size = stats
        assert 2 * cancelled < size, witness
        checked += 1
    assert checked >= len(extra_targets)
    report(10, f"{checked} single-generator minimal factorizations all cancel "
               "strictly less than half the expansion")
