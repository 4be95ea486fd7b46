import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from wordweight import lengths
from wordweight.errors import (
    ConstraintViolation,
    IndexTooSmall,
    InvalidCertificate,
    UnknownLength,
)
from wordweight.genset import BigGen, GenSetParams
from wordweight.lengths import (
    _blocks_factorization,
    _blocks_length,
    _blocks_word,
    _scan_blocks,
    Certificate,
    Direction,
    Factorization,
    SearchBudget,
    best_certificate_bound,
    block_witness,
    certificate_pool,
    chain_witness,
    chain_word,
    eval_certificate,
    family_length,
    letters_factorization,
    shape_witness,
    single_biggen_cancellation,
    verify_factorization,
    xlength,
)
from wordweight.search import Outcome, build_moves, make_heuristic, state_key
from wordweight.words import IDENTITY, LETTERS, Letter, Word

W = Word.parse
P5 = GenSetParams(base=5, jmin=2)
P2 = GenSetParams(base=2, jmin=1)
P3 = GenSetParams(base=3, jmin=1)

PHI_C_UPPER = Certificate((0, 0, 1), Direction.UPPER)
PSI_LOWER = Certificate((0, 1, -1), Direction.LOWER)


# exponents reach past 5^4 so that base-5 certificates are not all tied
reduced_words = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(-700, 700).filter(bool)),
    max_size=6,
).map(Word.from_runs)


class TestPoolBound:
    @settings(max_examples=150, deadline=None)
    @given(reduced_words, st.sampled_from([P2, P5]))
    def test_best_bound_is_first_pool_maximum(self, u, params):
        pool = certificate_pool(params.base)
        values = [eval_certificate(cert, u, params) for cert in pool]
        bound, cert = best_certificate_bound(u, params)
        assert bound == max(values)
        assert cert == (pool[values.index(bound)] if bound else None)

    @settings(max_examples=150, deadline=None)
    @given(reduced_words, st.sampled_from([P2, P5]))
    def test_pool_bound_dominates_every_certificate(self, u, params):
        # completeness: no valid certificate in [-3, 3]^3, in either
        # direction and primitive or not, beats the pool
        best = best_certificate_bound(u, params)[0]
        for coeffs in itertools.product(range(-3, 4), repeat=3):
            for direction in Direction:
                try:
                    value = eval_certificate(Certificate(coeffs, direction), u, params)
                except InvalidCertificate:
                    continue
                assert value <= best

    def test_pool_holds_each_functional_once_as_lower(self):
        for base, size in [(2, 153), (3, 146), (5, 146)]:
            pool = certificate_pool(base)
            assert len(pool) == size
            assert all(cert.direction is Direction.LOWER for cert in pool)
            coeffs = [cert.coeffs for cert in pool]
            assert coeffs == sorted(set(coeffs))

    @settings(max_examples=150, deadline=None)
    @given(reduced_words, st.sampled_from([P2, P5]))
    def test_heuristic_dominates_certificate_bound(self, u, params):
        h = make_heuristic(params, (params.jmin,))
        assert h(state_key(u)) >= best_certificate_bound(u, params)[0]


class TestCertificates:
    def test_c_count_on_c_power(self):
        assert eval_certificate(PHI_C_UPPER, W("c^5"), P5) == 5

    def test_b_minus_c_lower(self):
        assert eval_certificate(PSI_LOWER, W("c^2 b^-125"), P5) == 127

    def test_unbounded_functional_rejected(self):
        with pytest.raises(InvalidCertificate):
            eval_certificate(Certificate((1, 0, 0), Direction.UPPER), W("a"), P5)
        with pytest.raises(InvalidCertificate):
            eval_certificate(Certificate((0, 0, 0), Direction.UPPER), W("a"), P5)

    def test_wrong_side_gives_zero(self):
        assert eval_certificate(PHI_C_UPPER, W("c^-4"), P5) == 0
        assert eval_certificate(PSI_LOWER, W("b^9"), P5) == 0

    def test_pool_is_deterministic_and_valid(self):
        pool = certificate_pool(2)
        assert pool == certificate_pool(2)
        for cert in pool:
            # must not raise
            eval_certificate(cert, W("a b c"), P2)

    def test_pool_bounds_are_sound_on_witnessed_words(self):
        # every pool bound must sit below a verified witness count
        for text, n, k in [("a^625 b^625", 2, 0), ("c^5 a^625 b^625", 2, 5)]:
            u = W(text)
            wit = block_witness(n, k, P5)
            prod, count = verify_factorization(wit, P5)
            assert prod == u
            bound, _ = best_certificate_bound(u, P5)
            assert bound <= count


class TestWitnesses:
    @pytest.mark.parametrize(
        "n,k,count",
        [(2, 0, 126), (2, 2, 128), (3, 0, 3126), (3, 5, 3131)],
    )
    def test_block_witness(self, n, k, count):
        wit = block_witness(n, k, P5)
        prod, got = verify_factorization(wit, P5)
        assert got == count == k + 5 ** (2 * n - 1) + 1
        expected = W(f"c^{k}") * W(f"a^{5**(2*n)}") * W(f"b^{5**(2*n)}")
        assert prod == expected

    def test_block_witness_index_too_small(self):
        with pytest.raises(IndexTooSmall):
            block_witness(1, 0, P5)

    def test_chain_witness_two_blocks(self):
        wit = chain_witness([(2, 1876), (2, 1)], P5)
        prod, count = verify_factorization(wit, P5)
        assert count == 2129 == 126 + 1876 + 126 + 1
        assert prod == chain_word([(2, 1876), (2, 1)], P5)

    def test_chain_witness_single_block(self):
        wit = chain_witness([(2, 3)], P5)
        prod, count = verify_factorization(wit, P5)
        assert count == 129
        assert prod == W("a^625 b^625 c^3")

    def test_chain_constraint_violation(self):
        with pytest.raises(ConstraintViolation) as exc:
            chain_witness([(2, 100), (2, 1)], P5)
        assert exc.value.index == 2

    def test_chain_requires_positive_separators(self):
        with pytest.raises(ValueError):
            chain_witness([(2, 0)], P5)

    def test_verify_empty(self):
        assert verify_factorization(Factorization(), P5) == (IDENTITY, 0)

    def test_verify_mixed_base2(self):
        f = Factorization.from_symbols(
            [letters_factorization(W("a")).items[0][0], BigGen(IDENTITY, 1)]
        )
        assert verify_factorization(f, P2) == (W("a b^2 a^4 b^4"), 2)

    def test_letters_factorization_is_run_compressed(self):
        f = letters_factorization(W(f"c^{10**6}"))
        assert len(f.items) == 1
        assert f.symbol_count == 10**6
        prod, count = verify_factorization(f, P5)
        assert prod == W(f"c^{10**6}") and count == 10**6


class TestFamilyRecognizer:
    def test_c_powers_any_base(self):
        assert family_length(W("c^7"), P2)[0] == 7
        assert family_length(IDENTITY, P2)[0] == 0

    def test_negative_c_power_refused(self):
        assert family_length(W("c^-3"), P5) is None

    def test_single_block(self):
        length, wit = family_length(W("c^3 a^625 b^625"), P5)
        assert length == 129
        assert verify_factorization(wit, P5) == (W("c^3 a^625 b^625"), 129)

    def test_block_with_tail(self):
        length, _ = family_length(W("a^625 b^625 c^4"), P5)
        assert length == 126 + 4

    def test_chain(self):
        u = chain_word([(2, 1876), (2, 1)], P5)
        length, _ = family_length(u, P5)
        assert length == 2129

    def test_chain_missing_constraint_refused(self):
        u = chain_word([(2, 100), (2, 1)], P5)
        assert family_length(u, P5) is None

    def test_wrong_base_refused(self):
        assert family_length(W("a^4 b^4"), P2) is None

    def test_non_family_shapes_refused(self):
        for text in [
            "a",
            "a^625 b^624",
            "a^625 b^625 c^-1",
            "b^625 a^625",
            "a^625 b^625 a",
            # adjacent blocks: a separator 0 before the last block
            "a^625 b^625 a^625 b^625 c",
            "c^2 a^625 b^625 a^15625 b^15625",
        ]:
            assert family_length(W(text), P5) is None

    def test_leading_c_on_chain_refused(self):
        u = W("c") * chain_word([(2, 1876), (2, 1)], P5)
        assert family_length(u, P5) is None


class TestBlockFamily:
    """The closed forms of c^(k0) [a^(B^2n) b^(B^2n) c^k]*."""

    @pytest.mark.parametrize("params,n", [(P2, 1), (P2, 2), (P5, 2), (P5, 3)])
    def test_separator_boundary(self, params, n):
        threshold = 3 * params.outer_exp(n)
        with pytest.raises(ConstraintViolation) as exc:
            chain_witness([(n, threshold + 1), (n, threshold), (n, 1)], params)
        assert exc.value.index == 3
        assert str(exc.value) == (
            f"separator k_2 = {threshold} is not greater than "
            f"3*B^(2*{n}) = {threshold}"
        )
        blocks = [(n, threshold + 1), (n, 1)]
        wit = chain_witness(blocks, params)
        assert verify_factorization(wit, params) == (
            chain_word(blocks, params), _blocks_length(0, blocks, params)
        )
        if params == P5:
            assert family_length(chain_word([(n, threshold), (n, 1)], P5), P5) is None
            assert family_length(chain_word(blocks, P5), P5)[0] == (
                2 * (5 ** (2 * n - 1) + 1) + threshold + 2
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([P2, P3, P5]),
        st.integers(0, 40),
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 40)), min_size=1, max_size=4
        ),
    )
    def test_round_trip(self, params, k0, raw):
        blocks = [(params.jmin + dn, k) for dn, k in raw]
        u = _blocks_word(k0, blocks, params)
        assert _scan_blocks(u, params) == (k0, blocks)
        closed = _blocks_length(k0, blocks, params)
        wit = _blocks_factorization(k0, blocks, params)
        assert wit.symbol_count == closed
        assert verify_factorization(wit, params) == (u, closed)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 40),
        st.lists(
            st.tuples(st.integers(2, 3), st.integers(0, 40)), min_size=1, max_size=4
        ),
    )
    def test_family_length_is_the_closed_form(self, k0, raw):
        ns = [n for n, _ in raw]
        if len(raw) == 1:
            blocks = raw
        else:
            # admissible chain: each separator clears the next block, the
            # last is at least 1, and nothing precedes the first block
            k0 = 0
            blocks = [
                (n, 3 * 5 ** (2 * n_next) + 1 + d)
                for (n, d), n_next in zip(raw, ns[1:])
            ] + [(ns[-1], raw[-1][1] + 1)]
        length, wit = family_length(_blocks_word(k0, blocks, P5), P5)
        assert length == _blocks_length(k0, blocks, P5) == wit.symbol_count


class TestShapeWitness:
    def test_adjacent_blocks_allowed(self):
        u = W("a^4 b^4 a^16 b^16")
        wit = shape_witness(u, P2)
        prod, count = verify_factorization(wit, P2)
        assert prod == u
        assert count == (2 + 1) + (8 + 1)

    def test_non_shape_returns_none(self):
        assert shape_witness(W("a^3 b^4"), P2) is None


class TestXLength:
    def test_c_power_collapses_without_search(self):
        r = xlength(W("c^3"), P2, mode="bracket")
        assert (r.lower, r.upper, r.exact, r.nodes_expanded) == (3, 3, True, 0)

    def test_exact_small_block(self):
        r = xlength(W("a^4 b^4"), P2, mode="exact", algorithm="dual")
        assert r.exact and r.lower == 3
        prod, count = verify_factorization(r.witness, P2)
        assert prod == W("a^4 b^4") and count == 3

    def test_bracket_contains_block_witness(self):
        r = xlength(W("a^625 b^625"), P5, mode="bracket")
        assert r.lower <= 126 <= r.upper
        assert r.upper == 126
        assert not r.exact

    def test_family_mode(self):
        r = xlength(W("c^3 a^625 b^625"), P5, mode="family")
        assert r.exact and r.lower == 129 and r.method == "family"
        with pytest.raises(UnknownLength):
            xlength(W("a b"), P5, mode="family")

    def test_identity(self):
        r = xlength(IDENTITY, P2, mode="exact")
        assert r.exact and r.lower == 0 and r.witness.symbol_count == 0

    def test_budget_exhaustion_returns_bracket(self):
        r = xlength(
            W("a^625 b^625"), P5, budget=SearchBudget(max_nodes=500), mode="exact"
        )
        assert not r.exact and r.budget_exhausted
        assert r.lower <= 126 <= r.upper

    @pytest.mark.parametrize("cost", [None, 1])
    def test_invalid_engine_path_raises(self, monkeypatch, cost):
        # a one-symbol path that does not multiply back to the target, as a
        # proven optimum (cost 1) or as an unproven budget path (cost None)
        def fake_best_first(u, moves, cap, h, budget, t0):
            return Outcome(cost, [Letter("a", 1)], 1, 1 if cost else 0)

        monkeypatch.setattr(lengths, "best_first", fake_best_first)
        with pytest.raises(ArithmeticError, match="invalid witness"):
            xlength(W("c a c^-2 b a c^-1 b"), P2, mode="exact")

    @pytest.mark.parametrize(
        "u,params,budget",
        [(W("c^3"), P2, None), (W("a^625 b^625"), P5, SearchBudget(max_nodes=500))],
    )
    def test_unknown_algorithm_refused_without_search(self, u, params, budget):
        # neither input reaches an engine: c^3 collapses, and the index-2
        # family at base 5 is refused by its size
        with pytest.raises(ValueError, match="^unknown algorithm 'bogus'$"):
            xlength(u, params, budget=budget, algorithm="bogus")

    def test_engines_agree_on_random_words(self):
        rng = random.Random(11)
        for _ in range(25):
            u = IDENTITY
            target = rng.randint(0, 5)
            while u.s_length < target:
                nu = u * rng.choice(LETTERS).word()
                if nu.s_length > u.s_length:
                    u = nu
            a = xlength(u, P2, mode="exact", algorithm="best-first")
            b = xlength(u, P2, mode="exact", algorithm="deepening")
            assert a.exact and b.exact and a.lower == b.lower

    def test_matches_blind_breadth_first(self):
        # Independent oracle: breadth-first over the same moves with no
        # heuristic and no certificates, feasible for short answers.
        def blind(u, depth_cap):
            if u.is_identity():
                return 0
            moves = build_moves(u, depth_cap, P2, SearchBudget())
            dist = {u: 0}
            queue = deque([u])
            while queue:
                state = queue.popleft()
                d = dist[state] + 1
                if d > depth_cap:
                    continue
                for mv in moves.moves:
                    nxt = mv.inverse * state
                    if nxt.is_identity():
                        return d
                    if nxt not in dist and d < depth_cap:
                        dist[nxt] = d
                        queue.append(nxt)
            return None

        rng = random.Random(23)
        cases = [W("a^4 b^4"), W("c a^4 b^4"), W("a^3 b^4"), W("b^2 a^4")]
        for _ in range(12):
            u = IDENTITY
            target = rng.randint(0, 4)
            while u.s_length < target:
                nu = u * rng.choice(LETTERS).word()
                if nu.s_length > u.s_length:
                    u = nu
            cases.append(u)
        for u in cases:
            r = xlength(u, P2, mode="exact", algorithm="dual")
            assert r.exact
            if r.lower <= 4:
                assert blind(u, r.lower) == r.lower
            else:
                assert blind(u, 4) is None

    def test_subadditive_upper_in_exact_mode(self):
        rng = random.Random(31)
        for _ in range(20):
            parts = []
            for _ in range(2):
                u = IDENTITY
                target = rng.randint(0, 3)
                while u.s_length < target:
                    nu = u * rng.choice(LETTERS).word()
                    if nu.s_length > u.s_length:
                        u = nu
                parts.append(u)
            u, v = parts
            ruv = xlength(u * v, P2, mode="exact")
            ru = xlength(u, P2, mode="exact")
            rv = xlength(v, P2, mode="exact")
            assert ruv.upper <= ru.upper + rv.upper

    def test_index_cutoff_is_sound(self):
        # Searching with generator families beyond the cutoff enabled must
        # not find anything shorter.
        import time as _time

        from wordweight.search import best_first

        rng = random.Random(41)
        budget = SearchBudget(max_nodes=500_000)
        for _ in range(6):
            u = IDENTITY
            target = rng.randint(2, 5)
            while u.s_length < target:
                nu = u * rng.choice(LETTERS).word()
                if nu.s_length > u.s_length:
                    u = nu
            normal = xlength(u, P2, mode="exact")
            # wildly inflated upper bound unlocks higher generator indices
            wide_moves = build_moves(u, u.s_length + 40, P2, budget)
            h = make_heuristic(P2, wide_moves.families)
            outcome = best_first(
                u, wide_moves, u.s_length, h, budget, _time.perf_counter()
            )
            assert len(wide_moves.moves) > 31  # extra families really enabled
            assert outcome.cost == normal.lower


class TestCancellationCount:
    def test_block_witness_cancellation(self):
        wit = block_witness(1, 2, P2)  # c^2, b^-1 x2, x(1,1)
        cancelled, size = single_biggen_cancellation(wit, P2)
        assert (cancelled, size) == (2, 10)
        assert 2 * cancelled < size

    def test_none_for_multiple_biggens(self):
        wit = chain_witness([(2, 1876), (2, 1)], P5)
        assert single_biggen_cancellation(wit, P5) is None

    def test_none_for_letters_only(self):
        assert single_biggen_cancellation(letters_factorization(W("a b")), P2) is None
