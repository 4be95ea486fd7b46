import importlib.util
import itertools
import random
import sys
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from wordweight import genset, lengths, words
from wordweight.errors import (
    ConstraintViolation,
    IndexTooSmall,
    InvalidCertificate,
    PreconditionViolated,
    UnknownLength,
)
from wordweight.genset import BigGen, GenSetParams
from wordweight.lengths import (
    _blocks_factorization,
    _blocks_length,
    _blocks_word,
    _pool_hulls,
    _scan_blocks,
    Certificate,
    Direction,
    Factorization,
    LengthResult,
    SearchBudget,
    best_certificate_bound,
    block_witness,
    certificate_pool,
    chain_witness,
    chain_word,
    eval_certificate,
    family_length,
    letters_factorization,
    pool_bound,
    shape_witness,
    single_biggen_cancellation,
    verify_factorization,
    xlength,
)
from wordweight.search import Outcome, build_moves, deepening, make_heuristic, state_key
from wordweight.words import IDENTITY, LETTERS, POW_RUN_LIMIT, Letter, Word

W = Word.parse
P5 = GenSetParams(base=5, jmin=2)
P2 = GenSetParams(base=2, jmin=1)
P3 = GenSetParams(base=3, jmin=1)

PHI_C_UPPER = Certificate((0, 0, 1), Direction.UPPER)
PSI_LOWER = Certificate((0, 1, -1), Direction.LOWER)


# reduced words of up to eight letters, as the letters_b2 workload draws
letter_words = st.lists(st.sampled_from(LETTERS), max_size=8).map(
    lambda letters: Word.from_runs((letter.base, letter.sign) for letter in letters)
)


def _perfbench_workloads():
    """The benchmark's workload module, ``perfbench/workloads.py``."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        # registered first: its dataclasses look their module up by name
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


# exponents reach past 5^4 so that base-5 certificates are not all tied
reduced_words = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(-700, 700).filter(bool)),
    max_size=6,
).map(Word.from_runs)


def scan_pool_bound(ab, base):
    """Reference for ``pool_bound``: the scan over every pool row, which
    keeps the first row that reaches the best ceil(value / cap)."""
    best, first = 0, None
    for i, cert in enumerate(certificate_pool(base)):
        row = [-c for c in cert.coeffs]  # a LOWER certificate bounds by -coeffs
        value = sum(r * n for r, n in zip(row, ab))
        cap = max(map(abs, row))
        if -(-value // cap) > best:
            best, first = -(-value // cap), i
    return best, first


# one size per abelianization, so that every direction is as likely
abelianizations = st.sampled_from([40, 2**40, 5**13]).flatmap(
    lambda size: st.tuples(*[st.integers(-size, size)] * 3)
)


class TestPoolBound:
    @settings(max_examples=600, deadline=None)
    @given(abelianizations, st.sampled_from([2, 3, 5]))
    def test_closed_form_matches_the_pool_scan(self, ab, base):
        assert pool_bound(ab, base) == scan_pool_bound(ab, base)

    def test_first_maximum_past_index_100(self):
        # b^5 c^-1 at base 2: the first row to reach the bound is row 123,
        # (3, -2, 3) as a LOWER certificate, so the scan runs that far
        assert pool_bound((0, 5, -1), 2) == (5, 123)
        assert scan_pool_bound((0, 5, -1), 2) == (5, 123)
        assert certificate_pool(2)[123].coeffs == (3, -2, 3)

    @pytest.mark.parametrize("base", range(2, 8))
    def test_hull_vertices_reach_every_feasible_maximum(self, base):
        hulls = _pool_hulls(base)
        for k in (1, 2, 3):
            feasible = [
                (ra, rb)
                for ra in range(-k, k + 1)
                for rb in range(-k, k + 1)
                if ra * base + rb * (base + 1) <= 0
            ]
            vertices = [(ra, rb) for ra, rb, cap in hulls if cap == k]
            assert len(vertices) == 4 and set(vertices) <= set(feasible)
            for na, nb in itertools.product(range(-7, 8), repeat=2):
                assert max(ra * na + rb * nb for ra, rb in vertices) == max(
                    ra * na + rb * nb for ra, rb in feasible
                )
        # 3 B - 2 (B+1) <= 0 only at base 2
        assert ((3, -2, 3) in hulls) == (base == 2)

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

    def test_block_witness_negative_power(self):
        with pytest.raises(ValueError, match="^k must be >= 0$"):
            block_witness(2, -1, P5)

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

    def test_chain_witness_empty(self):
        with pytest.raises(ValueError, match="^empty block list$"):
            chain_witness([], P5)

    def test_verify_empty(self):
        assert verify_factorization(Factorization(), P5) == (IDENTITY, 0)

    def test_verify_mixed_base2(self):
        f = Factorization.from_symbols(
            [letters_factorization(W("a")).items[0][0], BigGen(IDENTITY, 1)]
        )
        assert verify_factorization(f, P2) == (W("a b^2 a^4 b^4"), 2)

    def test_verify_refuses_an_oversized_power(self):
        # n copies of the 3-run core b^2 a^4 b^4 would hold more than
        # POW_RUN_LIMIT runs; the power refuses before building any of them
        f = Factorization(((BigGen(IDENTITY, 1), POW_RUN_LIMIT // 3 + 1),))
        with pytest.raises(PreconditionViolated, match="would hold more than"):
            verify_factorization(f, P2)

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

    def test_block_above_the_cap_refused(self):
        capped = GenSetParams(base=5, jmin=2, jmax_cap=2)
        assert family_length(W("a^625 b^625"), capped)[0] == 126
        assert family_length(W("a^15625 b^15625"), capped) is None

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

    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError, match="^unknown mode 'fast'$"):
            xlength(W("c^3"), P2, mode="fast")

    # exact and exhaustive are read from the bracket and the method, so
    # the one inconsistent state left is a lower end above the upper
    @pytest.mark.parametrize(
        "lower, upper, message",
        [(3, 2, "lower bound exceeds upper bound")],
        ids=["lower-above-upper"],
    )
    def test_result_refuses_an_inconsistent_bracket(self, lower, upper, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LengthResult(lower, upper, None, None, False, 0, 0.0, "bracket")

    def test_identity(self):
        r = xlength(IDENTITY, P2, mode="exact")
        assert r.exact and r.lower == 0 and r.witness.symbol_count == 0

    def test_budget_exhaustion_returns_bracket(self):
        r = xlength(
            W("a^625 b^625"), P5, budget=SearchBudget(max_nodes=500), mode="exact"
        )
        assert not r.exact and r.budget_exhausted
        assert r.lower <= 126 <= r.upper

    @pytest.mark.parametrize("algorithm", ["best-first", "deepening", "dual"])
    @pytest.mark.parametrize("text", ["c a c^-2 b a c^-1 b c^-2 b^-1 c", "a^4 b^4 c"])
    def test_search_below_max_cost_decides_the_length(self, text, algorithm):
        # every engine completes below max_cost = upper - 1 without a
        # path, which proves the witness's length: the search decided it
        # (on a^4 b^4 c, with no node, as h(u) is above the cap)
        u = W(text)
        upper = xlength(u, P2, mode="bracket").upper
        assert xlength(u, P2).lower == upper
        r = xlength(u, P2, SearchBudget(max_cost=upper - 1), algorithm=algorithm)
        method = "dual" if algorithm == "dual" else "search"
        assert (r.lower, r.upper, r.method) == (upper, upper, method)
        assert r.exhaustive and not r.budget_exhausted

    @pytest.mark.parametrize("algorithm", ["best-first", "deepening", "dual"])
    def test_a_path_that_ties_the_witness_is_not_taken(self, monkeypatch, algorithm):
        # every engine proves 4, the bracket witness's length, so the
        # witness stays and no path is re-multiplied; deepening alone
        # ends at the path b^-1 *2, c, x(c^-1, 1), which only ties it
        calls = []

        def counting_verify(f, params):
            calls.append(f)
            return verify_factorization(f, params)

        monkeypatch.setattr(lengths, "verify_factorization", counting_verify)
        r = xlength(W("c a^4 b^4"), P2, algorithm=algorithm)
        assert (r.lower, r.upper) == (4, 4)
        assert r.witness.symbol_strings() == block_witness(1, 1, P2).symbol_strings()
        assert calls == []

    def test_dual_deepening_searches_below_the_witness(self, monkeypatch):
        # best-first, cut short by the node budget, reaches f = 10 with no
        # path shorter than the 10 letters, so deepening is capped at 9;
        # h(u) = 10 is above that, and it proves the letters optimal with
        # no node (capped at 10, it spent 4)
        caps = []

        def spy_deepening(u, moves, cap, h, budget, t0):
            caps.append(cap)
            return deepening(u, moves, cap, h, budget, t0)

        monkeypatch.setattr(lengths, "deepening", spy_deepening)
        r = xlength(W("b^-2 a b c a^-3 c^2"), P2, SearchBudget(max_nodes=3),
                    algorithm="dual")
        assert caps == [9]
        assert (r.lower, r.upper, r.method, r.nodes_expanded) == (10, 10, "dual", 4)
        assert not r.budget_exhausted

    @pytest.mark.parametrize("cost", [None, 1])
    def test_invalid_engine_path_raises(self, monkeypatch, cost):
        # a one-symbol path that does not multiply back to the target, as a
        # proven optimum (cost 1: lower 1) or as an unproven budget path
        # (cost None: lower 0)
        def fake_best_first(u, moves, cap, h, budget, t0):
            return Outcome(cost or 0, [Letter("a", 1)], 1)

        monkeypatch.setattr(lengths, "best_first", fake_best_first)
        with pytest.raises(ArithmeticError, match="invalid witness"):
            xlength(W("c a c^-2 b a c^-1 b"), P2, mode="exact")

    def test_dual_engines_that_disagree_raise(self, monkeypatch):
        # deepening proves a lower end above the path best-first proved
        def fake_deepening(u, moves, cap, h, budget, t0):
            return Outcome(10**6, None, 1)

        monkeypatch.setattr(lengths, "deepening", fake_deepening)
        message = "^search proved a lower end 1000000 above "
        with pytest.raises(ArithmeticError, match=message):
            xlength(W("c a c^-2 b a c^-1 b"), P2, mode="exact", algorithm="dual")

    def test_dual_catches_a_suboptimal_best_first_cost(self, monkeypatch):
        # b^2 a^4 has length 5 (x(1, 1), then b^-1 four times); its six
        # letters are a valid path one symbol too long, which deepening's
        # proof below 6 refutes with a path of 5
        u = W("b^2 a^4")
        assert xlength(u, P2, algorithm="best-first").lower == 5

        def fake_best_first(u, moves, cap, h, budget, t0):
            path = [Letter("b", 1)] * 2 + [Letter("a", 1)] * 4
            return Outcome(6, path, 1)

        monkeypatch.setattr(lengths, "best_first", fake_best_first)
        message = "^search proved a lower end 6 above the witness's 5 "
        with pytest.raises(ArithmeticError, match=message):
            xlength(u, P2, mode="exact", algorithm="dual")

    @staticmethod
    def check_dual(u) -> int:
        """Dual's bracket, method and witness are those of best-first, which
        deepening alone confirms, as when deepening searched up to the
        bracket's upper end; its nodes are best-first's and those of
        deepening's passes below the cost, which complete without a path.
        Returns the number of those nodes."""
        upper = xlength(u, P2, mode="bracket").upper
        first = xlength(u, P2, algorithm="best-first")
        dual = xlength(u, P2, algorithm="dual")
        assert first.exact and not dual.budget_exhausted
        method = "dual" if first.method == "search" else first.method  # collapse
        assert (dual.lower, dual.upper, dual.method, dual.witness) == (
            first.lower, first.upper, method, first.witness)
        if method != "dual":
            return 0
        assert xlength(u, P2, algorithm="deepening").lower == first.lower
        moves = build_moves(u, upper, P2, SearchBudget())
        h = make_heuristic(P2, moves.families)
        check = deepening(u, moves, first.lower - 1, h, SearchBudget(), 0.0)
        assert check.path is None and check.lower >= first.lower
        assert dual.nodes_expanded == first.nodes_expanded + check.nodes
        return check.nodes

    @pytest.mark.parametrize("text, nodes", [
        ("c a^4 b^4 c^-1 a", 9),
        ("c^2 a^4 b^4 c b a c^-1", 183),
        ("c a c^-2 b a c^-1 b c^-2 b^-1 c", 713),
    ])
    def test_dual_cross_check_that_visits_nodes(self, text, nodes):
        # on these words h(u) < c, so deepening's proof takes passes
        assert self.check_dual(W(text)) == nodes

    def test_dual_on_the_letters_b2_corpus(self):
        # the seed-7 corpus of the benchmark workload that runs dual
        workloads = _perfbench_workloads()
        lib = SimpleNamespace(words=words, genset=genset, lengths=lengths)
        corpus = workloads.LettersB2().make(lib, random.Random(7))
        assert len(corpus) > 100
        for item in corpus:
            self.check_dual(item.word)

    @settings(max_examples=150, deadline=None)
    @given(letter_words)
    def test_dual_on_letter_words(self, u):
        self.check_dual(u)

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
                    nxt = Word(mv.runs) * state
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
            assert len(outcome.path) == outcome.lower == normal.lower


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
