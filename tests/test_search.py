"""The move set and the search heuristic: refusal and the one bounded
cache of frozen move sets in build_moves, and its goal table;
soundness, dominance over the earlier bound and bounded cost of the
heuristic, and its one bounded memo per move set, shared by searches
and threads; the family floor and the
monotonicity that the engines' family scoring rests on, and that step
and the child scan both engines share against a per-child scan; the
one-step child builder against the general product, the least child
count, and the checks on a search budget's fields;
differential tests of exact lengths, through xlength and of the two
engines called directly, and the bracket a budgeted best-first search
proves; the deadlines of the listing and of both engines; the heap
best-first holds; and both engines against full-scan references:
best-first's partial expansion, which pushes a node back instead of
its children, against the full-expansion loop it replaced, on fixed
targets and on random words, deepening against a plain recursive one."""

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
from functools import lru_cache
from heapq import heappop, heappush
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from wordweight.errors import BudgetExhausted
from wordweight.genset import (
    BigGen,
    GenSetParams,
    enumerate_generators,
    expand_generator,
    longest_expansion,
    max_usable_index,
    normalize_conjugator,
    theta_value,
)
from wordweight.lengths import (
    Factorization,
    LengthResult,
    SearchBudget,
    chain_word,
    pool_bound,
    verify_factorization,
    xlength,
)
from wordweight import cli, search
from wordweight.search import (
    MoveSet,
    Outcome,
    _rebuild,
    best_first,
    build_moves,
    deepening,
    make_heuristic,
    state_key,
)
from wordweight.words import IDENTITY, LETTERS, Word, mul_runs

P2 = GenSetParams(base=2, jmin=1)


def untimed(r: LengthResult) -> LengthResult:
    """The result with its time set to 0, so that two runs compare equal."""
    return LengthResult(
        r.lower, r.upper, r.witness, r.certificate, r.budget_exhausted,
        r.nodes_expanded, 0.0, r.method,
    )


# (base, upper-bound widening): build_moves on the square of the first
# generator gives the index-1 family alone; widening the upper bound by
# 40 at base 2 unlocks index 2 as well (higher families, and index 2 at
# bases 3 and 5, are too large to list).
MOVE_SET_SPECS = [(2, 0), (2, 40), (3, 0), (5, 0)]


@lru_cache(maxsize=None)
def move_set(base: int, widen: int) -> tuple[GenSetParams, MoveSet]:
    params = GenSetParams(base=base, jmin=1)
    g = expand_generator(BigGen(IDENTITY, 1), params)
    u = g * g
    moves = build_moves(u, u.s_length + widen, params, SearchBudget())
    assert moves.families == ((1, 2) if widen else (1,))
    return params, moves


def earlier_heuristic(r: Word, params: GenSetParams, moves: MoveSet) -> int:
    """The bound the relaxation replaced: the best certificate pool bound
    or the counting bound min over m of
    max(m (T+1) - theta, |r| - m (E-1), m), whichever is larger."""
    slen = r.s_length
    if not moves.families:
        return slen
    ab = r.abelianize()
    theta = ab[0] + ab[1]
    big_theta = theta_value(params.jmin, params)
    grow = longest_expansion(params, moves.families[-1]) - 1
    struct = slen
    m = 1
    while m * (big_theta + 1) - theta < struct:
        cand = max(m * (big_theta + 1) - theta, slen - m * grow, m)
        struct = min(struct, cand)
        m += 1
    return max(pool_bound(ab, params.base)[0], struct)


short_words = st.lists(
    st.tuples(
        st.sampled_from("abc"),
        st.one_of(st.integers(-3, 3), st.integers(-10, 10)).filter(bool),
    ),
    max_size=4,
).map(Word.from_runs)

remainders = st.lists(
    st.tuples(
        st.sampled_from("abc"),
        st.one_of(st.integers(-12, 12), st.integers(-700, 700)).filter(bool),
    ),
    max_size=6,
).map(Word.from_runs)


class TestBuildMoves:
    def test_paper_scale_refused_before_listing(self):
        # cutoff 4 at base 5: every family from index 2 up has at least
        # 5^25 generators, far above the node budget
        params = GenSetParams(base=5, jmin=2)
        u = Word((("a", 5**8), ("b", 5**8)))
        assert max_usable_index(u, u.s_length, params) == 4
        errors = []

        def run():
            try:
                build_moves(u, u.s_length, params, SearchBudget(max_nodes=10**6))
            except BudgetExhausted as exc:
                errors.append(str(exc))

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert errors == ["index-2 family exceeds max_count=1000000"]

    def test_node_budget_below_a_family(self):
        params, moves = move_set(2, 40)  # families 1 and 2: 25 and 625
        g = expand_generator(BigGen(IDENTITY, 1), params)
        u = g * g
        message = "^index-2 family exceeds max_count=624$"
        with pytest.raises(BudgetExhausted, match=message):
            build_moves(u, u.s_length + 40, params, SearchBudget(max_nodes=624))
        fits = build_moves(u, u.s_length + 40, params, SearchBudget(max_nodes=625))
        assert fits.moves == moves.moves and len(moves.moves) == 6 + 25 + 625

    def test_calls_share_one_frozen_move_set(self):
        params = GenSetParams(base=2, jmin=1)
        g = expand_generator(BigGen(IDENTITY, 1), params)
        u = g * Word((("c", 1),))
        first = build_moves(u, u.s_length, params, SearchBudget())
        assert first.families == (1,) and len(first.moves) == 6 + 25
        # another target and bound with the same families reads the same value
        assert build_moves(u, u.s_length, params, SearchBudget()) is first
        assert build_moves(g * g, (g * g).s_length, params, SearchBudget()) is first
        assert isinstance(first.moves, tuple) and isinstance(first.groups, tuple)
        with pytest.raises(AttributeError):
            first.moves = ()

    def test_cache_keeps_the_newest_move_sets(self, monkeypatch):
        monkeypatch.setattr(search, "_move_sets", {})
        monkeypatch.setattr(search, "_MOVE_SET_LIMIT", 2)
        u = Word.parse("a b")
        # upper bounds 2, 20 and 40 put the index cutoff at none, 1 and 2
        built = [build_moves(u, upper, P2, SearchBudget()) for upper in (2, 20, 40)]
        assert [moves.families for moves in built] == [(), (1,), (1, 2)]
        assert list(search._move_sets) == [(P2, (1,)), (P2, (1, 2))]
        assert build_moves(u, 20, P2, SearchBudget()) is built[1]
        assert build_moves(u, 40, P2, SearchBudget()) is built[2]
        # the evicted letters-only set is listed again, equal but new
        again = build_moves(u, 2, P2, SearchBudget())
        assert again == built[0] and again is not built[0]
        assert list(search._move_sets) == [(P2, (1, 2)), (P2, ())]

    def test_bases_do_not_share_families(self):
        expansions = {}
        for base in (2, 3):
            _, moves = move_set(base, 0)
            assert moves.moves[6:] == moves.groups[0].moves
            goals = moves.goals.items()
            expansions[base] = {e for e, g in goals if isinstance(g, BigGen)}
        assert len(expansions[2]) == 25 and len(expansions[3]) == 125
        assert expansions[2].isdisjoint(expansions[3])

    def test_listing_stops_at_the_deadline(self, monkeypatch):
        # the move set is listed afresh here; a listing whose deadline has
        # passed raises at its first generator, and nothing of it is kept
        params, moves = move_set(2, 40)
        monkeypatch.setattr(search, "_move_sets", {})
        g = expand_generator(BigGen(IDENTITY, 1), params)
        u = g * g
        late = SearchBudget(max_millis=50)
        with pytest.raises(BudgetExhausted, match="^index-1 family not listed"):
            build_moves(u, u.s_length + 40, params, late, time.perf_counter() - 1)
        assert search._move_sets == {}
        # a call without a deadline lists every family whole
        full = build_moves(u, u.s_length + 40, params, SearchBudget())
        assert full.moves == moves.moves
        assert [len(fam.moves) for fam in full.groups] == [25, 625]
        # a listed move set is read, not listed again, so no deadline applies
        again = build_moves(u, u.s_length + 40, params, late, time.perf_counter() - 1)
        assert again is full

    def test_deadline_during_a_long_listing(self):
        # the base-2 index-3 family has 390,625 generators and takes
        # seconds to list; max_ms stops the listing and xlength answers
        # with its bracket
        u = Word.parse("a^64 b^64 c")
        t0 = time.perf_counter()
        r = xlength(u, P2, SearchBudget(max_millis=50))
        assert time.perf_counter() - t0 < 1
        assert (r.method, r.lower, r.upper, r.nodes_expanded) == ("budget", 23, 34, 0)
        assert (P2, (1, 2, 3)) not in search._move_sets

    def test_families_share_one_abelianisation(self):
        params, moves = move_set(2, 40)
        assert moves.families == (1, 2)
        for j, fam in zip(moves.families, moves.groups):
            d = params.inner_exp(j)
            assert {mv.ab for mv in fam.moves} == {(-2 * d, -3 * d, 0)}
            letters = [mv.letters for mv in fam.moves]
            assert (fam.lo, fam.hi) == (min(letters), max(letters))
            assert fam.hi == longest_expansion(params, j)

    @pytest.mark.parametrize("spec", MOVE_SET_SPECS)
    def test_goal_table_files_every_expansion_once(self, spec):
        params, moves = move_set(*spec)
        # one entry per move, keyed by the runs of its expansion: distinct
        # generators have distinct expansions
        assert len(moves.goals) == len(moves.moves)
        assert moves.goals == {
            expand_generator(mv.gen, params).runs: mv.gen for mv in moves.moves
        }


class TestHeuristic:
    @settings(max_examples=150, deadline=None)
    @given(remainders, st.sampled_from(MOVE_SET_SPECS))
    def test_dominates_earlier_bound(self, r, spec):
        params, moves = move_set(*spec)
        h = make_heuristic(params, moves.families)
        assert earlier_heuristic(r, params, moves) <= h(state_key(r)) <= r.s_length

    def test_admissible_on_short_products(self):
        # a product of k moves has move-set length at most k
        rng = random.Random(3)
        for spec in MOVE_SET_SPECS:
            params, moves = move_set(*spec)
            h = make_heuristic(params, moves.families)
            expansions = [expand_generator(mv.gen, params) for mv in moves.moves]
            assert all(h(state_key(x)) <= 1 for x in expansions)
            for _ in range(300):
                k = rng.randint(2, 4)
                product = IDENTITY
                for x in rng.choices(expansions, k=k):
                    product = product * x
                assert h(state_key(product)) <= k

    def test_admissible_at_paper_scale(self):
        # build_moves refuses every base-5 family; the heuristic needs
        # only closed-form family data, so it is checked on expansions
        # listed directly
        params = GenSetParams(base=5, jmin=2)
        h = make_heuristic(params, (2, 3))
        expansions = [
            expand_generator(gen, params)
            for j in (2, 3)
            for gen in itertools.islice(enumerate_generators(params, j), 200)
        ]
        expansions += [letter.word() for letter in LETTERS]
        assert all(h(state_key(x)) <= 1 for x in expansions)
        rng = random.Random(5)
        for _ in range(300):
            k = rng.randint(2, 4)
            product = IDENTITY
            for x in rng.choices(expansions, k=k):
                product = product * x
            assert h(state_key(product)) <= k

    def test_exact_values(self):
        # ab(a^5 b^7) = (5, 7, 0). Index 1 alone: one generator covers
        # (4, 6, 0) and leaves 2 letters, so 3. With index 2 as well, t may
        # be any real in [2, 8]; t = 7/3 leaves 1/3, and 1 + 1/3 rounds up
        # to 2.
        u = Word.from_runs([("a", 5), ("b", 7)])
        values = []
        for spec in [(2, 0), (2, 40)]:
            params, moves = move_set(*spec)
            values.append(make_heuristic(params, moves.families)(state_key(u)))
        assert values == [3, 2]

    def test_bounded_cost_on_huge_exponents(self):
        # the earlier counting loop ran once per unit of exponent
        for params, n in [(P2, 2**40), (GenSetParams(base=5, jmin=2), 5**20)]:
            r = Word((("a", n), ("b", -n)))
            h = make_heuristic(params, (params.jmin,))
            values = []
            worker = threading.Thread(target=lambda: values.append(h(state_key(r))), daemon=True)
            worker.start()
            worker.join(timeout=10)
            assert values == [2 * n]

    def test_one_memo_per_params_and_families(self):
        h = make_heuristic(P2, (1,))
        assert make_heuristic(GenSetParams(base=2, jmin=1), (1,)) is h
        others = [
            make_heuristic(P2, (1, 2)),
            make_heuristic(GenSetParams(base=3, jmin=1), (1,)),
            make_heuristic(GenSetParams(base=2, jmin=2), (2,)),
        ]
        assert len({id(f) for f in [h] + others}) == 1 + len(others)
        key = state_key(Word.parse("a^5 b^7 c"))
        before = [f.cache_info().misses for f in others]
        h(key)
        hits = h.cache_info().hits
        assert h(key) == make_heuristic(GenSetParams(base=2, jmin=1), (1,))(key)
        assert h.cache_info().hits == hits + 2
        assert [f.cache_info().misses for f in others] == before

    @pytest.mark.parametrize("algorithm", ["best-first", "deepening", "dual"])
    def test_warm_memo_changes_no_result(self, algorithm):
        # every field but the time must match between a search with a
        # fresh memo and one that finds the keys of every other target
        # already stored
        targets = engine_targets()

        def results(order):
            return {
                u: untimed(xlength(u, P2, algorithm=algorithm))
                for u in order
            }

        make_heuristic.cache_clear()
        cold = results(targets)
        assert make_heuristic(P2, (1,)).cache_info().currsize > 0
        warm = results(reversed(targets))
        assert warm == cold
        assert sum(r.nodes_expanded for r in cold.values()) > 0

    def test_memo_limit(self, monkeypatch):
        rng = random.Random(11)
        words = [
            Word.from_runs([(rng.choice("abc"), rng.randint(-40, 40) or 1) for _ in range(4)])
            for _ in range(400)
        ]
        keys = list(dict.fromkeys(state_key(u) for u in words))
        fresh = make_heuristic.__wrapped__(P2, (1, 2))
        expected = [fresh(key) for key in keys]
        monkeypatch.setattr(search, "_MEMO_LIMIT", 50)
        h = make_heuristic.__wrapped__(P2, (1, 2))
        for _ in range(2):  # the second pass misses again after each eviction
            values = []
            for key in keys:
                values.append(h(key))
                assert h.cache_info().currsize <= 50
            assert values == expected
        assert h.cache_info().misses == 2 * len(keys) > 100

    def test_threads_share_one_memo(self, monkeypatch):
        # a small limit makes threads evict keys under each other's
        # lookups; a value recomputed or stored twice is still the value
        targets = engine_targets() + index2_targets()[:2]

        def run(out):
            for u in targets:
                out.append(untimed(xlength(u, P2, algorithm="dual")))

        make_heuristic.cache_clear()
        expected = []
        run(expected)
        monkeypatch.setattr(search, "_MEMO_LIMIT", 64)
        make_heuristic.cache_clear()
        outs = [[] for _ in range(4)]  # more threads than a small host has cores
        workers = [threading.Thread(target=run, args=(out,), daemon=True) for out in outs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert all(out == expected for out in outs)
        assert all(make_heuristic(P2, f).cache_info().currsize <= 64 for f in [(1,), (1, 2)])


def compose(p: tuple, q: tuple) -> tuple:
    """The permutation p q: q first, then p."""
    return tuple(p[i] for i in q)


@lru_cache(maxsize=None)
def quotient_oracle(base: int):
    """phi and d_G of best-first's quotient at ``base`` from its images
    alone, apart from the library's tables: phi(u) composes the run
    powers of the images left to right, and d_G is a breadth-first search
    that multiplies on the right."""
    images = search._QUOTIENT_IMAGES[base]
    one = tuple(range(len(images["a"])))
    powers = {}  # letter -> the powers of its image, up to its order
    for letter, image in images.items():
        seq = [one]
        while (nxt := compose(seq[-1], image)) != one:
            seq.append(nxt)
        powers[letter] = seq

    def phi(u: Word) -> tuple:
        g = one
        for letter, exp in u.runs:
            seq = powers[letter]
            g = compose(g, seq[exp % len(seq)])
        return g

    steps = {seq[1] for seq in powers.values()} | {seq[-1] for seq in powers.values()}
    dist, layer = {one: 0}, [one]
    while layer:
        nxt = []
        for g in layer:
            for step in steps:
                x = compose(g, step)
                if x not in dist:
                    dist[x] = dist[g] + 1
                    nxt.append(x)
        layer = nxt
    return phi, dist


def quotient_distance(base: int):
    """d_G(phi(w)) from ``quotient_oracle``, or 0 at a base with no
    quotient."""
    if base not in search._QUOTIENT_IMAGES:
        return lambda w: 0
    phi, dist = quotient_oracle(base)
    return lambda w: dist[phi(w)]


class TestQuotient:
    """Best-first's finite quotient: every expansion maps to 1, and d_G
    is a lower bound on the length, checked against the oracles; its
    gate; and its tables, built on first use."""

    def test_group_and_tables(self):
        _, dist = quotient_oracle(2)
        quot = search.quotient(2)
        assert len(dist) == len(quot.dist) == 5040 and max(dist.values()) == 10
        assert quot.diameter == 10 and sorted(quot.dist) == sorted(dist.values())
        assert {letter: len(rows) for letter, rows in quot.rows.items()} == {
            "a": 2, "b": 2, "c": 6,
        }
        # eight rows of 5,040 two-byte indices: the identity, phi(a),
        # phi(b) and the five other powers of phi(c)
        rows = {id(row): row for powers in quot.rows.values() for row in powers}
        assert sum(row.itemsize * len(row) for row in rows.values()) == 80_640
        assert all(search.quotient(base) is None for base in (3, 5))

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from((1, 2)),
        st.sampled_from((0, 1)),
        st.lists(st.sampled_from(LETTERS), max_size=8),
    )
    def test_expansions_map_to_the_identity(self, jmin, step, letters):
        params = GenSetParams(base=2, jmin=jmin)
        j = jmin + step
        letters = letters[: params.conjugator_bound(j)]
        conj = Word.from_runs((letter.base, letter.sign) for letter in letters)
        x = expand_generator(normalize_conjugator(conj, j, params), params)
        phi, _ = quotient_oracle(2)
        assert phi(x) == phi(IDENTITY)
        assert search.quotient(2).distance(x.runs) == 0
        assert search.quotient(2).distance((~x).runs) == 0

    @settings(max_examples=150, deadline=None)
    @given(short_words)
    @example(Word.parse("c a c^-2 b a c^-1 b"))
    @example(Word.parse("c^2 a^4 b^4 c b a c^-1"))
    def test_distance_bounds_the_length(self, u):
        d = search.quotient(2).distance(u.runs)
        assert d == quotient_distance(2)(u)
        # the oracle is exact up to 5 letters and index-1 moves
        oracle = blind_length(u)
        if oracle <= 5:
            assert d <= oracle, str(u)

    @settings(max_examples=100, deadline=None)
    @given(short_words, st.sampled_from(((2, 0), (2, 40))))
    @example(Word.parse("a^2 b^3 c"), (2, 0))
    @example(Word.parse("c a^2 b^-1"), (2, 40))
    def test_relaxation_equal_to_letters_is_the_length(self, u, spec):
        # h <= |u|_X <= |u|, so the gate leaves d_G unread where h = |u|
        params, moves = move_set(*spec)
        h = make_heuristic(params, moves.families)(state_key(u))
        if h == u.s_length:
            assert blind_length(u) == min(h, 6), str(u)

    def test_built_on_the_first_base2_best_first_search(self):
        # not at import, by the certificate pools, brackets, a base-3
        # search or deepening; then once, by best-first at base 2
        code = textwrap.dedent(
            """
            from wordweight import lengths, search
            from wordweight.genset import GenSetParams
            from wordweight.words import Word
            builds = search.quotient.cache_info
            for base in (2, 5):
                lengths.certificate_pool(base)
            u = Word.parse("c a c^-2 b a c^-1 b")
            p2, p3 = GenSetParams(base=2, jmin=1), GenSetParams(base=3, jmin=1)
            lengths.xlength(u, p2, mode="bracket")
            lengths.xlength(u, p2, algorithm="deepening")
            assert builds().misses == 0, builds()
            lengths.xlength(Word.parse("a^9 b^8 c"), p3)
            assert search.quotient(3) is None
            lengths.xlength(u, p2)
            lengths.xlength(Word.parse("c^2 a^4 b^4 c b a c^-1"), p2)
            assert builds().misses == 2 and builds().currsize == 2, builds()
            """
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr


abelian = st.tuples(
    *[st.one_of(st.integers(-12, 12), st.integers(-3000, 3000))] * 3
)
extra_letters = st.one_of(st.integers(0, 12), st.integers(0, 5000))


class TestFamilyFloor:
    """What the engines' family scoring relies on: h is monotone in the
    letter count from the l1 norm of the abelianisation up, and the
    floor key of a family is below every child's key."""

    HEURISTICS = [(base, fams) for base in (2, 3, 5) for fams in ((1,), (1, 2))]

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(HEURISTICS), abelian, extra_letters, extra_letters)
    def test_monotone_in_letters(self, spec, ab, extra, more):
        base, families = spec
        h = make_heuristic(GenSetParams(base=base, jmin=1), families)
        least = sum(map(abs, ab)) + extra
        assert h((*ab, least)) <= h((*ab, least + more))

    @settings(max_examples=60, deadline=None)
    @given(remainders, st.sampled_from([(2, 0), (2, 40)]))
    def test_floor_below_every_child(self, r, spec):
        params, moves = move_set(*spec)
        h = make_heuristic(params, moves.families)
        key = state_key(r)
        for fam in moves.groups:
            floor = fam.floor(key)
            assert floor[3] >= sum(map(abs, floor[:3]))
            least = h(floor)
            for move in fam.moves:
                child = state_key(Word(move.runs) * r)
                assert child[:3] == floor[:3] and child[3] >= floor[3]
                assert least <= h(child)


class TestFamilyChildren:
    """The family-scoring step of both engines, and the child scan they
    share, against a per-child scan that builds every child and calls h
    on it."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([(2, 0), (2, 40), (3, 0)]),
        remainders.filter(bool),
        st.integers(1, 20),
        st.integers(-2, 6),
    )
    def test_matches_per_child_scan(self, spec, r, ncost, slack):
        params, moves = move_set(*spec)
        h = make_heuristic(params, moves.families)
        key = state_key(r)
        anti = search._signed(r.runs[0][0], -r.runs[0][1])
        for fam in moves.groups:
            floor_f = ncost + h(fam.floor(key))
            limit = floor_f + slack
            children = [(move, state_key(Word(move.runs) * r)) for move in fam.moves]
            scored = [(h(child), move, child) for move, child in children]
            passing, over = search._family_children(
                fam, h, key, r.runs, anti, ncost, limit, float("inf")
            )
            passing = list(passing)
            # exactly the children that pass, in move order, with h and key
            assert passing == [c for c in scored if ncost + c[0] <= limit]
            # a prefix by letter count: L*, the largest passing count, is
            # below every failing child's
            failing = [c for c in scored if ncost + c[0] > limit]
            if passing:
                cut = max(child[3] for _, _, child in passing)
                assert all(cut < child[3] for _, _, child in failing)
            # the overshoot: the least f among the failing children
            assert over == min((ncost + c[0] for c in failing), default=float("inf"))
            # with the overshoot at the floor's f, a failing floor leaves
            # the family out unscored
            rest, rest_over = search._family_children(
                fam, h, key, r.runs, anti, ncost, limit, floor_f
            )
            skipped = (list(rest), rest_over)
            left_out = ([], float("inf"))
            assert skipped == (left_out if floor_f > limit else (passing, over))

        # the shared scan, letters included, at one limit for the node
        inf, limit = float("inf"), ncost + h(key) + slack
        children = [(move, state_key(Word(move.runs) * r)) for move in moves.moves]
        scored = [(h(child), move, child) for move, child in children]
        passing = [c for c in scored if ncost + c[0] <= limit]
        least = min((ncost + c[0] for c in scored if ncost + c[0] > limit), default=inf)
        # Each group of moves, a letter or a family, has children of one
        # abelianisation, and no two groups share one, so the
        # abelianisation of an h call names the group it scores.
        groups = [(move,) for move in search._LETTER_MOVES] + [
            fam.moves for fam in moves.groups
        ]
        abs_of = [state_key(Word(group[0].runs) * r)[:3] for group in groups]
        assert len(set(abs_of)) == len(groups)
        group_of = {id(move): g for g, group in enumerate(groups) for move in group}
        calls = []

        def counted(key):
            calls.append(key)
            return h(key)

        def scan(over):
            return search._children(
                moves.groups, counted, key, r.runs, ncost, limit, over
            )

        # A family left out has every child's f at least the overshoot it
        # was left out at, so the overshoot ends where a full scan's does:
        # at the least failing f, or at its start if that is lower. Start
        # 0 is best-first's, start inf a fresh deepening pass's.
        for start in (inf, limit + 1, 0):
            over = [start]
            calls.clear()
            assert list(scan(over)) == passing
            assert over[0] == min(start, least)
        # with start 0 a family whose floor fails is scored by that one call
        for fam, ab in zip(moves.groups, abs_of[len(search._LETTER_MOVES) :]):
            if ncost + h(fam.floor(key)) > limit:
                assert [c for c in calls if c[:3] == ab] == [fam.floor(key)]

        # A consumer that stops after the k-th child makes no h call for a
        # group past the child's: stop at each letter child and at each
        # family's last passing child, where the next group would be scored.
        n = len(passing)
        for k in range(1, n + 1):
            g = group_of[id(passing[k - 1][1])]
            if k == n or g != group_of[id(passing[k][1])]:
                calls.clear()
                assert len(list(itertools.islice(scan([inf]), k))) == k
                assert {c[:3] for c in calls} <= set(abs_of[: g + 1])


def join(head: tuple, rest: tuple) -> tuple:
    """``head`` then ``rest``, two reduced run sequences, when they do not
    meet on one base; ``head`` alone when they do."""
    return head + rest if not rest or rest[0][0] != head[-1][0] else head


def facing_states(move, rest: Word, k: int, size: int) -> dict[str, tuple]:
    """States that meet ``move``'s last run (base, exp) in each way a
    product can reduce there, each followed by ``rest`` when that keeps
    it reduced: a first run on another base, one that merges with it, one
    that cancels part of it (size ``size``, or one more if that is
    |exp|), and the inverse of the move's last ``k`` runs, which cancels
    it whole and walks on."""
    base, exp = move.runs[-1]
    other = "b" if base == "a" else "a"
    sign = 1 if exp > 0 else -1
    part = size if size != abs(exp) else size + 1
    heads = {
        "other base": ((other, size),),
        "merge": ((base, sign * size),),
        "partial cancel": ((base, -sign * part),),
        "whole cancel": tuple((b, -e) for b, e in reversed(move.runs[-k:])),
    }
    return {case: join(head, rest.runs) for case, head in heads.items()}


class TestMoveApply:
    """The one-step child builder both engines use, against the general
    reduced product, and the least letter count of a family's children,
    which ``_family_children`` finds without listing every count."""

    SPECS = [(2, 0), (2, 40), (3, 0)]

    @settings(max_examples=40, deadline=None)
    @given(remainders, st.integers(1, 4), st.integers(1, 40))
    def test_matches_mul_runs(self, rest, k, size):
        # every letter move and every family move at bases 2 and 3
        for spec in [(2, 40), (3, 0)]:
            _, moves = move_set(*spec)
            for move in moves.moves:
                states = facing_states(move, rest, min(k, len(move.runs)), size)
                assert states["whole cancel"][0] == (move.base, -move.exp)
                for state in (rest.runs, *states.values()):
                    if state:
                        assert move.apply(state) == mul_runs(move.runs, state)

    @pytest.mark.parametrize("spec", SPECS)
    def test_least_count_is_the_least_child(self, spec):
        # States whose first run is cancelled by each tail, at every size
        # of that tail's last runs, one less and one more, and by a whole
        # cancel that walks on; scored on the family, and on the moves of
        # that tail alone, where every move's count is adjusted.
        params, moves = move_set(*spec)
        h = make_heuristic(params, moves.families)
        inf = float("inf")
        for fam in moves.groups:
            for tail, ix in fam.tails.items():
                base, sign = tail.lower(), -1 if tail.islower() else 1
                other = "b" if base == "a" else "a"
                states = set()
                for rest in [(), ((other, 3), (base, sign))]:
                    for i, size in ix:
                        move = fam.moves[i]
                        walk = tuple((b, -e) for b, e in move.runs[:-3:-1])
                        states.add(join(walk, rest))
                        for head in {max(1, size - 1), size, size + 1}:
                            states.add(join(((base, sign * head),), rest))
                alone = search.Family.of(tuple(fam.moves[i] for i, _ in ix))
                for group in (fam, alone):
                    for state in states:
                        r = Word(state)
                        calls = []

                        def counted(key):
                            calls.append(key)
                            return h(key)

                        # limit -1: the first call past the floor, at the
                        # least count, decides the family
                        _, over = search._family_children(
                            group, counted, state_key(r), state, tail, 1, -1, inf
                        )
                        children = [Word(move.runs) * r for move in group.moves]
                        least = min(child.s_length for child in children)
                        assert len(calls) == 2 and calls[1][3] == least
                        assert over == 1 + h(calls[1])


class TestSearchBudget:
    @pytest.mark.parametrize(
        "fields, error",
        [
            (dict(max_nodes=2000.5), TypeError),
            (dict(max_nodes=True), TypeError),
            (dict(max_nodes="700"), TypeError),
            (dict(max_nodes=0), ValueError),
            (dict(max_cost=1.0), TypeError),
            (dict(max_cost=False), TypeError),
            (dict(max_cost=-1), ValueError),
            (dict(max_millis=True), TypeError),
            (dict(max_millis="50"), TypeError),
            (dict(max_millis=float("nan")), ValueError),
            (dict(max_millis=float("inf")), ValueError),
            (dict(max_millis=0), ValueError),
            (dict(max_millis=-1), ValueError),
        ],
    )
    def test_refuses_what_no_budget_means(self, fields, error):
        with pytest.raises(error):
            SearchBudget(**fields)

    def test_accepts_every_field_in_range(self):
        budget = SearchBudget(max_nodes=1, max_cost=0, max_millis=0.5)
        assert (budget.max_nodes, budget.max_cost, budget.max_millis) == (1, 0, 0.5)
        assert SearchBudget(max_millis=50).max_millis == 50


@lru_cache(maxsize=None)
def ball(radius: int, base: int = 2) -> dict[Word, int]:
    """Blind breadth-first distances from the identity over the letters and
    the index-1 family of the base, up to ``radius``: no heuristic, no
    certificates."""
    params, moves = move_set(base, 0)
    expansions = [expand_generator(mv.gen, params) for mv in moves.moves]
    dist = {IDENTITY: 0}
    layer = [IDENTITY]
    for d in range(1, radius + 1):
        nxt = []
        for w in layer:
            for expansion in expansions:
                x = w * expansion
                if x not in dist:
                    dist[x] = d
                    nxt.append(x)
        layer = nxt
    return dist


#: blind_length's reach at each base: the 131 moves of base 3 keep its
#: rest to 2 moves, where base 2's 31 allow 3
BLIND_REACH = {2: 6, 3: 5}


def blind_length(u: Word, base: int = 2) -> int:
    """Exact length over the letters and the index-1 family of the base
    when it is below ``BLIND_REACH[base]``, else that reach: an optimal
    factorization splits into a prefix of at most 2 moves and a rest of
    at most reach - 3."""
    best = BLIND_REACH[base]
    near, far = ball(2, base), ball(best - 3, base)
    for x, dx in near.items():
        dy = far.get(~x * u)
        if dy is not None and dx + dy < best:
            best = dx + dy
    return best


@lru_cache(maxsize=None)
def differential_targets(
    base: int = 2, count: int = 64, seed: int = 20261018
) -> tuple[Word, ...]:
    """count / 2 random letter words, then count / 2 index-1 expansions
    with up to two letters added, at the given base."""
    rng = random.Random(seed)
    params, moves = move_set(base, 0)
    moves = moves.moves
    targets = {}  # ordered set: random letter words, then move products
    while len(targets) < count:
        u = IDENTITY
        if len(targets) >= count // 2:
            u = expand_generator(rng.choice(moves).gen, params)
        extra = rng.randint(1, 6) if len(targets) < count // 2 else rng.randint(0, 2)
        while extra:
            letter = rng.choice(LETTERS).word()
            nu = u * letter if rng.random() < 0.5 else letter * u
            if nu.s_length > u.s_length:
                u, extra = nu, extra - 1
        targets[u] = None
    return tuple(targets)


class TestDifferential:
    def test_dual_matches_blind_breadth_first(self):
        # The oracle lists index 1 only. An index-2 generator has a+b count
        # 40, so it occurs in a factorization of u with n symbols only if
        # theta(u) + n - 1 >= 40; every target keeps theta(u) + 5 - 1 < 40.
        for u in differential_targets():
            ab = u.abelianize()
            assert ab[0] + ab[1] + 4 < theta_value(2, P2)
            r = xlength(u, P2, mode="exact", algorithm="dual")
            assert r.exact and r.method in ("collapse", "dual")
            assert min(r.lower, 6) == blind_length(u), str(u)


def full_expansion_best_first(u, moves, cap, h, budget, goal_of, lift):
    """The best-first loop that partial expansion replaced, without the
    deadline: it builds every child, looks it up in best_g, and only then
    scores it, with max(h, ``lift``) for the word, eagerly; ``lift`` is
    ``quotient_distance`` of the base. Its goal test looks up each state
    pushed, the root included, in ``goal_of``, a plain map from each
    move's expansion to its generator. The reference for
    ``search.best_first``, which reads the quotient only at expansion."""
    if u.is_identity():
        return Outcome(0, [], 0)

    def score(w: Word) -> int:
        return max(h(state_key(w)), lift(w))

    start_h = score(u)
    if start_h > cap:
        return Outcome(start_h, None, 0)
    best_g = {u: 0}
    parents = {}
    heap = [(start_h, u.s_length, u.runs, 0, u)]
    incumbent = last = None
    if u in goal_of:
        incumbent, last = 1, (u, goal_of[u])
    nodes = 0
    while heap:
        f, _, _, cost, state = heappop(heap)
        if incumbent is not None and f >= incumbent:
            return Outcome(incumbent, _rebuild(parents, u, last), nodes)
        if cost > best_g.get(state, -1):
            continue  # stale entry
        nodes += 1
        if nodes > budget.max_nodes:
            # every path not yet found has a state in the heap at f <= its cost
            partial = _rebuild(parents, u, last) if incumbent is not None else None
            return Outcome(f, partial, nodes)
        ncost = cost + 1
        for move in moves.moves:
            limit = cap if incumbent is None else min(cap, incumbent - 1)
            nxt = Word(move.runs) * state
            if ncost < best_g.get(nxt, float("inf")) and (
                f_nxt := ncost + score(nxt)
            ) <= limit:
                best_g[nxt] = ncost
                parents[nxt] = (state, move.gen)
                heappush(heap, (f_nxt, nxt.s_length, nxt.runs, ncost, nxt))
                if nxt in goal_of:
                    incumbent, last = ncost + 1, (nxt, goal_of[nxt])
    if incumbent is not None:
        return Outcome(incumbent, _rebuild(parents, u, last), nodes)
    return Outcome(cap + 1, None, nodes)


@lru_cache(maxsize=None)
def engine_targets() -> tuple[Word, ...]:
    """The differential targets, base-2 blocks and seeded perturbed
    blocks, each once."""
    rng = random.Random(20261019)
    blocks = [
        Word.from_runs([("c", k0), ("a", 4), ("b", 4), ("c", k1)])
        for k0, k1 in [(0, 0), (2, 1), (0, 3), (1, 0)]
    ]
    perturbed = []
    for _ in range(8):
        runs = [("a", 4), ("b", 4), ("c", rng.randint(0, 2))]
        i = rng.randrange(len(runs) + 1)
        runs.insert(i, (rng.choice("abc"), rng.choice([-2, -1, 1, 2])))
        perturbed.append(Word.from_runs(runs))
    return tuple(dict.fromkeys(differential_targets() + tuple(blocks + perturbed)))


CHAINS = tuple(
    chain_word(chain, P2) for chain in ([(1, 13), (1, 1)], [(1, 14), (1, 2)])
)


@lru_cache(maxsize=None)
def index2_targets() -> tuple[Word, ...]:
    """Eight seeded base-2 index-2 expansions, conjugators of up to two
    letters, with up to two letters added at either end. Without index 2
    in the move set, each takes over 3000 nodes in best-first."""
    rng = random.Random(20261020)
    targets = {}
    while len(targets) < 8:
        conj = IDENTITY
        for _ in range(rng.randint(0, 2)):
            conj = conj * rng.choice(LETTERS).word()
        u = expand_generator(normalize_conjugator(conj, 2, P2), P2)
        for _ in range(rng.randint(0, 2)):
            letter = rng.choice(LETTERS).word()
            u = u * letter if rng.random() < 0.5 else letter * u
        targets[u] = None
    return tuple(targets)


@lru_cache(maxsize=None)
def ball_by_ab(radius: int) -> dict[tuple, list[tuple[Word, int]]]:
    """``ball(radius)`` grouped by abelianisation."""
    groups = {}
    for w, d in ball(radius).items():
        groups.setdefault(w.abelianize(), []).append((w, d))
    return groups


@lru_cache(maxsize=None)
def index2_expansions() -> frozenset[Word]:
    return frozenset(
        expand_generator(gen, P2) for gen in enumerate_generators(P2, 2)
    )


def blind_length_with_index2(u: Word) -> int:
    """Exact length over the letters and the base-2 families 1 and 2 when
    it is at most 4, else 5; for theta(u) < 78 only. An index-2 generator
    has a+b count 40 and every other symbol at least -1, so a
    factorization with at most 4 symbols then holds at most one. With
    none, ``blind_length`` finds it; with one, u = p x q or q x p with
    p within 1 and q within 3 of the identity over index 1, and ab(q) is
    fixed by ab(p), as every index-2 generator abelianizes alike."""
    ab = u.abelianize()
    assert ab[0] + ab[1] < 78
    best = min(blind_length(u), 5)
    x_ab = next(iter(index2_expansions())).abelianize()
    xs = index2_expansions()
    for p, dp in ball(1).items():
        pab = p.abelianize()
        want = tuple(ab[i] - pab[i] - x_ab[i] for i in range(3))
        for q, dq in ball_by_ab(3).get(want, ()):
            if dp + dq + 1 < best and (~p * u * ~q in xs or ~q * u * ~p in xs):
                best = dp + dq + 1
    return best


@lru_cache(maxsize=None)
def base3_targets() -> tuple[Word, ...]:
    """24 random base-3 targets, then base-3 blocks a^9 b^9 with a few
    letters added or taken away, which take up to 130 nodes."""
    blocks = [
        "a^9 b^8 c", "a^8 b^9 c^2", "a^9 b^9 a", "c a^9 b^10", "a^10 b^9 c^-1",
        "a^9 b^9 c a^-2", "a^7 b^9 c^2", "c^2 a^9 b^7",
    ]
    words = differential_targets(3, 24, 20261021) + tuple(map(Word.parse, blocks))
    return tuple(dict.fromkeys(words))


def full_scan_deepening(u, moves, cap, h, budget, goal_of):
    """The deepening loop without the family skip, recursive and without
    the deadline: every child of a visited state is built and then
    scored; one with f over the bound is counted in the overshoot, and
    one on the path is passed over. The goal test looks up each visited
    state in ``goal_of``, as in ``full_expansion_best_first``. The
    reference for ``search.deepening``."""
    if u.is_identity():
        return Outcome(0, [], 0)
    nodes = 0
    bound = h(state_key(u))
    while bound <= cap:
        overshoot = float("inf")
        path, on_path = [], {u}

        def visit(state, cost):  # True once a factorization is on ``path``
            nonlocal nodes, overshoot
            nodes += 1
            if nodes > budget.max_nodes:
                raise BudgetExhausted
            if state in goal_of:
                path.append(goal_of[state])
                return True
            for move in moves.moves:
                nxt = Word(move.runs) * state
                f = cost + 1 + h(state_key(nxt))
                if f > bound:
                    overshoot = min(overshoot, f)
                elif nxt not in on_path:
                    on_path.add(nxt)
                    path.append(move.gen)
                    if visit(nxt, cost + 1):
                        return True
                    on_path.discard(nxt)
                    path.pop()
            return False

        try:
            if visit(u, 0):
                return Outcome(len(path), path, nodes)
        except BudgetExhausted:
            return Outcome(bound, None, nodes)
        if overshoot == float("inf"):
            return Outcome(cap + 1, None, nodes)
        bound = int(overshoot)
    return Outcome(bound, None, nodes)


def counting_skips(monkeypatch) -> list[int]:
    """Counts, in its one entry, the calls of ``search._family_children``
    that cut a family whole: no child passes. One whose floor fails must
    do so."""
    skips = [0]
    score = search._family_children

    def counted(fam, h, key, runs, anti, ncost, limit, overshoot):
        out = score(fam, h, key, runs, anti, ncost, limit, overshoot)
        if ncost + h(fam.floor(key)) > limit:
            assert not out[0]
        skips[0] += not out[0]
        return out

    monkeypatch.setattr(search, "_family_children", counted)
    return skips


class BuildRecord:
    """What ``recording_builds`` saw in one search (``start``) and in all."""

    def __init__(self):
        self.total = self.ties = 0
        self.child = None
        self.start()

    def start(self):
        self.settle()
        self.twice = self.unsettled = 0
        self.built = set()  # (parent runs, move) of each child built
        self.reached = {}  # runs -> the cost it was first built at
        self.least = {}  # runs -> the least cost it was pushed at
        self.top = None  # the entry popped last

    def settle(self):
        """The child built last, ``child`` as (runs, cost), was not
        pushed: it must have been pushed before at no greater cost."""
        if self.child is not None:
            runs, cost = self.child
            self.unsettled += self.least.get(runs, float("inf")) > cost
            self.child = None


def recording_builds(monkeypatch) -> BuildRecord:
    """Patches ``search.heappop``, ``search.heappush`` and
    ``search.Move.apply`` to check each child that best-first builds: it
    is pushed at once, or dropped as pushed before at no greater cost,
    and no (parent, move) is built twice in one search. A child built at
    the cost it was first built at is a tie: one state reached from two
    parents at one cost."""
    record = BuildRecord()
    apply = search.Move.apply

    def recorded_pop(heap):
        record.settle()
        entry = heappop(heap)
        record.least.setdefault(entry[3], entry[4])  # the root is not pushed
        record.top = entry
        return entry

    def recorded_push(heap, entry):
        if record.child == (entry[3], entry[4]):
            record.child = None
            record.least[entry[3]] = entry[4]
        heappush(heap, entry)

    def recorded_apply(move, runs):
        record.settle()
        child = apply(move, runs)
        cost = record.top[4] + 1
        record.total += 1
        record.twice += (runs, move) in record.built
        record.built.add((runs, move))
        if child in record.reached:
            record.ties += record.reached[child] == cost
        else:
            record.reached[child] = cost
        record.child = (child, cost)
        return child

    monkeypatch.setattr(search, "heappop", recorded_pop)
    monkeypatch.setattr(search, "heappush", recorded_push)
    monkeypatch.setattr(search.Move, "apply", recorded_apply)
    return record


class TestPartialExpansion:
    """Both engines against the full-scan references above: the same
    cost, path and node count, with families left out whole on the way.
    The build checks and the random words apply to best-first."""

    # base-2 block words with letters after the block, on whose returned
    # path lies a state reached from two parents at one cost: the path
    # changes if the later parent wins the tie
    TIES = tuple(
        Word.parse(text)
        for text in ("c^2 a^4 b^4 c b a c^-1", "c^2 a^4 b^4 a b a^-1", "c a^4 b^4 c^2 b a b^-1")
    )
    # (move set, small and large node budgets, extra targets): the index-2
    # family makes the full-expansion references cost milliseconds per
    # node, so its large budget stays low; the chains run into it
    CASES = [
        ((2, 0), (3, 100_000), TIES),
        ((2, 40), (3, 60), index2_targets()),
        ((3, 0), (3, 100_000), ()),
    ]
    IDS = ["families-1", "families-1-2", "base-3-families-1"]

    @staticmethod
    def targets(spec, extra) -> tuple[Word, ...]:
        if spec[0] == 3:
            return base3_targets()
        return engine_targets() + CHAINS + extra

    @pytest.mark.parametrize("spec, budgets, extra", CASES, ids=IDS)
    def test_matches_full_expansion(self, spec, budgets, extra, monkeypatch):
        params, moves = move_set(*spec)
        h = make_heuristic(params, moves.families)
        goal_of = {expand_generator(mv.gen, params): mv.gen for mv in moves.moves}
        lift = quotient_distance(params.base)
        skips = counting_skips(monkeypatch)
        builds = recording_builds(monkeypatch)
        for u in self.targets(spec, extra):
            cap = xlength(u, params, mode="bracket").upper
            for max_nodes in budgets:
                budget = SearchBudget(max_nodes=max_nodes)
                expected = full_expansion_best_first(u, moves, cap, h, budget, goal_of, lift)
                builds.start()
                got = best_first(u, moves, cap, h, budget, 0.0)
                builds.settle()
                assert got == expected, str(u)
                # each scan builds only children no earlier scan of the
                # node built, and pushes each one unless it was pushed
                # before at no greater cost
                assert builds.twice == builds.unsettled == 0, str(u)
        # some state was reached from two parents at one cost, so the
        # order in which pushed-back nodes come back was exercised
        assert builds.total and builds.ties and skips[0]

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from((2, 3)),
        short_words,
        st.booleans(),
        short_words,
        st.sampled_from((1, 4, 30, 300)),
    )
    # each reaches a state from two parents at one cost, and the last
    # three return another path if the later parent wins the tie
    @example(2, Word.parse("a b^5 a"), False, IDENTITY, 300)
    @example(3, Word.parse("c"), True, Word.parse("b"), 300)
    @example(2, Word.parse("c^2"), True, Word.parse("c b a c^-1"), 300)
    @example(2, Word.parse("c^2"), True, Word.parse("a b a^-1"), 300)
    @example(2, Word.parse("c"), True, Word.parse("c^2 b a b^-1"), 300)
    def test_random_words_match_full_expansion(self, base, head, block, tail, max_nodes):
        # head, then a^(B^2) b^(B^2) if ``block``, then tail
        params, moves = move_set(base, 0)
        square = base * base
        core = Word.from_runs([("a", square), ("b", square)]) if block else IDENTITY
        u = head * core * tail
        if u.is_identity():
            return
        h = make_heuristic(params, moves.families)
        goal_of = {expand_generator(mv.gen, params): mv.gen for mv in moves.moves}
        cap = xlength(u, params, mode="bracket").upper
        budget = SearchBudget(max_nodes=max_nodes)
        lift = quotient_distance(base)
        expected = full_expansion_best_first(u, moves, cap, h, budget, goal_of, lift)
        assert best_first(u, moves, cap, h, budget, 0.0) == expected

    def test_caps_below_the_length(self):
        # no incumbent: best-first drops every entry lifted above the cap,
        # and its heap runs dry, or h(root) is already above the cap;
        # deepening's bound grows past the cap
        params, moves = move_set(2, 0)
        h = make_heuristic(params, moves.families)
        goal_of = {expand_generator(mv.gen, params): mv.gen for mv in moves.moves}
        lift = quotient_distance(2)
        for u in self.TIES + (Word.parse("c a c^-2 b a c^-1 b c^-2 b^-1 c"),):
            length = xlength(u, params).lower
            for cap in range(length - 3, length):
                budget = SearchBudget(max_nodes=5000)
                expected = full_expansion_best_first(u, moves, cap, h, budget, goal_of, lift)
                got = best_first(u, moves, cap, h, budget, 0.0)
                assert got == expected and got.lower > cap, (str(u), cap)
                expected = full_scan_deepening(u, moves, cap, h, budget, goal_of)
                got = deepening(u, moves, cap, h, budget, 0.0)
                assert got == expected and got.lower > cap, (str(u), cap)

    # base-3 targets with a state reached from two parents at one cost:
    # keying a pushed-back node by its runs instead of its first
    # expansion's number returns another optimal path on each, and keying
    # it by its own letter count instead of 0 expands more nodes on each
    BASE3_TIES = [
        ("a^10 b^8 a b", 300),
        ("a^10 b^8 a b", 5000),
        ("a c^-1 a^11 b^10 a b^-1 a", 5000),
        ("a c^-1 b^-1 a^9 b^9 a^-1 b a", 5000),
    ]

    @pytest.mark.parametrize("text, max_nodes", BASE3_TIES)
    def test_base3_ties_match_full_expansion(self, text, max_nodes):
        params, moves = move_set(3, 0)
        h = make_heuristic(params, moves.families)
        goal_of = {expand_generator(mv.gen, params): mv.gen for mv in moves.moves}
        u = Word.parse(text)
        cap = xlength(u, params, mode="bracket").upper
        budget = SearchBudget(max_nodes=max_nodes)
        expected = full_expansion_best_first(
            u, moves, cap, h, budget, goal_of, quotient_distance(3)
        )
        assert best_first(u, moves, cap, h, budget, 0.0) == expected

    def test_lifted_entry_goes_stale(self, monkeypatch):
        # A lifted entry is pushed back, and its state may then be
        # reached at a lower cost, which leaves the entry stale. No
        # target tried over the real move sets does so; over the letters
        # and one move a^2, which phi sends to 1, with h = ceil(|r| / 2),
        # this target does: a^-1 c^3 a^3 b^3 c^-2 is lifted at cost 3
        # (a^2, a, a) before it is reached at cost 2 (a^2, a^2).
        a2 = Word.parse("a^2")
        square = search.Move.of(BigGen(IDENTITY, 1), a2)
        goals = {letter.word().runs: letter for letter in LETTERS}
        goals[a2.runs] = square.gen
        moves = MoveSet(
            search._LETTER_MOVES + (square,), (1,), goals, (search.Family.of((square,)),), 2
        )
        goal_of = {Word(runs): gen for runs, gen in goals.items()}

        def h(key):
            return -(-key[3] // 2)

        least = {}  # runs -> the least cost it was pushed at
        stale = []

        def pop(heap):
            entry = heappop(heap)
            runs, cost = entry[3], entry[4]
            if least.get(runs, cost) < cost:  # the root is never pushed
                stale.append(Word(runs))
            return entry

        def push(heap, entry):
            runs, cost = entry[3], entry[4]
            least[runs] = min(cost, least.get(runs, cost))
            heappush(heap, entry)

        monkeypatch.setattr(search, "heappop", pop)
        monkeypatch.setattr(search, "heappush", push)
        u = Word.parse("a^3 c^3 a^3 b^3 c^-2")
        budget = SearchBudget(max_nodes=5000)
        got = best_first(u, moves, u.s_length, h, budget, 0.0)
        expected = full_expansion_best_first(
            u, moves, u.s_length, h, budget, goal_of, quotient_distance(2)
        )
        assert got == expected and (proven_cost(got), got.nodes) == (12, 155)
        assert stale == [Word.parse("a^-1 c^3 a^3 b^3 c^-2")]

    @pytest.mark.parametrize("spec, budgets, extra", CASES, ids=IDS)
    def test_deepening_matches_full_scan(self, spec, budgets, extra, monkeypatch):
        params, moves = move_set(*spec)
        h = make_heuristic(params, moves.families)
        goal_of = {expand_generator(mv.gen, params): mv.gen for mv in moves.moves}
        skips = counting_skips(monkeypatch)
        for u in self.targets(spec, extra):
            cap = xlength(u, params, mode="bracket").upper
            for max_nodes in budgets:
                budget = SearchBudget(max_nodes=max_nodes)
                expected = full_scan_deepening(u, moves, cap, h, budget, goal_of)
                assert deepening(u, moves, cap, h, budget, 0.0) == expected, str(u)
        assert skips[0]

    def test_deepening_overshoot_rule(self, monkeypatch):
        # Deepening leaves a family out only when its floor fails the
        # bound and is no lower than the overshoot so far. The skip needs
        # nothing of h but h(floor) <= h(child), which adding a function
        # of the abelianisation keeps, as a family's children share one.
        # Adding 3 off the root's abelianisation and its family children's
        # makes the root's letters overshoot by far more than its family
        # does, so leaving the family out there raises the next bound.
        params, moves = move_set(2, 40)
        h0 = make_heuristic(params, moves.families)
        goal_of = {expand_generator(mv.gen, params): mv.gen for mv in moves.moves}
        budget = SearchBudget(max_nodes=60)
        for u in index2_targets():
            near = {u.abelianize()} | {fam.floor(state_key(u))[:3] for fam in moves.groups}

            def h(key):
                return h0(key) + (0 if key[:3] in near else 3)

            cap = xlength(u, params, mode="bracket").upper + 6
            expected = full_scan_deepening(u, moves, cap, h, budget, goal_of)
            assert deepening(u, moves, cap, h, budget, 0.0) == expected, str(u)


def proven_cost(outcome: Outcome) -> int | None:
    """The length of the outcome's path when it is proven optimal, as it
    has ``lower`` symbols, else None."""
    path = outcome.path
    return len(path) if path is not None and len(path) == outcome.lower else None


def checked_cost(outcome: Outcome, u: Word, params: GenSetParams) -> int | None:
    """The outcome's proven cost, after its path multiplies back to u with
    exactly that many symbols."""
    cost = proven_cost(outcome)
    if cost is not None:
        product, count = verify_factorization(
            Factorization.from_symbols(outcome.path), params
        )
        assert (product, count) == (u, cost), str(u)
    return cost


class TestEngines:
    """Both engines called directly with cap = the bracket's upper end, so
    that no bracket collapse decides a target first. The chains run at
    families (1,) only: with index 2 in the move set they take over
    20,000 nodes in either engine."""

    CASES = [((2, 0), CHAINS), ((2, 40), index2_targets())]

    @pytest.mark.parametrize("spec, extra", CASES, ids=["families-1", "families-1-2"])
    def test_engines_agree_with_each_other_and_the_oracle(self, spec, extra):
        params, moves = move_set(*spec)
        h = make_heuristic(params, moves.families)
        budget = SearchBudget(max_nodes=20_000)
        small = SearchBudget(max_nodes=3)
        for u in engine_targets() + extra:
            cap = xlength(u, params, mode="bracket").upper
            first = best_first(u, moves, cap, h, budget, 0.0)
            deep = deepening(u, moves, cap, h, budget, 0.0)
            assert first.nodes <= budget.max_nodes and deep.nodes <= budget.max_nodes
            cost = checked_cost(first, u, params)
            assert checked_cost(deep, u, params) == cost, str(u)
            # families (1,) are the oracle's own move set; with index 2
            # the oracle is exact up to 4
            if spec == (2, 0):
                oracle, reach = blind_length(u), 6
            else:
                oracle, reach = blind_length_with_index2(u), 5
            if cost is None:
                assert oracle >= min(cap + 1, reach), str(u)
            else:
                assert min(cost, reach) == oracle, str(u)
            # a pass bound cut short by the budget is still a lower end
            cut = deepening(u, moves, cap, h, small, 0.0)
            if proven_cost(cut) is None and cost is not None:
                assert cut.lower <= cost, str(u)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(
            [(2, u) for u in engine_targets()] + [(3, u) for u in base3_targets()]
        ),
        st.sampled_from(["best-first", "deepening", "dual"]),
        st.integers(1, 100),
        st.booleans(),
    )
    @example((2, Word.parse("a^4 b^5")), "best-first", 3, False)  # 10 nodes to prove 4
    # best-first's f at the budget reaches the witness's 6: decided
    @example((2, Word.parse("a c^-1 a^-1 c^-1 b a")), "best-first", 1, False)
    # deepening's path b^-1 *2, c, x(c^-1, 1) only ties the bracket's witness
    @example((2, Word.parse("c a^4 b^4")), "deepening", 100, False)
    def test_budgeted_bracket_holds_the_length(self, target, algorithm, max_nodes, below):
        # any engine cut short by its node budget, or capped below the
        # witness by max_cost, still brackets the length, and its labels
        # follow from the bracket: a search whose lower end reaches the
        # witness decided the length, and the CLI exits 3 exactly when an
        # engine stopped below the witness. Search only shortens the
        # witness: the bracket's stays unless a path has fewer symbols
        base, u = target
        params = GenSetParams(base=base, jmin=1)
        bracket = xlength(u, params, mode="bracket")
        upper = bracket.upper
        max_cost = max(upper - 1, 0) if below else None
        budget = SearchBudget(max_nodes=max_nodes, max_cost=max_cost)
        r = xlength(u, params, budget, algorithm=algorithm)
        assert r.witness == bracket.witness or r.witness.symbol_count < upper, str(u)
        assert verify_factorization(r.witness, params) == (u, r.upper), str(u)
        length, reach = blind_length(u, base), BLIND_REACH[base]
        if length < reach:
            assert r.lower <= length <= r.upper, str(u)
        else:
            assert r.upper >= reach, str(u)
        if r.method != "collapse":  # the engines ran, or their moves were refused
            assert r.exhaustive == r.exact == (r.method in ("search", "dual")), str(u)
        if r.exact and algorithm != "dual":
            assert not r.budget_exhausted, str(u)
        if max_cost is None:
            argv = ["xlen", str(u), "--base", str(base), "--jmin", "1",
                    "--max-nodes", str(max_nodes), "--algorithm", algorithm]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.main(argv)
            report = json.loads(out.getvalue())
            assert (report["lower"], report["upper"], report["method"]) == (
                r.lower, r.upper, r.method)
            assert code == (3 if r.budget_exhausted else 0), str(u)

    def test_paths_deeper_than_the_recursion_limit(self):
        # every optimal path has 1202 steps; deepening recursed once per
        # step and raised RecursionError here
        u = Word.parse("a^-1 b^-1 " * 600 + "a b")
        assert u.s_length == 1202 > sys.getrecursionlimit()
        r = xlength(u, P2, algorithm="dual")
        assert (r.lower, r.upper, r.method) == (1202, 1202, "dual")
        assert not r.budget_exhausted
        # dual's deepening proves nothing shorter than 1202 at once, as
        # h(u) = 1202 is above its cap of 1201; alone, it walks the path,
        # one node a level
        r = xlength(u, P2, algorithm="deepening")
        assert (r.lower, r.upper, r.method) == (1202, 1202, "search")
        assert r.nodes_expanded == 1202 and not r.budget_exhausted

    def test_heap_holds_few_entries_per_node(self, monkeypatch):
        # A node pushes the children up to its own f and keeps one entry
        # of its own for the rest, so the heap grows with the nodes
        # expanded: one deferred entry per passing child held 117 a node
        # here.
        peak = [0]

        def push(heap, entry):
            heappush(heap, entry)
            peak[0] = max(peak[0], len(heap))

        monkeypatch.setattr(search, "heappush", push)
        u = Word.parse("a^16 b^16 c^4 a^16 b^16 c")
        r = xlength(u, P2, SearchBudget(max_nodes=2000))
        assert r.budget_exhausted and r.nodes_expanded == 2001
        assert 0 < peak[0] <= 10 * r.nodes_expanded

    @staticmethod
    def run_to_deadline(engine, monkeypatch) -> tuple[Outcome, int, float]:
        """``engine`` on a^16 b^16 c a^-3 at base 2 with families (1, 2)
        and ``max_millis`` 50: the outcome, the clock reads during the
        search and the overrun in milliseconds."""
        params, moves = move_set(2, 40)
        u = Word.parse("a^16 b^16 c a^-3")
        h = make_heuristic(params, moves.families)
        cap = xlength(u, params, mode="bracket").upper
        clock = time.perf_counter
        reads = []

        def counted():
            reads.append(None)
            return clock()

        monkeypatch.setattr(search.time, "perf_counter", counted)
        t0 = clock()
        out = engine(u, moves, cap, h, SearchBudget(max_millis=50), t0)
        return out, len(reads), (clock() - t0) * 1000 - 50

    def test_deepening_deadline_on_index2_moves(self, monkeypatch):
        # A node scores up to 656 children, so a check only every 1024
        # nodes could overrun by about a second. The clock is read once
        # at every node, which counting its reads shows however fast a
        # node is; the overrun is then at most one node.
        out, reads, overrun_ms = self.run_to_deadline(deepening, monkeypatch)
        assert proven_cost(out) is None and reads == out.nodes > 0
        assert overrun_ms < 100  # one node takes at most about 1 ms

    def test_best_first_deadline_on_index2_moves(self, monkeypatch):
        # the same for best-first, whose clock is read before each scan:
        # a node's first, and each one after it is pushed back. The read
        # that finds the deadline passed is followed by none.
        scans = []
        scan = search._children

        def counted(*args):
            scans.append(None)
            return scan(*args)

        monkeypatch.setattr(search, "_children", counted)
        out, reads, overrun_ms = self.run_to_deadline(best_first, monkeypatch)
        assert proven_cost(out) is None and reads == len(scans) + 1 and out.nodes > 0
        assert overrun_ms < 100
