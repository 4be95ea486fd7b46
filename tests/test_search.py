"""The move set and the search heuristic: refusal and caching in
build_moves and its goal table; soundness, dominance over the earlier
bound and bounded cost of the heuristic, and its one bounded memo per
move set, shared by searches and threads; the family floor that the
engines' whole-family skip rests on; differential tests of exact
lengths, through xlength and of the two engines called directly; the
deadlines of the listing and of deepening; and both engines against
full-scan references: best-first's partial expansion against the
full-expansion loop it replaced, deepening against a plain recursive
one."""

import dataclasses
import itertools
import random
import sys
import threading
import time
from functools import lru_cache
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings, strategies as st

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
    SearchBudget,
    chain_word,
    pool_bound,
    verify_factorization,
    xlength,
)
from wordweight import search
from wordweight.search import (
    MoveSet,
    Outcome,
    _family,
    _move_set,
    _rebuild,
    best_first,
    build_moves,
    deepening,
    make_heuristic,
    state_key,
)
from wordweight.words import IDENTITY, LETTERS, Word

P2 = GenSetParams(base=2, jmin=1)

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

    def test_calls_return_independent_lists(self):
        params = GenSetParams(base=2, jmin=1)
        u = expand_generator(BigGen(IDENTITY, 1), params) * Word((("c", 1),))
        first = build_moves(u, u.s_length, params, SearchBudget())
        expected = list(first.moves)
        first.moves.clear()
        second = build_moves(u, u.s_length, params, SearchBudget())
        assert second.moves == expected and len(expected) == 6 + 25
        assert second.moves is not first.moves

    def test_bases_do_not_share_families(self):
        expansions = {}
        for base in (2, 3):
            params = GenSetParams(base=base, jmin=1)
            moves, goals = _move_set(params, (1,))
            assert _move_set(params, (1,))[1] is goals  # built once per process
            assert moves[6:] == _family(params, 1).moves
            expansions[base] = {e for e, g in goals.items() if isinstance(g, BigGen)}
        assert len(expansions[2]) == 25 and len(expansions[3]) == 125
        assert expansions[2].isdisjoint(expansions[3])

    def test_listing_stops_at_the_deadline(self, monkeypatch):
        # the family is listed afresh here; one whose deadline has passed
        # raises at its first generator, and nothing of it is kept
        monkeypatch.setattr(search, "_families", {})
        params, moves = move_set(2, 40)
        g = expand_generator(BigGen(IDENTITY, 1), params)
        u = g * g
        late = SearchBudget(max_millis=50)
        with pytest.raises(BudgetExhausted, match="^index-1 family not listed"):
            build_moves(u, u.s_length + 40, params, late, time.perf_counter() - 1)
        assert search._families == {}
        # a call without a deadline lists every family whole
        full = build_moves(u, u.s_length + 40, params, SearchBudget())
        assert full.moves == moves.moves
        assert [len(fam.moves) for fam in full.groups] == [25, 625]
        # a listed family is read, not listed again, so no deadline applies
        again = build_moves(u, u.s_length + 40, params, late, time.perf_counter() - 1)
        assert again.groups == full.groups

    def test_deadline_during_a_long_listing(self):
        # the base-2 index-3 family has 390,625 generators and takes
        # seconds to list; max_ms stops the listing and xlength answers
        # with its bracket
        u = Word.parse("a^64 b^64 c")
        t0 = time.perf_counter()
        r = xlength(u, P2, SearchBudget(max_millis=50))
        assert time.perf_counter() - t0 < 1
        assert (r.method, r.lower, r.upper, r.nodes_expanded) == ("budget", 23, 34, 0)
        assert (P2, 3) not in search._families

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
        # one entry per move: distinct generators have distinct expansions
        assert len(moves.goals) == len(moves.moves)
        assert moves.goals == {
            expand_generator(mv.gen, params): mv.gen for mv in moves.moves
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
                u: dataclasses.replace(xlength(u, P2, algorithm=algorithm), ms=0.0)
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
                out.append(dataclasses.replace(xlength(u, P2, algorithm="dual"), ms=0.0))

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


abelian = st.tuples(
    *[st.one_of(st.integers(-12, 12), st.integers(-3000, 3000))] * 3
)
extra_letters = st.one_of(st.integers(0, 12), st.integers(0, 5000))


class TestFamilyFloor:
    """What the engines' family skip relies on: h is monotone in the
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
                child = state_key(move.inverse * r)
                assert child[:3] == floor[:3] and child[3] >= floor[3]
                assert least <= h(child)


@lru_cache(maxsize=None)
def ball(radius: int) -> dict[Word, int]:
    """Blind breadth-first distances from the identity over the letters and
    the base-2 index-1 family, up to ``radius``: no heuristic, no
    certificates."""
    expansions = [expand_generator(mv.gen, P2) for mv in move_set(2, 0)[1].moves]
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


def blind_length(u: Word) -> int:
    """Exact length when it is at most 5, else 6: an optimal factorization
    splits into a prefix of at most 2 moves and a rest of at most 3."""
    near, far = ball(2), ball(3)
    best = 6
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


def full_expansion_best_first(u, moves, cap, h, budget, goal_of):
    """The best-first loop that partial expansion replaced, without the
    deadline: it builds every child, looks it up in best_g, and only then
    scores it. Its goal test looks up each state pushed, the root
    included, in ``goal_of``, a plain map from each move's expansion to
    its generator. The reference for ``search.best_first``."""
    if u.is_identity():
        return Outcome(0, [], 0, 0)
    start_h = h(state_key(u))
    if start_h > cap:
        return Outcome(None, None, 0, start_h)
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
            return Outcome(incumbent, _rebuild(parents, u, last), nodes, incumbent)
        if cost > best_g.get(state, -1):
            continue  # stale entry
        nodes += 1
        if nodes > budget.max_nodes:
            partial = _rebuild(parents, u, last) if incumbent is not None else None
            return Outcome(None, partial, nodes, 0)
        ncost = cost + 1
        for move in moves.moves:
            limit = cap if incumbent is None else min(cap, incumbent - 1)
            nxt = move.inverse * state
            if ncost < best_g.get(nxt, float("inf")) and (
                f_nxt := ncost + h(state_key(nxt))
            ) <= limit:
                best_g[nxt] = ncost
                parents[nxt] = (state, move.gen)
                heappush(heap, (f_nxt, nxt.s_length, nxt.runs, ncost, nxt))
                if nxt in goal_of:
                    incumbent, last = ncost + 1, (nxt, goal_of[nxt])
    if incumbent is not None:
        return Outcome(incumbent, _rebuild(parents, u, last), nodes, incumbent)
    return Outcome(None, None, nodes, cap + 1)


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
        return Outcome(0, [], 0, 0)
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
                nxt = move.inverse * state
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
                return Outcome(len(path), path, nodes, len(path))
        except BudgetExhausted:
            return Outcome(None, None, nodes, bound)
        if overshoot == float("inf"):
            return Outcome(None, None, nodes, cap + 1)
        bound = int(overshoot)
    return Outcome(None, None, nodes, bound)


def counting_skips(monkeypatch) -> list[int]:
    """Counts, in its one entry, the nodes at which ``search._scan`` left
    out at least one family."""
    skips = [0]
    scan = search._scan

    def counted(moves, *args):
        out = scan(moves, *args)
        skips[0] += out is not moves.moves
        return out

    monkeypatch.setattr(search, "_scan", counted)
    return skips


class TestPartialExpansion:
    """Both engines against the full-scan references above: the same
    cost, path and node count, with families left out whole on the way.
    The partial-expansion check applies to best-first."""

    # (move set, small and large node budgets, extra targets): the index-2
    # family makes the full-expansion references cost milliseconds per
    # node, so its large budget stays low; the chains run into it
    CASES = [
        ((2, 0), (3, 100_000), ()),
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
        skips = counting_skips(monkeypatch)
        products = []
        pushed = set()
        multiply = Word.__mul__

        def recorded_mul(x, y):
            product = multiply(x, y)
            products.append(product)
            return product

        def recorded_push(heap, item):
            pushed.add(item[-1])
            heappush(heap, item)

        built = 0
        for u in self.targets(spec, extra):
            cap = xlength(u, params, mode="bracket").upper
            for max_nodes in budgets:
                budget = SearchBudget(max_nodes=max_nodes)
                expected = full_expansion_best_first(u, moves, cap, h, budget, goal_of)
                products.clear()
                pushed.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(Word, "__mul__", recorded_mul)
                    patch.setattr(search, "heappush", recorded_push)
                    got = best_first(u, moves, cap, h, budget, 0.0)
                assert got == expected, str(u)
                # Only children that pass the f test are multiplied out, and
                # such a child is pushed unless best_g already holds it: it
                # is the root or a pushed state. The identity never passes,
                # as its parent is an expansion. Scoring after the product
                # would build children that are none of these.
                assert pushed.union([u]).issuperset(products), str(u)
                built += len(products)
        assert built and skips[0]

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


def checked_cost(outcome: Outcome, u: Word, params: GenSetParams) -> int | None:
    """The outcome's cost, after its path multiplies back to u with
    exactly that many symbols."""
    if outcome.cost is not None:
        product, count = verify_factorization(
            Factorization.from_symbols(outcome.path), params
        )
        assert (product, count) == (u, outcome.cost), str(u)
    return outcome.cost


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
            if cut.cost is None and cost is not None:
                assert cut.lower_bound <= cost, str(u)

    def test_paths_deeper_than_the_recursion_limit(self):
        # every optimal path has 1202 steps; deepening recursed once per
        # step and raised RecursionError here
        u = Word.parse("a^-1 b^-1 " * 600 + "a b")
        assert u.s_length == 1202 > sys.getrecursionlimit()
        r = xlength(u, P2, algorithm="dual")
        assert (r.lower, r.upper, r.method) == (1202, 1202, "dual")
        assert not r.budget_exhausted

    def test_deepening_deadline_on_index2_moves(self, monkeypatch):
        # A node scores up to 656 children, so a check only every 1024
        # nodes could overrun by about a second. The clock is read once
        # at every node, which counting its reads shows however fast a
        # node is; the overrun is then at most one node.
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
        out = deepening(u, moves, cap, h, SearchBudget(max_millis=50), t0)
        overrun_ms = (clock() - t0) * 1000 - 50
        assert out.cost is None and len(reads) == out.nodes > 0
        assert overrun_ms < 100  # one node takes at most about 1 ms
