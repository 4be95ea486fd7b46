"""The move set and the search heuristic: refusal and caching in
build_moves and its goal table; soundness, dominance over the earlier
bound and bounded cost of the heuristic; differential tests of exact
lengths, through xlength and of the two engines called directly; the
deepening deadline; and best-first's partial expansion against the
full-expansion loop it replaced."""

import itertools
import random
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
    _family_moves,
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
        families = {}
        for base in (2, 3):
            params = GenSetParams(base=base, jmin=1)
            families[base] = _family_moves(params, 1)
        assert len(families[2]) == 25 and len(families[3]) == 125
        assert {m.inverse for m in families[2]}.isdisjoint(
            m.inverse for m in families[3]
        )

    @pytest.mark.parametrize("spec", MOVE_SET_SPECS)
    def test_goal_table_files_every_expansion_once(self, spec):
        params, moves = move_set(*spec)
        filed = [
            (key, expansion, gen)
            for key, table in moves.goals.items()
            for expansion, gen in table.items()
        ]
        assert len(filed) == len(moves.moves)
        assert {(e, g) for _, e, g in filed} == {
            (expand_generator(mv.gen, params), mv.gen) for mv in moves.moves
        }
        assert all(key == state_key(e) for key, e, _ in filed)


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
def differential_targets() -> tuple[Word, ...]:
    """32 random base-2 letter words, then 32 index-1 expansions with up to
    two letters added."""
    rng = random.Random(20261018)
    moves = move_set(2, 0)[1].moves
    targets = {}  # ordered set: random letter words, then move products
    while len(targets) < 64:
        u = IDENTITY
        if len(targets) >= 32:
            u = expand_generator(rng.choice(moves).gen, P2)
        extra = rng.randint(1, 6) if len(targets) < 32 else rng.randint(0, 2)
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


class TestPartialExpansion:
    # (move set, small and large node budgets, extra targets): the index-2
    # family makes the full-expansion reference cost milliseconds per
    # node, so its large budget stays low; the chains run into it
    CASES = [
        ((2, 0), (3, 100_000), ()),
        ((2, 40), (3, 60), index2_targets()),
    ]

    @pytest.mark.parametrize("spec, budgets, extra", CASES, ids=["families-1", "families-1-2"])
    def test_matches_full_expansion(self, spec, budgets, extra, monkeypatch):
        params, moves = move_set(*spec)
        h = make_heuristic(params, moves.families)
        goal_of = {expand_generator(mv.gen, params): mv.gen for mv in moves.moves}
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
        for u in engine_targets() + CHAINS + extra:
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
        assert built


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

    def test_deepening_deadline_on_index2_moves(self):
        # every node scores 656 children, so a check only every 1024
        # nodes would overrun by about a second
        params, moves = move_set(2, 40)
        u = Word.parse("a^16 b^16 c a^-3")
        h = make_heuristic(params, moves.families)
        cap = xlength(u, params, mode="bracket").upper
        t0 = time.perf_counter()
        out = deepening(u, moves, cap, h, SearchBudget(max_millis=50), t0)
        overrun_ms = (time.perf_counter() - t0) * 1000 - 50
        assert out.cost is None and 0 < out.nodes < 1000
        assert overrun_ms < 100  # one node is about 1 ms
