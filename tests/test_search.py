"""The move set and the search heuristic: refusal and caching in
build_moves; soundness, dominance over the earlier bound and bounded cost
of the heuristic; and a differential test of exact lengths."""

import itertools
import random
import threading
from functools import lru_cache

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
    theta_value,
)
from wordweight.lengths import SearchBudget, pool_bound, xlength
from wordweight.search import MoveSet, _family_moves, build_moves, make_heuristic
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


class TestHeuristic:
    @settings(max_examples=150, deadline=None)
    @given(remainders, st.sampled_from(MOVE_SET_SPECS))
    def test_dominates_earlier_bound(self, r, spec):
        params, moves = move_set(*spec)
        h = make_heuristic(params, moves.families)
        assert earlier_heuristic(r, params, moves) <= h(r) <= r.s_length

    def test_admissible_on_short_products(self):
        # a product of k moves has move-set length at most k
        rng = random.Random(3)
        for spec in MOVE_SET_SPECS:
            params, moves = move_set(*spec)
            h = make_heuristic(params, moves.families)
            expansions = [expand_generator(mv.gen, params) for mv in moves.moves]
            assert all(h(x) <= 1 for x in expansions)
            for _ in range(300):
                k = rng.randint(2, 4)
                product = IDENTITY
                for x in rng.choices(expansions, k=k):
                    product = product * x
                assert h(product) <= k

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
        assert all(h(x) <= 1 for x in expansions)
        rng = random.Random(5)
        for _ in range(300):
            k = rng.randint(2, 4)
            product = IDENTITY
            for x in rng.choices(expansions, k=k):
                product = product * x
            assert h(product) <= k

    def test_exact_values(self):
        # ab(a^5 b^7) = (5, 7, 0). Index 1 alone: one generator covers
        # (4, 6, 0) and leaves 2 letters, so 3. With index 2 as well, t may
        # be any real in [2, 8]; t = 7/3 leaves 1/3, and 1 + 1/3 rounds up
        # to 2.
        u = Word.from_runs([("a", 5), ("b", 7)])
        values = []
        for spec in [(2, 0), (2, 40)]:
            params, moves = move_set(*spec)
            values.append(make_heuristic(params, moves.families)(u))
        assert values == [3, 2]

    def test_bounded_cost_on_huge_exponents(self):
        # the earlier counting loop ran once per unit of exponent
        for params, n in [(P2, 2**40), (GenSetParams(base=5, jmin=2), 5**20)]:
            r = Word((("a", n), ("b", -n)))
            h = make_heuristic(params, (params.jmin,))
            values = []
            worker = threading.Thread(target=lambda: values.append(h(r)), daemon=True)
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


class TestDifferential:
    def test_dual_matches_blind_breadth_first(self):
        # The oracle lists index 1 only. An index-2 generator has a+b count
        # 40, so it occurs in a factorization of u with n symbols only if
        # theta(u) + n - 1 >= 40; every target keeps theta(u) + 5 - 1 < 40.
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
        for u in targets:
            ab = u.abelianize()
            assert ab[0] + ab[1] + 4 < theta_value(2, P2)
            r = xlength(u, P2, mode="exact", algorithm="dual")
            assert r.exact and r.method in ("collapse", "dual")
            assert min(r.lower, 6) == blind_length(u), str(u)
