"""Exhaustive shortest-factorization search over the implicit Cayley graph.

States are the remaining words still to be built; a move left-divides by
one generator's expansion. Two engines are provided: a best-first search
(priority queue on cost plus heuristic, with an incumbent so that an
admissible but inconsistent heuristic still yields the optimum) and an
iterative-deepening depth-first search whose bound grows by the exact
minimal overshoot. Both are deterministic for fixed inputs and budgets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush

from .genset import (
    Gen,
    GenSetParams,
    LETTER_GENS,
    enumerate_generators,
    expand_generator,
    max_usable_index,
    theta_value,
)
from .lengths import SearchBudget, pool_bound
from .words import Word

_INF = float("inf")


@dataclass(frozen=True)
class Move:
    gen: Gen
    expansion: Word
    inverse: Word  # inverse of the expansion, applied to remainders


@dataclass
class MoveSet:
    moves: list[Move]
    max_expansion: int  # longest expansion among the moves
    min_theta: int  # smallest a+b count of any indexed generator move
    has_big: bool


@dataclass(frozen=True)
class Outcome:
    cost: int | None  # optimal cost, None when not proven optimal
    path: list[Gen] | None  # with cost None: best factorization found so far
    nodes: int
    lower_bound: int  # proven even when no factorization was found
    exhausted: bool


def build_moves(
    u: Word, upper_bound: int, params: GenSetParams, budget: SearchBudget
) -> MoveSet:
    """Letters plus every indexed generator below the sound cutoff.

    Raises BudgetExhausted if some index family is too large to list
    within the node budget (paper-scale bases fail here gracefully).
    """
    moves = [
        Move(gen, gen.letter.word(), ~gen.letter.word()) for gen in LETTER_GENS
    ]
    cutoff = max_usable_index(u, upper_bound, params)
    max_exp = 1
    if cutoff is not None:
        for j in range(params.jmin, cutoff + 1):
            for gen in enumerate_generators(
                params, j, max_count=budget.max_nodes, complete=True
            ):
                exp = expand_generator(gen, params)
                moves.append(Move(gen, exp, ~exp))
                if exp.s_length > max_exp:
                    max_exp = exp.s_length
    return MoveSet(
        moves=moves,
        max_expansion=max_exp,
        min_theta=theta_value(params.jmin, params),
        has_big=cutoff is not None,
    )


def make_heuristic(u: Word, upper_bound: int, params: GenSetParams, moves: MoveSet):
    """Admissible lower bound on the move-set word length of a remainder.

    Combines the best certificate bound with two counting bounds: a
    factorization with n symbols, m of them indexed generators, satisfies
    n >= m(T+1) - theta(r) (each indexed generator has a+b count at least
    T, every other symbol at least -1) and n >= |r| - m(E-1) (n-m letters
    and m expansions of at most E letters must spell all of r). With no
    indexed moves the letter count is the exact distance.
    """
    base = params.base
    emax = moves.max_expansion
    big_theta = moves.min_theta
    has_big = moves.has_big
    cache: dict[Word, int] = {}

    def h(r: Word) -> int:
        cached = cache.get(r)
        if cached is not None:
            return cached
        slen = r.s_length
        if not has_big:
            cache[r] = slen
            return slen
        ab = r.abelianize()
        best = pool_bound(ab, base)[0]
        theta = ab[0] + ab[1]
        struct = slen
        m = 1
        while True:
            a_part = m * (big_theta + 1) - theta
            if a_part >= struct:
                break
            cand = max(a_part, slen - m * (emax - 1), m)
            if cand < struct:
                struct = cand
            m += 1
        if struct > best:
            best = struct
        cache[r] = best
        return best

    return h


def _deadline(budget: SearchBudget, t0: float) -> float | None:
    if budget.max_millis is None:
        return None
    return t0 + budget.max_millis / 1000.0


def best_first(
    u: Word,
    moves: MoveSet,
    cap: int,
    h,
    budget: SearchBudget,
    t0: float,
) -> Outcome:
    """Optimal factorization cost within ``cap``, or a proven lower bound."""
    if u.is_identity():
        return Outcome(0, [], 0, 0, False)
    start_h = h(u)
    if start_h > cap:
        return Outcome(None, None, 0, start_h, True)
    deadline = _deadline(budget, t0)
    move_list = moves.moves
    best_g: dict[Word, int] = {u: 0}
    parents: dict[Word, tuple[Word, Gen]] = {}
    heap: list[tuple[int, int, tuple, int, Word]] = [
        (start_h, u.s_length, u.runs, 0, u)
    ]
    incumbent: int | None = None
    nodes = 0
    while heap:
        f, _, _, cost, state = heappop(heap)
        if incumbent is not None and f >= incumbent:
            return Outcome(incumbent, _rebuild(parents, u), nodes, incumbent, False)
        if cost > best_g.get(state, -1):
            continue  # stale entry
        nodes += 1
        if nodes > budget.max_nodes or (
            deadline is not None and time.perf_counter() > deadline
        ):
            # an incumbent found before running dry is still a valid witness,
            # just not proven optimal
            partial = _rebuild(parents, u) if incumbent is not None else None
            return Outcome(None, partial, nodes, 0, True)
        ncost = cost + 1
        limit = cap if incumbent is None else min(cap, incumbent - 1)
        for move in move_list:
            nxt = move.inverse * state
            if ncost < best_g.get(nxt, _INF):
                if nxt.is_identity():
                    best_g[nxt] = ncost
                    parents[nxt] = (state, move.gen)
                    incumbent = ncost
                    limit = min(cap, incumbent - 1)
                elif ncost + h(nxt) <= limit:
                    best_g[nxt] = ncost
                    parents[nxt] = (state, move.gen)
                    heappush(
                        heap, (ncost + h(nxt), nxt.s_length, nxt.runs, ncost, nxt)
                    )
    if incumbent is not None:
        return Outcome(incumbent, _rebuild(parents, u), nodes, incumbent, False)
    # Whole graph below the cap explored without reaching the target.
    return Outcome(None, None, nodes, cap + 1, True)


def _rebuild(parents: dict[Word, tuple[Word, Gen]], u: Word) -> list[Gen]:
    path: list[Gen] = []
    state = Word(())
    while state != u:
        prev, gen = parents[state]
        path.append(gen)
        state = prev
    path.reverse()
    return path


class _OutOfBudget(Exception):
    pass


def deepening(
    u: Word,
    moves: MoveSet,
    cap: int,
    h,
    budget: SearchBudget,
    t0: float,
) -> Outcome:
    """Iterative deepening on cost plus heuristic; the bound advances by
    the exact minimal overshoot, so the first factorization found is
    optimal for an admissible heuristic."""
    if u.is_identity():
        return Outcome(0, [], 0, 0, False)
    deadline = _deadline(budget, t0)
    move_list = moves.moves
    nodes = 0
    path: list[Gen] = []
    on_path = {u}
    overshoot = _INF

    def dfs(state: Word, cost: int, bound: int) -> bool:
        nonlocal nodes, overshoot
        nodes += 1
        if nodes > budget.max_nodes or (
            deadline is not None and nodes % 1024 == 0 and time.perf_counter() > deadline
        ):
            raise _OutOfBudget
        f = cost + h(state)
        if f > bound:
            if f < overshoot:
                overshoot = f
            return False
        if state.is_identity():
            return True
        for move in move_list:
            nxt = move.inverse * state
            if nxt in on_path:
                continue
            on_path.add(nxt)
            path.append(move.gen)
            if dfs(nxt, cost + 1, bound):
                return True
            path.pop()
            on_path.discard(nxt)
        return False

    bound = h(u)
    completed = bound - 1
    exhausted_graph = False
    while bound <= cap:
        overshoot = _INF
        try:
            if dfs(u, 0, bound):
                return Outcome(len(path), list(path), nodes, len(path), False)
        except _OutOfBudget:
            return Outcome(None, None, nodes, completed + 1, True)
        completed = bound
        if overshoot is _INF:
            exhausted_graph = True
            break
        bound = int(overshoot)
    lower = cap + 1 if exhausted_graph else max(bound, completed + 1)
    return Outcome(None, None, nodes, lower, True)
