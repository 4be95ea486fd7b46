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
from functools import lru_cache
from heapq import heappop, heappush

from .genset import (
    Gen,
    GenSetParams,
    check_family_size,
    enumerate_generators,
    expand_generator,
    longest_expansion,
    max_usable_index,
)
from .words import LETTERS, Word

_INF = float("inf")


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 1_000_000
    max_cost: int | None = None
    max_millis: float | None = None


@dataclass(frozen=True)
class Move:
    gen: Gen
    inverse: Word  # inverse of the expansion, applied to remainders


@dataclass
class MoveSet:
    moves: list[Move]
    families: tuple[int, ...]  # indices of the indexed generators, ascending


@dataclass(frozen=True)
class Outcome:
    cost: int | None  # optimal cost, None when not proven optimal
    path: list[Gen] | None  # with cost None: best factorization found so far
    nodes: int
    lower_bound: int  # proven even when no factorization was found


_LETTER_MOVES = tuple(Move(letter, ~letter.word()) for letter in LETTERS)


@lru_cache(maxsize=16)
def _family_moves(params: GenSetParams, j: int) -> tuple[Move, ...]:
    """The index-j family as moves.

    A family depends on (params, j) alone, so it is listed once per
    process; callers copy the tuple and never mutate what it holds.
    """
    return tuple(
        Move(gen, ~expand_generator(gen, params))
        for gen in enumerate_generators(params, j)
    )


def build_moves(
    u: Word, upper_bound: int, params: GenSetParams, budget: SearchBudget
) -> MoveSet:
    """Letters plus every indexed generator below the sound cutoff.

    Raises BudgetExhausted, before listing anything, if some index family
    below the cutoff has more generators than the node budget (its size
    is known in closed form, ``family_size``), so paper-scale bases fail
    at once.
    """
    cutoff = max_usable_index(u, upper_bound, params)
    families = () if cutoff is None else tuple(range(params.jmin, cutoff + 1))
    for j in families:
        check_family_size(params, j, budget.max_nodes)
    moves = list(_LETTER_MOVES)
    for j in families:
        moves.extend(_family_moves(params, j))
    return MoveSet(moves=moves, families=families)


def make_heuristic(params: GenSetParams, families: tuple[int, ...]):
    """Admissible lower bound on the word length of a remainder over the
    letters and the indexed ``families`` (ascending): the exact abelian
    relaxation, found in O(log |r|) steps and cached per (ab(r), |r|). It
    needs only closed-form family data, so it never lists a family.

    Soundness. Let B be the base, g = (B, B+1, 0), and let the families
    be the indices j in [jmin, J]. Whatever its conjugator, an index-j
    generator abelianizes to d_j g with d_j = B^(2j-1). Take a
    factorization of r, with ab(r) = (na, nb, nc), into n symbols, M of
    them indexed. Their images add up to t g with M d_jmin <= t <= M d_J,
    and the n - M letters are unit vectors, so

        n - M >= |nc| + R(t),   R(t) = |na - B t| + |nb - (B+1) t|.

    The n - M letters and M expansions of at most
    E = 2 B^J + B^(2J-1) + 2 B^(2J) letters (``longest_expansion``, which
    grows with j) spell r, so also n >= |r| - M (E - 1). Hence n >= H(M),
    where

        H(M) = max(M + |nc| + min of R over [M d_jmin, M d_J], |r| - M (E - 1)).

    R(t) = B |na/B - t| + (B+1) |nb/(B+1) - t| is convex and smallest at
    nb/(B+1), the point of larger weight, so over an interval it is
    smallest at the clamp of nb/(B+1) into it. The first term of H is R
    minimized over the slice at M of the convex cone
    {(M, t) : M d_jmin <= t <= M d_J}, hence convex in M; the second term
    is linear, so H is convex, and h(r) = ceil(min of H(M) over integers
    M >= 0) is found by a binary search for the first M with
    H(M+1) >= H(M). As H(0) = |r| and H(M) >= M, that M lies in [0, |r|].
    With one family t = M d_jmin is forced, and the bound is the integer
    relaxation itself. Without indexed moves only the letters remain and
    h is the letter count, which is exact.

    Dominance. h is at least the earlier heuristic, the larger of the
    best certificate pool bound and the counting bound
    min over m >= 0 of max(m (T+1) - theta(r), |r| - m (E-1), m), with
    T = theta_value(jmin) and theta = na + nb; so it prunes at least as
    much:
      * R(t) >= (B t - na) + ((B+1) t - nb) = (2B+1) t - theta, and
        t >= M d_jmin with (2B+1) d_jmin = T, give
        M + R >= M (T+1) - theta: H(M) is at least the counting term at
        m = M;
      * every pool row psi (a negated LOWER certificate) has psi(g) <= 0
        and coefficients of size at most cap, so for t >= 0
        psi(ab) = psi(ab - t g) + t psi(g) <= cap (|nc| + R(t)), and the
        row's bound ceil(psi(ab) / cap) is at most h.
    """
    if not families:
        return lambda r: r.s_length
    base = params.base
    w = base + 1  # H is computed scaled by w, in integers
    d_lo = params.inner_exp(families[0])
    d_hi = params.inner_exp(families[-1])
    grow = longest_expansion(params, families[-1]) - 1
    cache: dict[tuple[int, int, int, int], int] = {}

    def relaxation(na: int, nb: int, nc: int, slen: int) -> int:
        fixed = w * abs(nc)
        balanced = abs(w * na - base * nb)  # w R(nb / w)

        def scaled_h(m: int) -> int:  # w H(m)
            lo, hi = m * d_lo, m * d_hi
            if nb < w * lo:
                rest = w * (abs(na - base * lo) + w * lo - nb)
            elif nb > w * hi:
                rest = w * (abs(na - base * hi) + nb - w * hi)
            else:
                rest = balanced
            return max(w * m + fixed + rest, w * (slen - m * grow))

        lo, hi = 0, slen
        while lo < hi:
            mid = (lo + hi) // 2
            if scaled_h(mid + 1) >= scaled_h(mid):
                hi = mid
            else:
                lo = mid + 1
        return -(-scaled_h(lo) // w)

    def h(r: Word) -> int:
        key = (*r.abelianize(), r.s_length)
        value = cache.get(key)
        if value is None:
            value = cache[key] = relaxation(*key)
        return value

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
        return Outcome(0, [], 0, 0)
    start_h = h(u)
    if start_h > cap:
        return Outcome(None, None, 0, start_h)
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
            return Outcome(incumbent, _rebuild(parents, u), nodes, incumbent)
        if cost > best_g.get(state, -1):
            continue  # stale entry
        nodes += 1
        if nodes > budget.max_nodes or (
            deadline is not None and time.perf_counter() > deadline
        ):
            # an incumbent found before running dry is still a valid witness,
            # just not proven optimal
            partial = _rebuild(parents, u) if incumbent is not None else None
            return Outcome(None, partial, nodes, 0)
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
                elif (f_nxt := ncost + h(nxt)) <= limit:
                    best_g[nxt] = ncost
                    parents[nxt] = (state, move.gen)
                    heappush(heap, (f_nxt, nxt.s_length, nxt.runs, ncost, nxt))
    if incumbent is not None:
        return Outcome(incumbent, _rebuild(parents, u), nodes, incumbent)
    # Whole graph below the cap explored without reaching the target.
    return Outcome(None, None, nodes, cap + 1)


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
        return Outcome(0, [], 0, 0)
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
                return Outcome(len(path), list(path), nodes, len(path))
        except _OutOfBudget:
            return Outcome(None, None, nodes, completed + 1)
        completed = bound
        if overshoot is _INF:
            exhausted_graph = True
            break
        bound = int(overshoot)
    lower = cap + 1 if exhausted_graph else max(bound, completed + 1)
    return Outcome(None, None, nodes, lower)
