"""Exhaustive shortest-factorization search over the implicit Cayley graph.

States are the remaining words still to be built; a move left-divides by
one generator's expansion. Two engines are provided: a best-first search
(priority queue on cost plus heuristic, with an incumbent so that an
admissible but inconsistent heuristic still yields the optimum) and an
iterative-deepening depth-first search whose bound grows by the exact
minimal overshoot. Both are deterministic for fixed inputs and budgets.

The heuristic reads only a state's key ``(na, nb, nc, letters)``: its
abelianisation and letter count (``state_key``). A child's key follows
from its parent's and the move's, the letter count less what cancels at
the seam (``words.seam``), so both engines score each child before it is
built and build only the children that pass (partial expansion).

The goal test is a lookup, not a move: a state is one move from the
identity exactly when it is the expansion of some move, and the move
set's goal table (``MoveSet.goals``) maps each expansion to its
generator. So neither engine ever builds the identity, and best-first
takes an incumbent as soon as it pushes an expansion. Node counts are
expanded states in both engines.

A move set depends on the parameters and the families below the index
cutoff alone, so each one, with its goal table, is built once per
process; each family is listed once per process too. So is the
heuristic: its value at a key depends on the parameters, the families
and the key alone, so every search with the same families reads one
memo, which holds at most ``_MEMO_LIMIT`` keys.
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
from .words import LETTERS, AbelianVector, Word, seam

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
    ab: AbelianVector  # abelianisation of ``inverse``
    letters: int  # letter count of ``inverse``
    tail: str  # base of the last run of ``inverse``

    @classmethod
    def of(cls, gen: Gen, inverse: Word) -> "Move":
        return cls(
            gen, inverse, inverse.abelianize(), inverse.s_length, inverse.runs[-1][0]
        )


@dataclass
class MoveSet:
    moves: list[Move]
    families: tuple[int, ...]  # indices of the indexed generators, ascending
    goals: dict[Word, Gen]  # expansion -> its generator


@dataclass(frozen=True)
class Outcome:
    cost: int | None  # optimal cost, None when not proven optimal
    path: list[Gen] | None  # with cost None: best factorization found so far
    nodes: int
    lower_bound: int  # proven even when no factorization was found


_LETTER_MOVES = tuple(Move.of(letter, ~letter.word()) for letter in LETTERS)


@lru_cache(maxsize=16)
def _family_moves(params: GenSetParams, j: int) -> tuple[Move, ...]:
    """The index-j family as moves.

    A family depends on (params, j) alone, so it is listed once per
    process; callers copy the tuple and never mutate what it holds.
    """
    return tuple(
        Move.of(gen, ~expand_generator(gen, params))
        for gen in enumerate_generators(params, j)
    )


@lru_cache(maxsize=16)
def _move_set(
    params: GenSetParams, families: tuple[int, ...]
) -> tuple[tuple[Move, ...], dict[Word, Gen]]:
    """The letters and the given families as moves, and their goal table:
    each expansion (``~move.inverse``) mapped to its generator. Distinct
    generators have distinct expansions (``family_size``), so no entry is
    lost. Callers never mutate what this returns."""
    moves = _LETTER_MOVES + sum((_family_moves(params, j) for j in families), ())
    return moves, {~move.inverse: move.gen for move in moves}


def build_moves(
    u: Word, upper_bound: int, params: GenSetParams, budget: SearchBudget
) -> MoveSet:
    """Letters plus every indexed generator below the sound cutoff.

    Raises BudgetExhausted, before listing anything, if some index family
    below the cutoff has more generators than the node budget (its size
    is known in closed form, ``family_size``), so paper-scale bases fail
    at once. The move list is the caller's own; the goal table is shared
    by every call with the same families and is never mutated.
    """
    cutoff = max_usable_index(u, upper_bound, params)
    families = () if cutoff is None else tuple(range(params.jmin, cutoff + 1))
    for j in families:
        check_family_size(params, j, budget.max_nodes)
    moves, goals = _move_set(params, families)
    return MoveSet(moves=list(moves), families=families, goals=goals)


def state_key(r: Word) -> tuple[int, int, int, int]:
    """The heuristic's argument for remainder r: (*ab(r), |r|)."""
    return (*r.abelianize(), r.s_length)


@lru_cache(maxsize=16)
def make_heuristic(params: GenSetParams, families: tuple[int, ...]):
    """Admissible lower bound on the word length of a remainder over the
    letters and the indexed ``families`` (ascending): the exact abelian
    relaxation, found in O(log |r|) steps. It is a function of the
    remainder's ``state_key`` (ab(r), |r|) alone, which it takes as its
    one argument. It needs only closed-form family data, so it never
    lists a family.

    Sharing. One heuristic is built per process for each
    ``(params, families)``, and its values are kept in one memo that every
    search with those families reads. This is sound because a value
    depends only on the base, d_jmin, d_J and E below and on the key, all
    fixed by the arguments of this call and of the lookup, and never on
    the search, the target or an earlier lookup: a shared memo returns
    what a fresh one would, so no bracket, witness, node count or report
    depends on which searches ran before. The memo holds at most
    ``_MEMO_LIMIT`` keys, evicting the least recently used.

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
    H(M+1) >= H(M). As H(0) = |r| and H(M) >= M, that M lies in [0, |r|],
    and h >= 1 on every key but the identity's, which both engines use.
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
        return lambda key: key[3]
    base = params.base
    w = base + 1  # H is computed scaled by w, in integers
    d_lo = params.inner_exp(families[0])
    d_hi = params.inner_exp(families[-1])
    grow = longest_expansion(params, families[-1]) - 1

    def relaxation(key: tuple[int, int, int, int]) -> int:
        na, nb, nc, slen = key
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

    # a cache hit, the common case, runs no Python frame
    return lru_cache(maxsize=_MEMO_LIMIT)(relaxation)


# Keys one memo may hold; past it the least recently used key goes. An
# entry costs at most about 375 bytes (CPython 3.11, 64-bit) while the
# key's four integers and the value are all below 2^30 in size, so a full
# memo takes about 12 MB, and the 16 that ``make_heuristic`` keeps at most
# 200 MB. The largest memo one search is known to need holds 2,743 keys
# (a^16 b^16 at base 2, 8,421 nodes).
_MEMO_LIMIT = 1 << 15


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
    """Optimal factorization cost within ``cap``, or a proven lower bound.

    Each child is scored before it is built: its key is the parent's
    abelianisation plus the move's, and the two letter counts less the
    letters cancelled at the seam, so f = cost + h(key) needs no product.
    A child with f above the limit, min(cap, incumbent - 1), is skipped
    unbuilt.

    Goal test. A state is looked up in the goal table each time it
    enters the heap, the root before the loop. A hit on a state X pushed
    at cost g is a factorization with g + 1 symbols: the path to X, then
    the generator the table names. X passed f <= limit with h(X) = 1
    (h >= 1 off the identity, and h <= 1 one move from it), so g + 1 is
    below the incumbent and replaces it, and the limit drops to g. Every
    other child of X's parent then has f > g: f >= g + 1 off the
    identity, and the identity is a child only of an expansion, which set
    an incumbent of at most g when it was pushed. So the scan stops, and
    a node whose children cost g is not scanned at all once limit <= g.

    Optimality. Suppose a factorization of c* <= cap symbols, with states
    s_0 = u, ..., s_c* = 1, and an incumbent that stays above c* or
    unset. Then every limit is at least c*, and each s_i with i < c* has
    f <= i + (c* - i) = c* at cost i, the least cost at which it can be
    reached. By induction each such s_i is pushed at cost i: s_(i-1) is
    in the heap with f < incumbent, so it is popped before the search
    ends, at its least cost, so not stale, and its scan reaches s_i, as
    a stop needs limit <= i < c*. Pushing s_(c*-1), an expansion, sets
    an incumbent of at most c*, a contradiction.

    The incumbent is a real path with exactly that many symbols. It is
    recorded as (X, generator) with incumbent = best_g[X] + 1, and
    best_g[X] drops only with a push of X, which looks X up again and
    lowers the incumbent with it. Parent links point to states of
    smaller best_g, so ``_rebuild`` walks from X back to u in at most
    best_g[X] steps: a real factorization of at most incumbent symbols.
    A proven incumbent is optimal, so the walk has exactly best_g[X]
    steps. When the budget runs out, the walk is returned unproven and
    its own length is used.
    ``xlength`` re-multiplies every path and raises on a mismatch.
    """
    if u.is_identity():
        return Outcome(0, [], 0, 0)
    start_h = h(state_key(u))
    if start_h > cap:
        return Outcome(None, None, 0, start_h)
    deadline = _deadline(budget, t0)
    move_list, goals = moves.moves, moves.goals
    best_g: dict[Word, int] = {u: 0}
    parents: dict[Word, tuple[Word, Gen]] = {}
    heap: list[tuple[int, int, tuple, int, Word]] = [
        (start_h, u.s_length, u.runs, 0, u)
    ]
    incumbent: int | None = None
    last: tuple[Word, Gen] | None = None  # the incumbent's expansion state
    gen = goals.get(u)
    if gen is not None:
        incumbent, last = 1, (u, gen)
    nodes = 0
    while heap:
        f, slen, runs, cost, state = heappop(heap)
        if incumbent is not None and f >= incumbent:
            return Outcome(incumbent, _rebuild(parents, u, last), nodes, incumbent)
        if cost > best_g.get(state, -1):
            continue  # stale entry
        nodes += 1
        if nodes > budget.max_nodes or (
            deadline is not None and time.perf_counter() > deadline
        ):
            # an incumbent found before running dry is still a valid witness,
            # just not proven optimal
            partial = _rebuild(parents, u, last) if incumbent is not None else None
            return Outcome(None, partial, nodes, 0)
        ncost = cost + 1
        limit = cap if incumbent is None else min(cap, incumbent - 1)
        if limit <= ncost:
            continue  # every child has f >= ncost + 1
        na, nb, nc = state.abelianize()
        head = runs[0][0]
        # The scoring is written out here and in ``deepening``, not shared
        # through a generator: resuming one per move made this loop about
        # 15 % slower per move (656 moves, base 2, CPython 3.11).
        for move in move_list:
            letters = move.letters + slen
            if move.tail == head:  # else nothing merges at the seam
                letters -= seam(move.inverse.runs, runs)[2]
            dna, dnb, dnc = move.ab
            key = (na + dna, nb + dnb, nc + dnc, letters)
            f_nxt = ncost + h(key)
            if f_nxt > limit:
                continue
            nxt = move.inverse * state
            if ncost < best_g.get(nxt, _INF):
                best_g[nxt] = ncost
                parents[nxt] = (state, move.gen)
                heappush(heap, (f_nxt, letters, nxt.runs, ncost, nxt))
                gen = goals.get(nxt)
                if gen is not None:
                    incumbent, last = ncost + 1, (nxt, gen)
                    break  # the limit is now ncost
    if incumbent is not None:
        return Outcome(incumbent, _rebuild(parents, u, last), nodes, incumbent)
    # Whole graph below the cap explored without reaching the target.
    return Outcome(None, None, nodes, cap + 1)


def _rebuild(
    parents: dict[Word, tuple[Word, Gen]], u: Word, last: tuple[Word, Gen]
) -> list[Gen]:
    """The path from u to ``last``'s state, then ``last``'s generator."""
    state, gen = last
    path = [gen]
    while state != u:
        state, gen = parents[state]
        path.append(gen)
    path.reverse()
    return path


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
    optimal for an admissible heuristic.

    A pass visits the cycle-free paths from u whose states all have
    f <= bound. Each child is scored from its parent's key before it is
    built, as in ``best_first``; a child with f > bound is counted in the
    overshoot and skipped unbuilt, and only a child that passes is built
    and checked against the path. Nodes, the unit of ``max_nodes``, are
    the states visited, each checked against the deadline. A visited
    state is looked up in the goal table first, and a hit ends the
    search: the path so far and the generator the table names. The walk
    keeps its own stack of frames instead of recursing, so a path may be
    longer than Python's recursion limit.

    The first factorization found is optimal. The visited state has
    f = cost + h <= bound and h >= 1, so the factorization has
    cost + 1 <= bound symbols, while bound is a proven lower end (below);
    so it has exactly bound symbols. The identity is a child only of an
    expansion, whose lookup hits first, so it is never visited.

    The pass bound is a proven lower end, also when the budget runs out
    mid-pass. In the first pass it is h(u). After a completed pass with
    bound b, take any factorization; dropping its cycles gives a
    cycle-free path of some cost c no larger, with states s_0 = u, ...,
    s_c = 1. Some s_i with i < c has f > b, or the pass would have
    reached s_(c-1) and found it. The first such s_i is a child of a
    visited state, so its f was scored and counted in the minimal
    overshoot, the new bound; and f(s_i) <= c, as h is admissible. So
    c >= bound. Children on the current path are counted too, before
    the path check; that only adds candidates to the overshoot, each
    above b, so the bound still grows and stays at most c.
    """
    if u.is_identity():
        return Outcome(0, [], 0, 0)
    deadline = _deadline(budget, t0)
    move_list, goals = moves.moves, moves.goals
    nodes = 0
    root_key = state_key(u)
    bound = h(root_key)
    while bound <= cap:
        overshoot = _INF
        path: list[Gen] = []  # the moves from u to the last state reached
        on_path = {u}
        # one frame per state on the path: the state, its key, the cost of
        # its children and an iterator over the moves not yet tried from it
        frames = []
        state, key = u, root_key  # the state to visit next
        while state is not None:
            nodes += 1
            if nodes > budget.max_nodes or (
                deadline is not None and time.perf_counter() > deadline
            ):
                return Outcome(None, None, nodes, bound)
            gen = goals.get(state)
            if gen is not None:
                path.append(gen)
                return Outcome(len(path), path, nodes, len(path))
            frames.append((state, key, len(frames) + 1, iter(move_list)))
            state = None
            while state is None and frames:
                parent, (na, nb, nc, slen), ncost, untried = frames[-1]
                runs = parent.runs
                head = runs[0][0]
                for move in untried:  # the scoring of ``best_first``, inline
                    letters = move.letters + slen
                    if move.tail == head:
                        letters -= seam(move.inverse.runs, runs)[2]
                    dna, dnb, dnc = move.ab
                    nkey = (na + dna, nb + dnb, nc + dnc, letters)
                    f = ncost + h(nkey)
                    if f > bound:
                        if f < overshoot:
                            overshoot = f
                        continue
                    nxt = move.inverse * parent
                    if nxt not in on_path:
                        on_path.add(nxt)
                        path.append(move.gen)
                        state, key = nxt, nkey
                        break
                else:  # every child tried: back up one step
                    frames.pop()
                    on_path.discard(parent)
                    del path[-1:]  # the move into parent; the root has none
        if overshoot is _INF:
            # Whole graph below the cap explored without reaching the target.
            return Outcome(None, None, nodes, cap + 1)
        bound = int(overshoot)
    return Outcome(None, None, nodes, bound)
