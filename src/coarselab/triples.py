"""The vertex triples that :func:`coarselab.geodesics.thin_delta` checks,
as arrays, and their runs.

All C(n, 3) triples come in lexicographic order, in bounded chunks; a
seeded sample is drawn exactly as the loop ``tuple(sorted(rng.sample(
range(n), 3)))`` would draw it, attempt by attempt, but from the
generator's words read in bulk (``_draws``). Either way the triples are
the rows of (T, 3) int64 arrays, and ``_triple_runs`` cuts them into the
runs whose far ends' rows a row store loads at once, by sorts of windows
of far ends, with no Python work per triple.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator

import numpy as np

from .graphs import _find, _Rows

# The seeded draw reads this many generator words at a time, and the
# exhaustive one yields this many triples at a time.
_DRAW_WORDS = 2**12


def _all_triples(n: int) -> Iterator[np.ndarray]:
    """Every triple x < y < z of ``range(n)`` in lexicographic order, as
    the rows of (T, 3) arrays of at most ``_DRAW_WORDS`` triples."""
    combos = itertools.chain.from_iterable(itertools.combinations(range(n), 3))
    while (part := np.fromiter(itertools.islice(combos, 3 * _DRAW_WORDS), np.int64)).size:
        yield part.reshape(-1, 3)


def _sampled_triples(n: int, budget: int, seed: int) -> np.ndarray:
    """The triples of ``tuple(sorted(rng.sample(range(n), 3)))``, drawn with
    ``rng = random.Random(seed)`` until ``budget`` are distinct or for 4 *
    budget + 64 draws, whichever comes first: the distinct ones as the rows
    of a sorted (T, 3) array.

    The draws come in batches from ``_draws``, and each triple is the key
    (x n + y) n + z, which int64 holds below 2^21 vertices. A batch's keys
    are kept at their first draw, if not yet held, up to the draw that
    makes the budget; the held keys stay one sorted array."""
    if n >= 2**21:
        raise ValueError(f"a sampled delta takes graphs of fewer than 2**21 vertices, not {n}")
    cap = 4 * budget + 64
    held = np.empty(0, dtype=np.int64)
    attempts = 0
    for drawn in _draws(n, seed):
        x, y, z = np.sort(drawn[: cap - attempts], axis=1).T
        keys = (x * n + y) * n + z
        attempts += keys.size
        fresh = _first_uses(keys) & ~_find(held, keys)[1]
        count = np.cumsum(fresh)
        if count[-1] >= budget - held.size:  # stop at the draw that makes the budget
            fresh[int(np.searchsorted(count, budget - held.size)) + 1 :] = False
        held = np.concatenate((held, np.sort(keys[fresh])))
        held.sort(kind="stable")  # merges the two sorted runs
        if held.size == budget or attempts == cap:
            break
    xy, z = np.divmod(held, n)
    return np.column_stack((*np.divmod(xy, n), z))


def _draws(n: int, seed: int) -> Iterator[np.ndarray]:
    """``random.Random(seed).sample(range(n), 3)``, call after call, as the
    rows of (m, 3) arrays, for 3 <= n < 2^32.

    The generator's 32-bit Mersenne outputs are read ``_DRAW_WORDS`` at a
    time, as the little-endian words of one ``getrandbits`` value; a call
    the words do not finish starts the next batch. ``_randbelow(m)`` takes
    a word's top m.bit_length() bits and draws again while they are >= m.
    ``sample`` takes a pool draw for n <= 21 and a set draw above."""
    rng = random.Random(seed)
    words = np.empty(0, dtype=np.int64)
    while True:
        batch = rng.getrandbits(32 * _DRAW_WORDS).to_bytes(4 * _DRAW_WORDS, "little")
        words = np.concatenate((words, np.frombuffer(batch, dtype="<u4")))
        calls, rest = (_pool_calls if n <= 21 else _set_calls)(n, words)
        yield calls
        words = words[rest:]


def _pool_calls(n: int, words: np.ndarray) -> tuple[np.ndarray, int]:
    """The pool draw's calls that ``words`` finish, and the word the next
    call starts at. Pick i draws j_i below n - i from the first word at or
    after its start that gives one, and takes the pool's item j_i, moving
    the last live item, n - 1 - i, into its place."""
    size = words.size
    shifts = [32 - (n - i).bit_length() for i in range(3)]
    # at[i][p]: the first word at or after p that pick i accepts (size if none)
    hits = (np.where(words >> shift < n - i, np.arange(size), size) for i, shift in enumerate(shifts))
    at = [np.minimum.accumulate(np.append(hit, [size, size])[::-1])[::-1] for hit in hits]
    p0 = at[0][:size]
    p1 = at[1][p0 + 1]
    p2 = at[2][p1 + 1]
    starts = _finished(p2, size)
    j0, j1, j2 = (words[p[starts]] >> shift for p, shift in zip((p0, p1, p2), shifts))
    x1 = np.where(j1 == j0, n - 1, j1)
    x2 = np.where(j2 == j1, np.where(j0 == n - 2, n - 1, n - 2), np.where(j2 == j0, n - 1, j2))
    return np.column_stack((j0, x1, x2)), int(p2[starts[-1]]) + 1 if starts.size else 0


def _set_calls(n: int, words: np.ndarray) -> tuple[np.ndarray, int]:
    """The set draw's calls that ``words`` finish, and the word the next
    call starts at. Over the values below n that the words give, a call
    from value s takes it, the next value unlike it, at p, and the next
    unlike both, at q."""
    shift = 32 - n.bit_length()
    at = np.flatnonzero(words >> shift < n)
    v = np.append(words[at] >> shift, [n, n + 1])  # two ends that stop the scans
    s = np.arange(at.size)
    p, redo = s + 1, s
    while (redo := redo[v[p[redo]] == v[redo]]).size:
        p[redo] += 1
    q, redo = p + 1, s
    while (redo := redo[(v[q[redo]] == v[redo]) | (v[q[redo]] == v[p[redo]])]).size:
        q[redo] += 1
    starts = _finished(q, at.size)
    rest = int(q[starts[-1]]) + 1 if starts.size else 0
    return np.column_stack((v[starts], v[p[starts]], v[q[starts]])), at[rest] if rest < at.size else words.size


def _finished(last: np.ndarray, size: int) -> np.ndarray:
    """The starts of the calls that finish within ``size`` positions, one
    after another from position 0, where a call from s ends at ``last[s]``
    (at or past ``size`` if it does not finish). The calls follow by
    pointer doubling: each round adds as many as the rounds before found."""
    step = np.append(np.minimum(last + 1, size), size)  # ``size`` leads to itself
    on = np.zeros(size + 1, dtype=bool)
    on[0] = True
    span = 1
    while span <= size:
        on[step[on]] = True
        step = step[step]
        span *= 2
    starts = np.flatnonzero(on[:size])
    return starts[last[starts] < size]


def _first_uses(a: np.ndarray) -> np.ndarray:
    """Whether each entry of ``a`` is the first of its value, by one sort."""
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    first = np.empty(a.size, dtype=bool)
    first[order] = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    return first


def _triple_runs(
    parts: Iterable[np.ndarray], rows: _Rows, room: int | None = None, most: int | None = None
) -> Iterator[tuple[np.ndarray, list[int]]]:
    """``geodesics._loaded_runs`` for triples that arrive as the rows of
    (T, 3) arrays, whose ends are the far ends y and z: consecutive runs of
    them, as arrays, each with its far ends in order of first use, loaded
    into ``rows`` before the run is yielded. A run has at least one triple and
    at most ``most``; beyond its first triple, its far ends fit the store
    and number at most ``room``.

    Each cut sorts the far ends of a window of triples from the run's
    start once (``_first_uses``) and cuts before the first triple that
    overflows; a window without one doubles, and the next window starts
    one triple longer than this run, so the cutting is linear in the
    triples."""
    room = rows.capacity if room is None else min(room, rows.capacity)
    parts = iter(parts)
    buf = np.empty((0, 3), dtype=np.int64)
    window = most or room
    while True:
        while len(buf) < window and (part := next(parts, None)) is not None:
            buf = np.concatenate((buf, part))
        if not len(buf):
            return
        w = min(window, len(buf), most or window)
        ends = buf[:w, 1:].ravel()
        first = _first_uses(ends)
        over = np.flatnonzero(np.cumsum(first)[3::2] > room)  # the far ends of triples 0..t+1
        if not over.size and w == window != most:
            window *= 2
            continue
        take = int(over[0]) + 1 if over.size else w
        far_ends = ends[: 2 * take][first[: 2 * take]].tolist()
        rows.load(far_ends)
        yield buf[:take], far_ends
        buf, window = buf[take:], take + 1
