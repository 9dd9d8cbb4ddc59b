"""Deterministic random stream derivation.

Every random draw in the package flows from one master seed. Streams are
named by a path of small integers fed to ``numpy.random.SeedSequence`` as
its spawn key and consumed through counter-based Philox generators, so two
distinct paths never share state and any run replays bit for bit.

Path layout used by the pipeline:

    (STREAM_SESSION, iteration, role)   per-session simulation stream
    (STREAM_SPLIT, iteration)           train/test shuffling
    (STREAM_LEARN, iteration)           structure-search restarts

where role is 1 for the expert and 2 for the learner, and iteration is 0
for the one-shot identification commands and 1-based inside the transfer
loop.

Session stream layout. ``run_session`` keeps one ``derive_rng(seed)``
Philox stream per session and reads its first T doubles in one call, the
double at position t for tick t. A tick's double ``u`` is decoded by the
inverse CDF of the session's joint law over (context code, behavior
index) pairs, laid out row-major: pair ``code * 9 + b`` for the context
code of ``CONTEXTS`` and behavior ``b`` in ``EVENT_ATTRIBUTES`` order,
with mass equal to the context's probability times the behavior's
probability under it. The tick is the first pair whose cumulative mass,
divided by the total, exceeds ``u``. ``run_session`` finds that pair
through an exact guide table; the rule, not the lookup, fixes the layout.

Every tick reads exactly one double, so a session of T ticks is the
first T ticks of any longer session with the same seed, and a replay
that reads one double per tick from ``derive_rng(seed)``, in any
grouping, gives back ``run_session``'s ticks one by one.

Search stream layout. ``learn_structure`` keeps one ``derive_rng(seed)``
Philox stream per search and draws its R random starts (R restarts; the
empty start needs none) as one ``(R, n, n + 2)`` block of doubles, for n
columns. Start s reads only row s. Its column 0 holds one order key per
node, and their stable ``argsort`` is the start's topological order. In
row j of the other columns, position j of that order reads its parent
count ``floor(u * (min(j, max_parents) + 1))`` from column 1 and picks
that many parents among positions i < j by the smallest of their keys in
columns ``2 + i``. A search of R restarts thus tries the starts of every
search with fewer, on the same seed.
"""

from __future__ import annotations

import numpy as np

STREAM_SESSION = 1
STREAM_SPLIT = 2
STREAM_LEARN = 3

ROLE_EXPERT = 1
ROLE_LEARNER = 2


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator for the stream named by ``path``."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(master_seed: int, *path: int) -> int:
    """Collapse a stream name to a single integer seed.

    Useful when an API takes a seed rather than a generator; the result
    is stable across platforms and numpy versions that keep the
    SeedSequence hashing scheme.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])
