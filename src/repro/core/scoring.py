"""Swappable scoring kernels for the neighbor index — score-identical by construction.

:class:`~repro.core.neighbors.ProfileNeighborIndex` scores candidates through
a single :class:`ScoringKernel` interface with two backends:

- ``dict`` — the default (:data:`DEFAULT_BACKEND`), pure Python, no
  third-party dependency: exact *term-at-a-time* scoring over positional
  posting lists.  Every indexed consumer holds a row, and per vector side
  (preferences, flattened terms) the kernel keeps
  ``key → position in the entry's own dict → {row: weight}``, maintained
  through ``entry_changed`` / ``entry_removed`` / ``reset``.  A query visits
  only the rows that share a key with the target and takes **one** dot per
  row, the one the reference loop would have: the reference
  :func:`repro.core.similarity.cosine_similarity_cached` iterates the
  shorter vector (the target on a tie), so *target keys, then positions* —
  the shared products in the target's dict order — is its sum for every row
  at least as long as the target.  It is also its sum for every row of one
  or two keys, because a sum of at most two products does not depend on
  their order.  Only a row with ``3 <= len(row) < len(target)`` needs its
  own dict order, *positions, then target keys*; that second walk runs only
  when such a row is linked (``rows_of_length`` knows) and overwrites only
  those rows; on a side whose vectors have at most three keys — the
  preferences of every ledger population — it never runs.
  Products with absent keys are skipped (the zero-sign argument below) and
  a row no posting touched scores exactly ``0.0``.  One loop over the two
  dot lists then divides by the norms, weights and clamps.
- ``numpy`` — optional batch backend: entries are packed into CSR/CSC-style
  contiguous arrays and a whole candidate block is scored per query.  Exact
  dot products come from ``np.bincount(rows, weights=products)``, which
  accumulates its weights *sequentially in input order* in one C pass —
  with rows laid out in entry order that is precisely the reference
  loop's left-to-right ``sum``, so every non-zero dot is bit-identical.  The
  score formula and clamp are vectorized with elementwise IEEE operations
  identical to the scalar expressions.

Both backends drop the ``x * 0.0`` products of keys one side lacks.  That can
only change the sign of a dot that is exactly zero, which the score cannot
observe: it ends in ``max(0.0, min(1.0, s))`` — see
:meth:`NumpyKernel._side_cosines` for the full argument.

Bit-identity with the brute-force
:func:`repro.core.similarity.find_similar_users`, not approximate equality,
is the contract: the property suite in
``tests/property/test_scoring_kernel.py`` drives both backends over
adversarial profiles (zero norms, empty term sets, single ratings, disjoint
categories, shared keys in different orders with magnitudes far enough apart
that float addition visibly does not associate) and asserts ``==`` on every
score.

The neighbor index takes the block path (:meth:`ScoringKernel.score_block`)
for every query on both backends; there is no per-candidate scoring loop.
A :class:`BlockScores` carries every row's score as a bare float list, and
:meth:`BlockScores.top_pairs` selects before it materialises: the
``(k + 1)``-th largest score is a floor, and only the rows at or above it
become ``(user_id, score)`` tuples, meet the discard rule and are sorted.  So
a ``dict`` query costs one product per shared key (two on a side with rows of
``3 <= len < len(target)``), one arithmetic pass over the rows, one
``heapq.nlargest`` and one filter — and tuple building, the discard
predicate and the sort only for about k rows.

Backend selection: ``resolve_backend("auto")`` picks numpy when importable
and not disabled, else ``dict``; setting the ``REPRO_NO_NUMPY`` environment
variable hides numpy (CI re-runs the kernel and index suites that way).
"""

from __future__ import annotations

import heapq
import os
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.neighbors import _ProfileEntry

__all__ = [
    "DEFAULT_BACKEND",
    "KERNEL_BACKENDS",
    "ScoringKernel",
    "TargetState",
    "BlockScores",
    "available_backends",
    "create_kernel",
    "numpy_available",
    "resolve_backend",
]

#: The closed set of valid kernel backend names ("auto" resolves into these).
KERNEL_BACKENDS = ("dict", "numpy")

#: The backend every ``backend=`` / ``scoring_backend=`` parameter defaults to.
DEFAULT_BACKEND = "dict"

_numpy_module = None
_numpy_probed = False


def numpy_available() -> bool:
    """Whether the numpy backend may be used right now.

    The ``REPRO_NO_NUMPY`` environment variable wins over importability so CI
    can exercise the stdlib-only code path on machines where numpy cannot be
    uninstalled.
    """
    if os.environ.get("REPRO_NO_NUMPY"):
        return False
    global _numpy_module, _numpy_probed
    if not _numpy_probed:
        try:
            import numpy  # noqa: F401 - probe only

            _numpy_module = numpy
        except ImportError:  # pragma: no cover - numpy ships in the image
            _numpy_module = None
        _numpy_probed = True
    return _numpy_module is not None


def _numpy():
    if not numpy_available():  # pragma: no cover - guarded by resolve_backend
        raise RuntimeError("numpy backend requested but numpy is unavailable")
    return _numpy_module


def available_backends() -> List[str]:
    """The :data:`KERNEL_BACKENDS` usable right now, reference first."""
    return [name for name in KERNEL_BACKENDS if name != "numpy" or numpy_available()]


def resolve_backend(backend: str) -> str:
    """Validate ``backend`` and resolve ``"auto"`` to a concrete name.

    ``auto`` prefers numpy when available and falls back to the ``dict``
    reference kernel; asking for ``numpy`` explicitly when it is unavailable
    is an error rather than a silent downgrade.
    """
    if backend == "auto":
        return "numpy" if numpy_available() else "dict"
    if backend not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown scoring backend {backend!r}; "
            f"expected one of {KERNEL_BACKENDS + ('auto',)}"
        )
    if backend == "numpy" and not numpy_available():
        raise ValueError(
            "scoring backend 'numpy' requested but numpy is unavailable "
            "(is REPRO_NO_NUMPY set?)"
        )
    return backend


def create_kernel(backend: str) -> "ScoringKernel":
    """Instantiate the kernel for a resolved backend name."""
    backend = resolve_backend(backend)
    if backend == "dict":
        return DictKernel()
    return NumpyKernel()


class TargetState:
    """Per-query prepared view of the target profile's vectors.

    Built once by :meth:`ScoringKernel.prepare_target` and handed to
    :meth:`ScoringKernel.score_block`.
    """

    __slots__ = ("prefs", "pref_norm", "terms", "term_norm")

    def __init__(
        self,
        prefs: Dict[str, float],
        pref_norm: float,
        terms: Dict[str, float],
        term_norm: float,
    ) -> None:
        self.prefs = prefs
        self.pref_norm = pref_norm
        self.terms = terms
        self.term_norm = term_norm


class ScoringKernel:
    """Backend interface the neighbor index scores candidates through.

    Every backend implements :meth:`score_block`, which scores every indexed
    entry for one target and returns a :class:`BlockScores`.
    """

    name: str = "abstract"

    # -- entry lifecycle (driven by ProfileNeighborIndex) ---------------------

    def reset(self) -> None:
        """Drop all per-entry state (index rebuilt from scratch)."""

    def entry_changed(self, entry: "_ProfileEntry") -> None:
        """An entry was (re)indexed; refresh backend state for it."""

    def entry_removed(self, user_id: str) -> None:
        """An entry was dropped from the index."""

    # -- scoring --------------------------------------------------------------

    def prepare_target(
        self,
        prefs: Dict[str, float],
        pref_norm: float,
        terms: Dict[str, float],
        term_norm: float,
    ) -> TargetState:
        return TargetState(prefs, pref_norm, terms, term_norm)

    def score_block(
        self,
        entries: Dict[str, "_ProfileEntry"],
        tq: TargetState,
        preference_weight: float,
        term_weight: float,
        total_weight: float,
    ) -> "BlockScores":
        raise NotImplementedError


class BlockScores:
    """Every kernel row's score for one target.

    ``user_ids`` / ``scores`` are plain lists by row.  Rows are the kernel's
    own numbering: the ``dict`` kernel keeps free rows (user id ``None``,
    score 0.0) between its live ones.
    """

    __slots__ = ("user_ids", "scores")

    def __init__(self, user_ids, scores) -> None:
        self.user_ids = user_ids
        self.scores = scores

    def top_pairs(
        self,
        minimum: float,
        exclude_user: str,
        top_k: int,
        discard: Optional[Callable[[str], bool]] = None,
    ) -> List[Tuple[str, float]]:
        """The ``top_k`` best ``(user_id, score)`` pairs, selected before built.

        Equal to ``sorted(valid, key=(-score, user_id))[:top_k]`` where
        ``valid`` is every live row but ``exclude_user`` with
        ``score >= minimum`` that ``discard(user_id)`` does not reject.  The
        ``(top_k + 1)``-th largest score of the bare float list is a floor:
        the rows at or above it — ties included — hold the top ``top_k`` of
        the live rows even with the excluded target among them, since a free
        row can only reach a floor of 0.0, which admits every row.  Only
        those rows become tuples and are sorted.  When ``discard`` leaves
        fewer than ``top_k`` of them the floor is taken again four times
        deeper, down to ``minimum``.
        """
        scores = self.scores
        user_ids = self.user_ids
        depth = top_k + 1
        ranked = heapq.nlargest(depth, scores)
        while True:
            floor = minimum
            if depth <= len(ranked):
                floor = max(minimum, ranked[depth - 1])
            pairs = [
                (user_id, score)
                for user_id, score in zip(user_ids, scores)
                if score >= floor and user_id != exclude_user and user_id is not None
            ]
            if discard is not None:
                pairs = [pair for pair in pairs if not discard(pair[0])]
            if len(pairs) >= top_k or floor <= minimum:
                break
            if len(ranked) < len(scores):
                # nlargest is a Python-level heap loop, dearer than a C sort
                # once the depth grows: one sort serves every wider floor.
                ranked = sorted(scores, reverse=True)
            # Geometric, so a rule that rejects nearly everybody costs a
            # handful of passes, not one per missing survivor.
            depth *= 4
        pairs.sort(key=lambda pair: (-pair[1], pair[0]))
        return pairs[:top_k]


class _Postings:
    """Positional posting lists of one vector side (prefs or terms).

    ``buckets[key][position][row]`` is the weight of ``key`` in the vector
    linked at ``row``, where ``position`` is the key's index in that
    vector's own dict order; ``vectors[row]`` / ``norms[row]`` are the linked
    vector (``None`` for a free row) and its norm, and
    ``rows_of_length[n]`` is the set of rows whose vector has ``n`` keys.
    Both maps are kept canonical — no empty trailing bucket, no empty key,
    no empty length class — so they hold exactly one weight per key and one
    row per linked vector whatever sequence of links and unlinks produced
    them.
    """

    __slots__ = ("buckets", "vectors", "norms", "rows_of_length")

    def __init__(self) -> None:
        self.buckets: Dict[str, List[Dict[int, float]]] = {}
        self.vectors: List[Optional[Dict[str, float]]] = []
        self.norms: List[float] = []
        self.rows_of_length: Dict[int, Set[int]] = {}

    def link(self, row: int, vector: Dict[str, float], norm: float) -> None:
        """Index ``vector`` at ``row``, replacing what was linked there.

        ``row`` is an existing row or the next new one: the kernel numbers
        rows densely.
        """
        if row == len(self.vectors):
            self.vectors.append(None)
            self.norms.append(0.0)
        else:
            self.unlink(row)
        self.vectors[row] = vector
        self.norms[row] = norm
        same_length = self.rows_of_length.get(len(vector))
        if same_length is None:
            same_length = self.rows_of_length[len(vector)] = set()
        same_length.add(row)
        buckets = self.buckets
        for position, (key, weight) in enumerate(vector.items()):
            by_position = buckets.get(key)
            if by_position is None:
                by_position = buckets[key] = []
            while len(by_position) <= position:
                by_position.append({})
            by_position[position][row] = weight

    def unlink(self, row: int) -> None:
        vector = self.vectors[row]
        if vector is None:
            return
        self.vectors[row] = None
        self.norms[row] = 0.0
        same_length = self.rows_of_length[len(vector)]
        same_length.remove(row)
        if not same_length:
            del self.rows_of_length[len(vector)]
        buckets = self.buckets
        # The key order walked here is the one link() saw: the vector is the
        # index entry's private copy and is never mutated.
        for position, key in enumerate(vector):
            by_position = buckets[key]
            del by_position[position][row]
            while by_position and not by_position[-1]:
                by_position.pop()
            if not by_position:
                del buckets[key]

    def dots(self, target: Dict[str, float], target_norm: float) -> List[float]:
        """The reference loop's dot of ``target`` with every row, one sum each.

        The reference iterates the shorter vector, the target on a tie.
        Walking *target keys, then positions* adds each row's shared products
        in the target's dict order, which is that loop's sum for every row
        with ``len(row) >= len(target)`` — and for every row of at most two
        keys as well, because a sum of at most two products does not depend
        on their order.  Only a row with ``3 <= len(row) < len(target)``
        needs its own dict order: when ``rows_of_length`` holds such a row,
        a second walk, *positions, then target keys*, adds the products in
        entry order (every row has one key per position, so the order of the
        target keys within a position cannot reorder any row's sum; a
        shorter row has no position past ``len(target) - 2``) and overwrites
        just those rows.  Products with absent keys are skipped, which can
        only flip the sign of an exactly-zero dot (see
        :meth:`NumpyKernel._side_cosines`): a row no posting touched gets
        ``0.0`` where the reference has ``±0.0``.  A zero ``target_norm``
        makes every cosine 0.0 in the reference, so no dot is taken.
        """
        dots = [0.0] * len(self.vectors)
        if target_norm == 0.0:
            return dots
        buckets = self.buckets
        hits = [
            (value, buckets[key]) for key, value in target.items() if key in buckets
        ]
        for value, by_position in hits:
            for bucket in by_position:
                for row, weight in bucket.items():
                    dots[row] += value * weight
        target_len = len(target)
        shorter_rows = [
            rows
            for length, rows in self.rows_of_length.items()
            if 3 <= length < target_len
        ]
        if shorter_rows:
            entry_order = [0.0] * len(dots)
            for position in range(target_len - 1):
                for value, by_position in hits:
                    if position < len(by_position):
                        for row, weight in by_position[position].items():
                            entry_order[row] += weight * value
            for rows in shorter_rows:
                for row in rows:
                    dots[row] = entry_order[row]
        return dots


class DictKernel(ScoringKernel):
    """Reference backend: exact term-at-a-time scoring over posting lists.

    Every indexed consumer holds a row; per vector side the kernel keeps
    :class:`_Postings`, maintained through the entry lifecycle, and
    :meth:`score_block` visits only the rows that share a key with the
    target — in the accumulation order the reference loop of
    :func:`repro.core.similarity.cosine_similarity_cached` would have used
    for each row, so every score is bit-identical to
    :func:`repro.core.similarity.find_similar_users`.
    """

    name = "dict"

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._row_of: Dict[str, int] = {}
        #: row → user id, ``None`` for a row freed by :meth:`entry_removed`
        #: (listed in ``_free`` and handed to the next new consumer).
        self._user_ids: List[Optional[str]] = []
        self._free: List[int] = []
        self._prefs = _Postings()
        self._terms = _Postings()

    def entry_changed(self, entry: "_ProfileEntry") -> None:
        row = self._row_of.get(entry.user_id)
        if row is None:
            if self._free:
                row = self._free.pop()
                self._user_ids[row] = entry.user_id
            else:
                row = len(self._user_ids)
                self._user_ids.append(entry.user_id)
            self._row_of[entry.user_id] = row
        self._prefs.link(row, entry.prefs, entry.pref_norm)
        self._terms.link(row, entry.terms, entry.term_norm)

    def entry_removed(self, user_id: str) -> None:
        row = self._row_of.pop(user_id, None)
        if row is not None:
            self._prefs.unlink(row)
            self._terms.unlink(row)
            self._user_ids[row] = None
            self._free.append(row)

    def score_block(
        self,
        entries: Dict[str, "_ProfileEntry"],
        tq: TargetState,
        preference_weight: float,
        term_weight: float,
        total_weight: float,
    ) -> BlockScores:
        pref_dots = self._prefs.dots(tq.prefs, tq.pref_norm)
        term_dots = self._terms.dots(tq.terms, tq.term_norm)
        pref_norms = self._prefs.norms
        term_norms = self._terms.norms
        target_pref_norm = tq.pref_norm
        target_term_norm = tq.term_norm
        scores = [0.0] * len(pref_dots)
        # One pass divides, weights and clamps.  A zero dot leaves its cosine
        # at 0.0 and a zero norm makes it 0.0 whatever the dot, as in the
        # reference; a row with two zero cosines keeps its 0.0 score.
        for row, (pref_dot, term_dot) in enumerate(zip(pref_dots, term_dots)):
            pref = term = 0.0
            if pref_dot:
                norm = pref_norms[row]
                if norm != 0.0:
                    pref = pref_dot / (target_pref_norm * norm)
            if term_dot:
                norm = term_norms[row]
                if norm != 0.0:
                    term = term_dot / (target_term_norm * norm)
            if pref or term:
                score = (preference_weight * pref + term_weight * term) / total_weight
                # max(0.0, min(1.0, score)) without the two calls.
                scores[row] = (
                    score if 0.0 < score < 1.0 else 0.0 if score <= 0.0 else 1.0
                )
        return BlockScores(self._user_ids, scores)


class _PackedSide:
    """CSR + CSC packing of one vector side (prefs or terms) of all entries."""

    __slots__ = (
        "slot_count",
        "lengths",
        "csr_rows",
        "csr_slots",
        "csr_weights",
        "csc_rows",
        "csc_weights",
        "slot_starts",
        "slot_stops",
        "norms",
    )


class NumpyKernel(ScoringKernel):
    """Optional numpy backend: scores the whole entry block per query.

    Exactness argument, in short: ``np.bincount(rows, weights=w)`` adds the
    weights to its output bins one input element at a time, in input order.
    Packing every entry's products contiguously (CSR order) therefore yields,
    per row, the identical left-to-right float summation the dict loop
    performs — the same intermediate roundings, the same final bits.  The
    target-side direction (dict loop iterates the *target's* items) is
    reproduced by concatenating per-slot CSC segments in target-item order.
    The only representable difference is the sign of an exactly-zero dot
    (the packed paths drop ``x * 0.0`` products, which can only flip
    ``-0.0``/``+0.0``) — unobservable downstream; see
    :meth:`_side_cosines` for the argument.
    """

    name = "numpy"

    def __init__(self) -> None:
        self._pref_slots: Dict[str, int] = {}
        self._term_slots: Dict[str, int] = {}
        self._row_arrays: Dict[str, Tuple] = {}
        self._dirty = True
        self._user_ids: List[str] = []
        self._pref: Optional[_PackedSide] = None
        self._term: Optional[_PackedSide] = None
        #: Number of full block repacks performed (diagnostics / tests).
        self.repacks = 0

    def reset(self) -> None:
        self._pref_slots.clear()
        self._term_slots.clear()
        self._row_arrays.clear()
        self._dirty = True

    def _pack_entry(self, vector: Dict[str, float], slots: Dict[str, int]):
        np = _numpy()
        for key in vector:
            if key not in slots:
                slots[key] = len(slots)
        ids = np.fromiter(
            (slots[key] for key in vector), dtype=np.int64, count=len(vector)
        )
        weights = np.fromiter(vector.values(), dtype=np.float64, count=len(vector))
        return ids, weights

    def entry_changed(self, entry: "_ProfileEntry") -> None:
        self._row_arrays[entry.user_id] = (
            self._pack_entry(entry.prefs, self._pref_slots),
            self._pack_entry(entry.terms, self._term_slots),
        )
        self._dirty = True

    def entry_removed(self, user_id: str) -> None:
        if self._row_arrays.pop(user_id, None) is not None:
            self._dirty = True

    # -- block packing --------------------------------------------------------

    def _pack_side(self, per_row, norms, slot_count) -> _PackedSide:
        np = _numpy()
        side = _PackedSide()
        side.slot_count = slot_count
        lengths = np.fromiter(
            (len(ids) for ids, _ in per_row), dtype=np.int64, count=len(per_row)
        )
        side.lengths = lengths
        side.norms = np.asarray(norms, dtype=np.float64)
        if len(per_row) == 0 or int(lengths.sum()) == 0:
            side.csr_rows = np.zeros(0, dtype=np.int64)
            side.csr_slots = np.zeros(0, dtype=np.int64)
            side.csr_weights = np.zeros(0)
            side.csc_rows = np.zeros(0, dtype=np.int64)
            side.csc_weights = np.zeros(0)
            side.slot_starts = np.zeros(slot_count, dtype=np.int64)
            side.slot_stops = np.zeros(slot_count, dtype=np.int64)
            return side
        side.csr_slots = np.concatenate([ids for ids, _ in per_row])
        side.csr_weights = np.concatenate([weights for _, weights in per_row])
        side.csr_rows = np.repeat(np.arange(len(per_row), dtype=np.int64), lengths)
        order = np.argsort(side.csr_slots, kind="stable")
        sorted_slots = side.csr_slots[order]
        side.csc_rows = side.csr_rows[order]
        side.csc_weights = side.csr_weights[order]
        all_slots = np.arange(slot_count, dtype=np.int64)
        side.slot_starts = np.searchsorted(sorted_slots, all_slots, side="left")
        side.slot_stops = np.searchsorted(sorted_slots, all_slots, side="right")
        return side

    def _repack(self, entries: Dict[str, "_ProfileEntry"]) -> None:
        self._user_ids = list(entries)
        pref_rows = [self._row_arrays[user_id][0] for user_id in self._user_ids]
        term_rows = [self._row_arrays[user_id][1] for user_id in self._user_ids]
        self._pref = self._pack_side(
            pref_rows,
            [entry.pref_norm for entry in entries.values()],
            len(self._pref_slots),
        )
        self._term = self._pack_side(
            term_rows,
            [entry.term_norm for entry in entries.values()],
            len(self._term_slots),
        )
        self._dirty = False
        self.repacks += 1

    # -- vectorized cosines ---------------------------------------------------

    def _side_cosines(
        self,
        side: _PackedSide,
        target: Dict[str, float],
        target_norm: float,
        slots: Dict[str, int],
    ):
        """Exact cosines of the target against every row of ``side``.

        Every non-zero dot is bit-identical to the scalar loop's.  A dot that
        is exactly zero may carry the opposite zero sign (the packed paths
        drop ``x * 0.0`` products a scalar loop would have added), which is
        the *only* representable difference — and it is unobservable: the
        score, the one consumer of these cosines, is sign-of-zero invariant.
        Its formula ends in ``max(0.0, min(1.0, s))`` which maps ``-0.0`` to
        ``+0.0`` on both paths, and adding ``±0.0`` to the other weighted
        component either leaves a non-zero value untouched or lands in the
        same clamp.  The property suite asserts the end-to-end bit-identity.
        """
        np = _numpy()
        rows = len(side.lengths)
        target_len = len(target)
        if target_len == 0 or target_norm == 0.0:
            # Reference loop returns 0.0 for every pair (empty side or zero
            # norm), regardless of the entry.
            return np.zeros(rows)
        target_slots = [slots.get(key, -1) for key in target]
        target_values = list(target.values())
        dense = np.zeros(side.slot_count)
        for slot, value in zip(target_slots, target_values):
            if slot >= 0:
                dense[slot] = value
        # Candidate-side dots (entry shorter than target): CSR-ordered
        # products, summed sequentially per row by bincount.
        if len(side.csr_rows):
            candidate_dots = np.bincount(
                side.csr_rows,
                weights=side.csr_weights * dense[side.csr_slots],
                minlength=rows,
            )
        else:
            candidate_dots = np.zeros(rows)
        # Target-side dots (target is the shorter side): per-slot CSC
        # segments concatenated in target-item order reproduce the loop
        # ``for key, value in target.items(): value * entry.get(key, 0.0)``.
        segment_rows: List = []
        segment_products: List = []
        for slot, value in zip(target_slots, target_values):
            if slot < 0:
                continue
            start, stop = side.slot_starts[slot], side.slot_stops[slot]
            if start == stop:
                continue
            segment_rows.append(side.csc_rows[start:stop])
            segment_products.append(value * side.csc_weights[start:stop])
        if segment_rows:
            target_dots = np.bincount(
                np.concatenate(segment_rows),
                weights=np.concatenate(segment_products),
                minlength=rows,
            )
        else:
            target_dots = np.zeros(rows)
        dots = np.where(target_len > side.lengths, candidate_dots, target_dots)
        with np.errstate(divide="ignore", invalid="ignore"):
            cosines = dots / (target_norm * side.norms)
        return np.where((side.lengths == 0) | (side.norms == 0.0), 0.0, cosines)

    def score_block(
        self,
        entries: Dict[str, "_ProfileEntry"],
        tq: TargetState,
        preference_weight: float,
        term_weight: float,
        total_weight: float,
    ) -> BlockScores:
        np = _numpy()
        if self._dirty or len(self._user_ids) != len(entries):
            self._repack(entries)
        pref_cos = self._side_cosines(
            self._pref, tq.prefs, tq.pref_norm, self._pref_slots
        )
        term_cos = self._side_cosines(
            self._term, tq.terms, tq.term_norm, self._term_slots
        )
        scores = (preference_weight * pref_cos + term_weight * term_cos) / total_weight
        # max(0.0, min(1.0, s)) — then "+ 0.0" maps a clamped -0.0 to +0.0,
        # matching Python's max(0.0, -0.0) == 0.0 while leaving every other
        # value bit-identical.
        scores = np.maximum(0.0, np.minimum(1.0, scores)) + 0.0
        return BlockScores(self._user_ids, scores.tolist())
