"""Swappable scoring kernels for the neighbor index — score-identical by construction.

:class:`~repro.core.neighbors.ProfileNeighborIndex` scores candidates through
a single :class:`ScoringKernel` interface with two backends:

- ``dict`` — the default (:data:`DEFAULT_BACKEND`), pure Python, no
  third-party dependency: exact scoring over **category-signature
  partitions**, pruned by **block-max bounds**.  A consumer's signature is
  its preference keys in order; every indexed consumer holds a row in the
  :class:`_Partition` of its signature, maintained through
  ``entry_changed`` / ``entry_removed`` / ``reset``.  Inside a partition
  every preference vector has the same keys in the same order, so the
  preference side is dense columns and one summation order — the
  reference's, which iterates the shorter vector (the target on a tie) —
  serves every row.  The term side is a posting list walked in the target's
  key order: the reference's sum for every row at least as long as the
  target and for every row of at most two keys; any other row that is
  scored is settled by the reference cosine itself.  Each partition keeps,
  per key and side, the largest ``|weight| / norm`` over its rows — its
  block maximum — so ``sum(|t_k| * peak_k) / |t|`` bounds every row's
  cosine with a target.  A query visits partitions best bound first and
  skips every one whose bound is under the floor (``min_similarity``, then
  the k-th best score held).  Inside a visited one the term walk screens
  the rows: a row's walk cosine and the partition's preference bound bound
  its score, rows are visited best walk first, and only a visited row has
  its preference cosine summed and its score taken; the visit stops at the
  first row whose bound is under the floor.
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

The neighbor index asks every backend for :meth:`ScoringKernel.top_pairs`.
The ``numpy`` backend answers it from the whole block
(:meth:`ScoringKernel.score_block`): a :class:`BlockScores` carries every
row's score as a bare float list, and :meth:`BlockScores.top_pairs` selects
before it materialises — the ``(k + 1)``-th largest score is a floor, and
only the rows at or above it become ``(user_id, score)`` tuples, meet the
discard rule and are sorted.  The ``dict`` backend scores only the rows
whose bound reaches the floor and holds at most k pairs; its
``score_block`` runs the same row-scoring routine over every row without a
floor, for the differential suites.

Backend selection: ``resolve_backend("auto")`` picks numpy when importable
and not disabled, else ``dict``; setting the ``REPRO_NO_NUMPY`` environment
variable hides numpy (CI re-runs the kernel and index suites that way).
"""

from __future__ import annotations

import heapq
import importlib.util
import os
from bisect import insort
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.similarity import cosine_similarity_cached

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


def numpy_available() -> bool:
    """Whether the numpy backend may be used right now.

    The ``REPRO_NO_NUMPY`` environment variable wins over importability so CI
    can exercise the stdlib-only code path on machines where numpy cannot be
    uninstalled.  Read on every call: nothing is cached in the module.
    """
    if os.environ.get("REPRO_NO_NUMPY"):
        return False
    return importlib.util.find_spec("numpy") is not None


def _numpy():
    import numpy

    return numpy


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
    entry for one target and returns a :class:`BlockScores`.  The index asks
    for :meth:`top_pairs`, which a backend may answer without scoring rows
    that provably cannot reach the answer.
    """

    name: str = "abstract"
    #: Rows :meth:`top_pairs` left unscored, summed over every query.
    bound_skips = 0

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

    def top_pairs(
        self,
        entries: Dict[str, "_ProfileEntry"],
        tq: TargetState,
        preference_weight: float,
        term_weight: float,
        total_weight: float,
        minimum: float,
        exclude_user: str,
        top_k: int,
        discard: Optional[Callable[[str], bool]] = None,
    ) -> List[Tuple[str, float]]:
        """:meth:`BlockScores.top_pairs` of :meth:`score_block`'s block."""
        block = self.score_block(entries, tq, preference_weight, term_weight, total_weight)
        return block.top_pairs(minimum, exclude_user, top_k, discard)


class BlockScores:
    """Every indexed consumer's score for one target.

    ``user_ids`` / ``scores`` are plain lists by row, in the kernel's own
    order.
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
        ``valid`` is every row but ``exclude_user`` with
        ``score >= minimum`` that ``discard(user_id)`` does not reject.  The
        ``(top_k + 1)``-th largest score of the bare float list is a floor:
        the rows at or above it — ties included — hold the top ``top_k``
        even with the excluded target among them.  Only those rows become
        tuples and are sorted.  When ``discard`` leaves
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
                if score >= floor and user_id != exclude_user
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


#: Norms inside this range keep every product, sum and quotient of a cosine
#: finite and normal (a weight is at most its vector's norm), so a float
#: cosine, a float bound on it and the same cosine summed in another order
#: all lie within ``n`` ulps (``n`` keys) of the real cosine, at most 1 + nε.
#: A partition holding a row outside it, or a target outside it, is scored
#: exactly and never pruned.
_BOUNDED_LOW = 1e-150
_BOUNDED_HIGH = 1e150

#: Absolute slack added to a bound or a walk-order cosine before it is
#: compared with a floor: it covers those ulps for vectors of up to a
#: million keys, and costs no pruning at scores in [0, 1].
_SLACK = 1e-9


def _unbounded(norm: float) -> bool:
    return norm != 0.0 and not _BOUNDED_LOW <= norm <= _BOUNDED_HIGH


def _bounded(norm: float) -> bool:
    return _BOUNDED_LOW <= norm <= _BOUNDED_HIGH


def _score(
    pref: float,
    term: float,
    preference_weight: float,
    term_weight: float,
    total_weight: float,
) -> float:
    """The reference score of two cosines, clamped to [0, 1]; two zero
    cosines score 0.0 without the arithmetic."""
    if not (pref or term):
        return 0.0
    score = (preference_weight * pref + term_weight * term) / total_weight
    # max(0.0, min(1.0, score)) without the two calls.
    return score if 0.0 < score < 1.0 else 0.0 if score <= 0.0 else 1.0


def _peak(pairs) -> float:
    """The largest ``|weight| / norm`` over bounded ``(weight, norm)`` pairs."""
    return max((abs(weight) / norm for weight, norm in pairs if _bounded(norm)), default=0.0)


class _Partition:
    """The rows of one category signature — the preference keys, in order.

    Every row's preference vector has exactly the signature's keys in the
    signature's order, so the preference side is dense: ``columns[j][row]``
    is the weight of ``signature[j]``.  The term side is a posting list,
    ``postings[key][row]``, beside each row's term vector ``terms[row]``
    (``None`` for a free row), walked by :meth:`walk`.  ``pref_peaks[j]`` /
    ``term_peaks[key]`` are the largest ``|weight| / norm`` of a key over
    the rows whose norm is bounded — the block maxima :meth:`pref_bound`
    and :meth:`bound` read — and ``unbounded``
    counts the rows with an unbounded norm on either side.  A freed row
    (user id ``None``, listed in ``free``) goes to the partition's next new
    consumer.  Every map is canonical whatever sequence of links and
    unlinks produced it — no empty posting, no zero term peak, and a row
    that held a peak takes it with it: the peak is taken again.
    """

    __slots__ = (
        "signature",
        "position",
        "user_ids",
        "row_of",
        "free",
        "columns",
        "pref_norms",
        "pref_peaks",
        "postings",
        "terms",
        "term_norms",
        "term_peaks",
        "unbounded",
    )

    def __init__(self, signature: Tuple[str, ...]) -> None:
        self.signature = signature
        self.position = {key: index for index, key in enumerate(signature)}
        self.user_ids: List[Optional[str]] = []
        self.row_of: Dict[str, int] = {}
        self.free: List[int] = []
        self.columns: List[List[float]] = [[] for _ in signature]
        self.pref_norms: List[float] = []
        self.pref_peaks = [0.0] * len(signature)
        self.postings: Dict[str, Dict[int, float]] = {}
        self.terms: List[Optional[Dict[str, float]]] = []
        self.term_norms: List[float] = []
        self.term_peaks: Dict[str, float] = {}
        self.unbounded = 0

    # -- lifecycle ------------------------------------------------------------

    def link(self, entry: "_ProfileEntry") -> None:
        row = self.row_of.get(entry.user_id)
        if row is None:
            if self.free:
                row = self.free.pop()
                self.user_ids[row] = entry.user_id
            else:
                row = len(self.user_ids)
                self.user_ids.append(entry.user_id)
                for column in self.columns:
                    column.append(0.0)
                self.pref_norms.append(0.0)
                self.terms.append(None)
                self.term_norms.append(0.0)
            self.row_of[entry.user_id] = row
        else:
            self._clear(row)
        pref_norm, term_norm = entry.pref_norm, entry.term_norm
        self.pref_norms[row] = pref_norm
        self.terms[row] = entry.terms
        self.term_norms[row] = term_norm
        self.unbounded += _unbounded(pref_norm) + _unbounded(term_norm)
        pref_peaks = self.pref_peaks
        for index, weight in enumerate(entry.prefs.values()):
            self.columns[index][row] = weight
            if _bounded(pref_norm) and abs(weight) / pref_norm > pref_peaks[index]:
                pref_peaks[index] = abs(weight) / pref_norm
        postings, term_peaks = self.postings, self.term_peaks
        for key, weight in entry.terms.items():
            bucket = postings.get(key)
            if bucket is None:
                bucket = postings[key] = {}
            bucket[row] = weight
            if _bounded(term_norm) and abs(weight) / term_norm > term_peaks.get(key, 0.0):
                term_peaks[key] = abs(weight) / term_norm

    def unlink(self, user_id: str) -> None:
        row = self.row_of.pop(user_id)
        self._clear(row)
        self.user_ids[row] = None
        self.free.append(row)

    def _clear(self, row: int) -> None:
        """Empty ``row``, taking again every peak it held."""
        pref_norm, terms, term_norm = self.pref_norms[row], self.terms[row], self.term_norms[row]
        self.unbounded -= _unbounded(pref_norm) + _unbounded(term_norm)
        self.pref_norms[row] = 0.0
        self.terms[row] = None
        self.term_norms[row] = 0.0
        for index, column in enumerate(self.columns):
            weight = column[row]
            column[row] = 0.0
            if _bounded(pref_norm) and abs(weight) / pref_norm >= self.pref_peaks[index]:
                self.pref_peaks[index] = _peak(zip(column, self.pref_norms))
        postings, term_peaks, term_norms = self.postings, self.term_peaks, self.term_norms
        for key, weight in terms.items():
            bucket = postings[key]
            del bucket[row]
            if not bucket:
                del postings[key]
            if _bounded(term_norm) and abs(weight) / term_norm >= term_peaks.get(key, 0.0) > 0.0:
                peak = _peak((other, term_norms[other_row]) for other_row, other in bucket.items())
                if peak > 0.0:
                    term_peaks[key] = peak
                else:
                    del term_peaks[key]

    # -- scoring --------------------------------------------------------------

    def pref_bound(self, tq: TargetState) -> float:
        """A bound on every row's preference cosine, widened by
        :data:`_SLACK`; 0.0 for a target without preferences.

        A cosine is ``sum(t_k * w_k) / (|t| * |w|)`` over shared keys, at
        most ``sum(|t_k| * peak_k) / |t|`` and at most 1 (Cauchy–Schwarz).
        """
        if not tq.pref_norm:
            return 0.0
        pref = 0.0
        peaks, position = self.pref_peaks, self.position
        for key, value in tq.prefs.items():
            index = position.get(key)
            if index is not None:
                pref += abs(value) * peaks[index]
        return min(1.0, pref / tq.pref_norm) + _SLACK

    def bound(
        self,
        tq: TargetState,
        preference_weight: float,
        term_weight: float,
        total_weight: float,
        pref_bound: float,
        term_cap: bool = False,
    ) -> float:
        """A bound on every row's score from the partition's ``pref_bound``
        and its term block maxima (with ``term_cap``, the term cosine taken
        as 1 instead).

        Both sides' bounds, widened by :data:`_SLACK`, go through the score
        formula, whose float operations are monotone.  Scores never pass
        1.0.
        """
        term = 0.0
        if tq.term_norm:
            if term_cap:
                term = 1.0
            else:
                peaks = self.term_peaks
                for key, value in tq.terms.items():
                    peak = peaks.get(key)
                    if peak is not None:
                        term += abs(value) * peak
                term = min(1.0, term / tq.term_norm)
            term += _SLACK
        return min(1.0, (preference_weight * pref_bound + term_weight * term) / total_weight)

    def walk(self, tq: TargetState) -> List[float]:
        """Every row's term cosine from the posting walk, free rows 0.0.

        The postings are walked in the target's key order — the reference's
        sum for every row at least as long as the target, and for every row
        of at most two keys, whose sum does not depend on the order; any
        other row's cosine may differ from the reference in its last bits
        (:meth:`select` settles it).  Products with keys one side lacks are
        skipped, which can only flip the sign of an exactly-zero dot (see
        :meth:`NumpyKernel._side_cosines`).
        """
        term_norm = tq.term_norm
        dots = [0.0] * len(self.user_ids)
        if term_norm == 0.0:
            return dots
        postings = self.postings
        for key, value in tq.terms.items():
            bucket = postings.get(key)
            if bucket is not None:
                for row, weight in bucket.items():
                    dots[row] += value * weight
        # A zero norm makes the cosine 0.0 whatever the dot, as in the
        # reference (a norm can underflow to 0.0 beside a non-zero dot).
        return [
            dot / (term_norm * norm) if dot and norm != 0.0 else 0.0
            for dot, norm in zip(dots, self.term_norms)
        ]

    def select(
        self,
        tq: TargetState,
        preference_weight: float,
        term_weight: float,
        total_weight: float,
        pref_bound: Optional[float],
        floor: float,
        exclude_user: Optional[str],
        top_k: int,
        discard: Optional[Callable[[str], bool]],
        held: List[Tuple[float, str]],
    ) -> Tuple[float, int]:
        """Merge the partition's valid rows scoring at least ``floor`` into
        ``held`` (``(-score, user_id)``, best first, at most ``top_k``);
        return the new floor and the number of rows scored.

        The term walk screens the rows; only a visited row is scored.  Its
        preference cosine sums the shared columns in the reference's order
        (over the shorter vector, the target on a tie — one order for every
        row of the signature), and a row whose walk order is not the
        reference's gets its term cosine from the reference itself,
        :func:`repro.core.similarity.cosine_similarity_cached`.  Given the
        partition's ``pref_bound``, a row's score is at most
        ``(pw * pref_bound + tw * (walk + _SLACK)) / total`` clamped to
        [0, 1] — a walk cosine is within :data:`_SLACK` of the reference's —
        so rows are visited best walk first and the visit stops at the first
        one whose bound is under the floor.  Without it every row is visited.
        """
        walks = self.walk(tq)
        rows = range(len(walks))
        if pref_bound is not None:
            base = preference_weight * pref_bound
            # A bound clamped at 0 is never under a floor of 0.
            if floor > 0.0:
                rows = [
                    row
                    for row, walk in enumerate(walks)
                    if (base + term_weight * (walk + _SLACK)) / total_weight >= floor
                ]
            rows = sorted(rows, key=walks.__getitem__, reverse=True)
        shared: List[Tuple[float, List[float]]] = []
        pref_norm = tq.pref_norm
        if pref_norm != 0.0:
            if len(self.signature) < len(tq.prefs):
                shared = [
                    (tq.prefs[key], self.columns[index])
                    for index, key in enumerate(self.signature)
                    if key in tq.prefs
                ]
            else:
                position = self.position
                shared = [
                    (value, self.columns[position[key]])
                    for key, value in tq.prefs.items()
                    if key in position
                ]
        if shared:
            (first_value, first_column), *rest = shared
        user_ids, terms_of, term_norms, pref_norms = (
            self.user_ids, self.terms, self.term_norms, self.pref_norms
        )
        target_terms, target_term_norm = tq.terms, tq.term_norm
        target_length = len(target_terms)
        scored = 0
        for row in rows:
            if (
                pref_bound is not None
                and floor > 0.0
                and (base + term_weight * (walks[row] + _SLACK)) / total_weight < floor
            ):
                break
            user_id = user_ids[row]
            if user_id is None or user_id == exclude_user:
                continue
            scored += 1
            pref = 0.0
            if shared:
                dot = first_value * first_column[row]
                for value, column in rest:
                    dot = dot + value * column[row]
                norm = pref_norms[row]
                if dot and norm != 0.0:
                    pref = dot / (pref_norm * norm)
            terms = terms_of[row]
            if 3 <= len(terms) < target_length:
                term = cosine_similarity_cached(
                    target_terms, target_term_norm, terms, term_norms[row]
                )
            else:
                term = walks[row]
            score = _score(pref, term, preference_weight, term_weight, total_weight)
            if score < floor or (discard is not None and discard(user_id)):
                continue
            insort(held, (-score, user_id))
            if len(held) > top_k:
                held.pop()
            if len(held) == top_k:
                floor = -held[-1][0]
        return floor, scored


class DictKernel(ScoringKernel):
    """Reference backend: exact scoring over category-signature partitions,
    pruned by block-max bounds.

    Every indexed consumer holds a row in the :class:`_Partition` of its
    category signature, maintained through the entry lifecycle.
    :meth:`top_pairs` scores only the rows whose bound reaches the floor;
    :meth:`score_block` scores every row.  Both go through
    :meth:`_Partition.select`, and every score either returns is
    bit-identical to
    :func:`repro.core.similarity.find_similar_users`'s.
    """

    name = "dict"

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._partitions: Dict[Tuple[str, ...], _Partition] = {}
        self._signature_of: Dict[str, Tuple[str, ...]] = {}

    def entry_changed(self, entry: "_ProfileEntry") -> None:
        signature = tuple(entry.prefs)
        old = self._signature_of.get(entry.user_id)
        if old is not None and old != signature:
            self._unlink(entry.user_id, old)
        partition = self._partitions.get(signature)
        if partition is None:
            partition = self._partitions[signature] = _Partition(signature)
        partition.link(entry)
        self._signature_of[entry.user_id] = signature

    def entry_removed(self, user_id: str) -> None:
        signature = self._signature_of.pop(user_id, None)
        if signature is not None:
            self._unlink(user_id, signature)

    def _unlink(self, user_id: str, signature: Tuple[str, ...]) -> None:
        partition = self._partitions[signature]
        partition.unlink(user_id)
        if not partition.row_of:
            del self._partitions[signature]

    def score_block(
        self,
        entries: Dict[str, "_ProfileEntry"],
        tq: TargetState,
        preference_weight: float,
        term_weight: float,
        total_weight: float,
    ) -> BlockScores:
        held: List[Tuple[float, str]] = []
        for partition in self._partitions.values():
            partition.select(
                tq, preference_weight, term_weight, total_weight,
                pref_bound=None, floor=0.0, exclude_user=None,
                top_k=len(self._signature_of), discard=None, held=held,
            )
        return BlockScores([user_id for _, user_id in held], [-negative for negative, _ in held])

    def top_pairs(
        self,
        entries: Dict[str, "_ProfileEntry"],
        tq: TargetState,
        preference_weight: float,
        term_weight: float,
        total_weight: float,
        minimum: float,
        exclude_user: str,
        top_k: int,
        discard: Optional[Callable[[str], bool]] = None,
    ) -> List[Tuple[str, float]]:
        """:meth:`score_block` then :meth:`BlockScores.top_pairs`, scoring
        only the rows that can reach the answer.

        The floor is ``minimum`` until ``top_k`` pairs are held, then the
        ``top_k``-th best held score; a row scoring under it ranks below
        ``top_k`` held pairs.  Partitions are visited by a cheap
        :meth:`_Partition.bound` (term cosine taken as 1), best first: once
        that is under the floor, so is every partition after it, and a
        visited partition whose full bound is under it is skipped.  The
        preference bound both take is handed on to
        :meth:`_Partition.select`, whose term walk screens the rows of a
        visited partition.  Every row left unscored is counted in
        :attr:`bound_skips`.  A partition holding an unbounded row, a target
        with an unbounded norm or an unbounded weight total (subnormal
        weights round a score to steps) turns the pruning off.
        """
        bounded = (
            _bounded(total_weight)
            and not _unbounded(tq.pref_norm)
            and not _unbounded(tq.term_norm)
        )
        order = []
        for partition in self._partitions.values():
            cheap, pref_bound = 1.0, None
            if bounded and not partition.unbounded:
                pref_bound = partition.pref_bound(tq)
                cheap = partition.bound(
                    tq, preference_weight, term_weight, total_weight, pref_bound, True
                )
            order.append((cheap, pref_bound, partition))
        order.sort(key=_first, reverse=True)
        floor = minimum
        held: List[Tuple[float, str]] = []
        for position, (cheap, pref_bound, partition) in enumerate(order):
            if cheap < floor:
                self.bound_skips += sum(len(rest.row_of) for _, _, rest in order[position:])
                break
            if pref_bound is not None and (
                partition.bound(tq, preference_weight, term_weight, total_weight, pref_bound)
                < floor
            ):
                self.bound_skips += len(partition.row_of)
                continue
            floor, scored = partition.select(
                tq, preference_weight, term_weight, total_weight,
                pref_bound=pref_bound, floor=floor, exclude_user=exclude_user,
                top_k=top_k, discard=discard, held=held,
            )
            self.bound_skips += len(partition.row_of) - scored
        return [(user_id, -negative) for negative, user_id in held]


def _first(item) -> float:
    return item[0]


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
