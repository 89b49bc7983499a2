"""The exact scoring kernel of the neighbor index.

:class:`~repro.core.neighbors.ProfileNeighborIndex` scores candidates through
:class:`DictKernel`: pure Python, exact scoring over **category-signature
partitions**, pruned by **block-max bounds**.  The kernel is the index's only
per-consumer store: :meth:`DictKernel.put` takes a consumer's plain
preference and term vectors and change stamp, and holds them as one row in
the :class:`_Partition` of its signature — its preference keys in order —
beside the two norms it computes; :meth:`DictKernel.drop` and
:meth:`DictKernel.reset` let rows go.  Inside a partition every preference vector
has the same keys in the same order, so the preference side is dense columns
and one summation order — the reference's, which iterates the shorter vector
(the target on a tie) — serves every row.  The term side is a posting list
walked in the target's key order: the reference's sum for every row at least
as long as the target and for every row of at most two keys; any other row
that is scored is settled by the reference cosine itself.  Each partition
keeps, per key and side, the largest ``|weight| / norm`` over its rows — its
block maximum — so ``sum(|t_k| * peak_k) / |t|`` bounds every row's cosine
with a target.  A query visits partitions best bound first and skips every
one whose bound is under the floor (``min_similarity``, then the k-th best
score held).  Inside a visited one the term walk screens the rows: a row's
walk cosine and the partition's preference bound bound its score, rows are
visited best walk first, and only a visited row has its preference cosine
summed and its score taken; the visit stops at the first row whose bound is
under the floor.  The Figure 4.5 discard rule reads a candidate's category
preference from its own column (0.0 when the signature lacks the category).

The kernel drops the ``x * 0.0`` products of keys one side lacks.  That can
only change the sign of a dot that is exactly zero, which the score cannot
observe — see :func:`_score` for the argument.

Bit-identity with the brute-force
:func:`repro.core.similarity.find_similar_users`, not approximate equality,
is the contract: the property suite in
``tests/property/test_scoring_kernel.py`` drives the kernel over adversarial
profiles (zero norms, empty term sets, single ratings, disjoint categories,
shared keys in different orders with magnitudes far enough apart that float
addition visibly does not associate) and asserts ``==`` on every score.
:meth:`DictKernel.top_pairs` scores only the rows whose bound reaches the
floor; :meth:`_Partition.select` without a preference bound scores every row
of a partition, which the differential suites hold it to.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.similarity import cosine_similarity_cached, vector_norm

__all__ = ["DictKernel", "TargetState"]


class TargetState:
    """Per-query view of the target profile's vectors.

    Built once per query by the index — flattened from the target profile,
    or rebuilt from its own row by :meth:`DictKernel.target_of` — and handed
    to :meth:`DictKernel.top_pairs`.
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
    cosines score 0.0 without the arithmetic.

    The kernel skips the ``x * 0.0`` products of keys one side lacks, which
    the reference adds.  Every non-zero dot is bit-identical either way; a
    dot that is exactly zero may carry the opposite zero sign, and that is
    the *only* representable difference.  The score cannot observe it: the
    reference ends in ``max(0.0, min(1.0, s))``, which maps ``-0.0`` to
    ``+0.0``, and adding ``±0.0`` to the other weighted cosine either leaves
    a non-zero value untouched or lands in the same clamp.
    """
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
    (``None`` for a free row), walked by :meth:`walk`; ``stamps[row]`` is the
    change stamp the row was put at.  ``pref_peaks[j]`` /
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
        "stamps",
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
        self.stamps: List[Hashable] = []
        self.unbounded = 0

    # -- lifecycle ------------------------------------------------------------

    def link(
        self, user_id: str, prefs: Dict[str, float], terms: Dict[str, float], stamp: Hashable
    ) -> None:
        """Hold ``user_id``'s vectors (``prefs`` has the signature's keys in
        order) in its row, taking a free row or a new one for a newcomer."""
        row = self.row_of.get(user_id)
        if row is None:
            if self.free:
                row = self.free.pop()
                self.user_ids[row] = user_id
            else:
                row = len(self.user_ids)
                self.user_ids.append(user_id)
                for column in self.columns:
                    column.append(0.0)
                self.pref_norms.append(0.0)
                self.terms.append(None)
                self.term_norms.append(0.0)
                self.stamps.append(None)
            self.row_of[user_id] = row
        else:
            self._clear(row)
        pref_norm, term_norm = vector_norm(prefs), vector_norm(terms)
        self.pref_norms[row] = pref_norm
        self.terms[row] = terms
        self.term_norms[row] = term_norm
        self.stamps[row] = stamp
        self.unbounded += _unbounded(pref_norm) + _unbounded(term_norm)
        pref_peaks = self.pref_peaks
        for index, weight in enumerate(prefs.values()):
            self.columns[index][row] = weight
            if _bounded(pref_norm) and abs(weight) / pref_norm > pref_peaks[index]:
                pref_peaks[index] = abs(weight) / pref_norm
        postings, term_peaks = self.postings, self.term_peaks
        for key, weight in terms.items():
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
        self.stamps[row] = None
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
        :func:`_score`).
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
        discard_rule: Optional[Tuple[str, float, float]],
        held: List[Tuple[float, str]],
    ) -> Tuple[float, int]:
        """Merge the partition's valid rows scoring at least ``floor`` into
        ``held`` (``(-score, user_id)``, best first, at most ``top_k``);
        return the new floor and the number of rows scored.

        A ``discard_rule`` ``(category, target value, tolerance)`` is the
        Figure 4.5 rule: a scored row whose preference for ``category`` —
        read from its column, 0.0 when the signature lacks the category —
        differs from the target's by more than ``tolerance`` is not held.

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
        if discard_rule is not None:
            category, target_value, tolerance = discard_rule
            index = self.position.get(category)
            values = None if index is None else self.columns[index]
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
            if score < floor or (
                discard_rule is not None
                and not abs(target_value - (0.0 if values is None else values[row])) <= tolerance
            ):
                continue
            insort(held, (-score, user_id))
            if len(held) > top_k:
                held.pop()
            if len(held) == top_k:
                floor = -held[-1][0]
        return floor, scored


class DictKernel:
    """The neighbour index's store, scored exactly over category-signature
    partitions pruned by block-max bounds.

    Every held consumer is one row in the :class:`_Partition` of its
    category signature, and one entry of the ``user_id → partition``
    membership map: :meth:`put` / :meth:`drop` keep both.  :meth:`top_pairs`
    scores only the rows whose bound reaches the floor, through
    :meth:`_Partition.select`, and every score it returns is bit-identical
    to :func:`repro.core.similarity.find_similar_users`'s.
    """

    def __init__(self) -> None:
        #: Rows :meth:`top_pairs` left unscored, summed over every query; a
        #: :meth:`reset` keeps counting.
        self.bound_skips = 0
        self.reset()

    def reset(self) -> None:
        """Drop every row (the index is rebuilt from scratch)."""
        self._partitions: Dict[Tuple[str, ...], _Partition] = {}
        self._partition_of: Dict[str, _Partition] = {}

    def __len__(self) -> int:
        return len(self._partition_of)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._partition_of

    def put(
        self,
        user_id: str,
        prefs: Dict[str, float],
        terms: Dict[str, float],
        stamp: Hashable = None,
    ) -> None:
        """Hold ``user_id``'s preference and term vectors at ``stamp``,
        replacing its row — in another partition when its signature moved."""
        signature = tuple(prefs)
        partition = self._partitions.get(signature)
        if partition is None:
            partition = self._partitions[signature] = _Partition(signature)
        old = self._partition_of.get(user_id)
        if old is not None and old is not partition:
            self._unlink(user_id, old)
        partition.link(user_id, prefs, terms, stamp)
        self._partition_of[user_id] = partition

    def drop(self, user_id: str) -> bool:
        """Let ``user_id``'s row go; whether it held one."""
        partition = self._partition_of.pop(user_id, None)
        if partition is None:
            return False
        self._unlink(user_id, partition)
        return True

    def _unlink(self, user_id: str, partition: _Partition) -> None:
        partition.unlink(user_id)
        if not partition.row_of:
            del self._partitions[partition.signature]

    def stamp_of(self, user_id: str) -> Hashable:
        """The stamp ``user_id``'s row was put at; ``None`` without a row."""
        partition = self._partition_of.get(user_id)
        return None if partition is None else partition.stamps[partition.row_of[user_id]]

    def target_of(self, user_id: str) -> TargetState:
        """The vectors ``user_id``'s row was put with, as a query target: its
        preferences in signature order, its terms and both norms."""
        partition = self._partition_of[user_id]
        row = partition.row_of[user_id]
        prefs = dict(zip(partition.signature, [column[row] for column in partition.columns]))
        return TargetState(
            prefs, partition.pref_norms[row], partition.terms[row], partition.term_norms[row]
        )

    def top_pairs(
        self,
        tq: TargetState,
        preference_weight: float,
        term_weight: float,
        total_weight: float,
        minimum: float,
        exclude_user: str,
        top_k: int,
        discard_rule: Optional[Tuple[str, float, float]] = None,
    ) -> List[Tuple[str, float]]:
        """``sorted(valid, key=(-score, user_id))[:top_k]`` over every row's
        score, where ``valid`` is every row but ``exclude_user`` with
        ``score >= minimum`` that ``discard_rule`` (see
        :meth:`_Partition.select`) does not reject — scoring only the rows
        that can reach it.

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
                top_k=top_k, discard_rule=discard_rule, held=held,
            )
            self.bound_skips += len(partition.row_of) - scored
        return [(user_id, -negative) for negative, user_id in held]


def _first(item) -> float:
    return item[0]
