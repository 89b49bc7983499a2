"""Hierarchical consumer profiles (Figure 4.4 of the paper).

The paper represents a consumer profile as::

    Profile = <Category, Terms_of_Category, <Sub_Category, Terms_of_Sub_Category>>

i.e. a set of main categories, each carrying a weighted term vector and a set
of sub-categories, each with its own weighted term vector.  On top of the
structure itself, each category carries a scalar *preference value* — the
``Tx`` the similarity algorithm compares when deciding whether two consumers'
tastes for a category are close enough to be worth correlating.

The classes here are plain data with explicit operations; the learning rule
that *changes* the weights lives in :mod:`repro.core.profile_learning` and the
similarity computation in :mod:`repro.core.similarity`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ProfileError

__all__ = ["TermVector", "SubCategory", "Category", "Profile"]


class TermVector:
    """A sparse weighted term vector (terms of a category or sub-category).

    Copy-on-write: :meth:`_share` hands the weight dict itself to a
    :meth:`Profile.to_dict` dump (or :meth:`_of` adopts a dump's dict), and
    the vector copies the dict before its next write instead.  A shared dict
    is never written again, so every dump that holds it keeps its content.
    """

    __slots__ = ("_weights", "_shared")

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        self._weights: Dict[str, float] = {}
        self._shared = False
        for term, weight in (weights or {}).items():
            self.set(term, weight)

    @classmethod
    def _of(cls, weights: Dict[str, float]) -> "TermVector":
        """A vector over ``weights`` itself, shared, when it holds only what
        the constructor would keep as it is (a dump's dict); else a copy."""
        for term, weight in weights.items():
            if not term or type(weight) is not float or not weight > 0:
                return cls(weights)
        vector = cls()
        vector._weights = weights
        vector._shared = True
        return vector

    def _share(self) -> Dict[str, float]:
        """The weight dict itself, for a dump: the next write copies it."""
        self._shared = True
        return self._weights

    def _own(self) -> Dict[str, float]:
        """The weight dict, copied first if a dump shares it: every write
        method calls this once, before it writes."""
        if self._shared:
            self._weights = dict(self._weights)
            self._shared = False
        return self._weights

    # -- mutation -------------------------------------------------------------

    def set(self, term: str, weight: float) -> None:
        if not term:
            raise ProfileError("term must be a non-empty string")
        if weight < 0:
            raise ProfileError(f"term {term!r} cannot have a negative weight ({weight})")
        if weight == 0:
            self._own().pop(term, None)
        else:
            self._own()[term] = float(weight)

    def add_all(self, deltas: Iterable[Tuple[str, float]]) -> None:
        """Add each ``(term, delta)`` to that term's weight in order, flooring
        at zero, with one ownership check for the batch, not one per term."""
        weights = self._own()
        for term, delta in deltas:
            if not term:
                raise ProfileError("term must be a non-empty string")
            updated = max(0.0, weights.get(term, 0.0) + delta)
            if updated == 0:
                weights.pop(term, None)
            else:
                weights[term] = float(updated)

    def decay(self, factor: float) -> None:
        """Multiply every weight by ``factor`` in (0, 1] (interest ageing)."""
        if not 0.0 < factor <= 1.0:
            raise ProfileError(f"decay factor must be in (0, 1], got {factor}")
        weights = self._own()
        for term in list(weights):
            self.set(term, weights[term] * factor)

    def prune(self, min_weight: float) -> int:
        """Drop terms below ``min_weight``; return how many were removed."""
        doomed = [term for term, weight in self._weights.items() if weight < min_weight]
        if doomed:
            weights = self._own()
            for term in doomed:
                del weights[term]
        return len(doomed)

    # -- access ---------------------------------------------------------------

    def get(self, term: str) -> float:
        return self._weights.get(term, 0.0)

    def __contains__(self, term: str) -> bool:
        return term in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    def __bool__(self) -> bool:
        return bool(self._weights)

    def items(self) -> List[Tuple[str, float]]:
        return sorted(self._weights.items())

    def as_dict(self) -> Dict[str, float]:
        return dict(self._weights)

    def weights(self) -> Mapping[str, float]:
        """The live mapping, for a reader that only scores against it: do not
        mutate, do not keep past the call (:meth:`as_dict` is the copy).  A
        fresh vector's mapping, such as :meth:`Profile.flattened_terms`'s, may
        be kept: nothing else holds it."""
        return self._weights

    def top_terms(self, count: int) -> List[Tuple[str, float]]:
        """The ``count`` heaviest terms, ties broken alphabetically."""
        return sorted(self._weights.items(), key=lambda pair: (-pair[1], pair[0]))[:count]

    # -- maths ----------------------------------------------------------------

    def norm(self) -> float:
        return math.sqrt(sum(weight * weight for weight in self._weights.values()))

    def total(self) -> float:
        return sum(self._weights.values())

    def _accumulate(self, other: "TermVector") -> None:
        """In place, ``self + other`` with ``other``'s terms added in sorted
        order: a cosine's summation order keys on the insertion order."""
        weights = self._own()
        for term, value in other.items():
            updated = max(0.0, weights.get(term, 0.0) + value)
            if updated == 0:
                weights.pop(term, None)
            else:
                weights[term] = updated

    def copy(self) -> "TermVector":
        """An unshared copy: the source stays writable without a copy."""
        clone = TermVector()
        clone._weights = dict(self._weights)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(f"{t}:{w:.2f}" for t, w in self.top_terms(4))
        return f"TermVector({preview}{'...' if len(self) > 4 else ''})"


@dataclass(slots=True)
class SubCategory:
    """A sub-category of a main profile category (Figure 4.4)."""

    name: str
    terms: TermVector = field(default_factory=TermVector)
    preference: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ProfileError("sub-category name must be non-empty")
        if self.preference < 0:
            raise ProfileError("sub-category preference cannot be negative")


@dataclass(slots=True)
class Category:
    """A main profile category with its terms and sub-categories."""

    name: str
    terms: TermVector = field(default_factory=TermVector)
    preference: float = 0.0
    subcategories: Dict[str, SubCategory] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ProfileError("category name must be non-empty")
        if self.preference < 0:
            raise ProfileError("category preference cannot be negative")

    def subcategory(self, name: str, create: bool = True) -> SubCategory:
        """Fetch (and optionally create) a sub-category."""
        if name not in self.subcategories:
            if not create:
                raise ProfileError(
                    f"category {self.name!r} has no sub-category {name!r}"
                )
            self.subcategories[name] = SubCategory(name=name)
        return self.subcategories[name]

    def _dump(self, previous: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """This category's :meth:`Profile.to_dict` node.  ``previous``, the
        node of an earlier dump, lends each sub-category node whose
        preference and term dict are still this one's, and is itself
        returned when nothing in it changed."""
        terms = self.terms._share()
        old_subs: Dict[str, Dict[str, Any]] = {} if previous is None else previous["subcategories"]
        subcategories = {}
        reused = 0
        for sub_name, sub in self.subcategories.items():
            sub_terms = sub.terms._share()
            node = old_subs.get(sub_name)
            if node is None or node["preference"] is not sub.preference or node["terms"] is not sub_terms:
                node = {"preference": sub.preference, "terms": sub_terms}
            else:
                reused += 1
            subcategories[sub_name] = node
        if (
            previous is not None
            and previous["preference"] is self.preference
            and previous["terms"] is terms
            and reused == len(old_subs) == len(subcategories)
            and list(old_subs) == list(subcategories)
        ):
            return previous
        return {"preference": self.preference, "terms": terms, "subcategories": subcategories}

    def flattened_terms(self) -> TermVector:
        """Category terms plus all sub-category terms merged into one vector."""
        merged = self.terms.copy()
        for sub in self.subcategories.values():
            merged._accumulate(sub.terms)
        return merged


class Profile:
    """A consumer's full hierarchical profile."""

    def __init__(self, user_id: str) -> None:
        if not user_id:
            raise ProfileError("profile needs a non-empty user id")
        self.user_id = user_id
        self.categories: Dict[str, Category] = {}
        self.updated_at: float = 0.0
        self.feedback_events: int = 0

    # -- structure ------------------------------------------------------------

    def category(self, name: str, create: bool = True) -> Category:
        """Fetch (and optionally create) a main category."""
        if not name:
            raise ProfileError("category name must be non-empty")
        if name not in self.categories:
            if not create:
                raise ProfileError(f"profile {self.user_id!r} has no category {name!r}")
            self.categories[name] = Category(name=name)
        return self.categories[name]

    def has_category(self, name: str) -> bool:
        return name in self.categories

    def category_names(self) -> List[str]:
        return sorted(self.categories)

    def __len__(self) -> int:
        return len(self.categories)

    def is_empty(self) -> bool:
        """A profile with no category carrying any signal (cold-start user)."""
        return all(
            category.preference == 0 and not category.flattened_terms()
            for category in self.categories.values()
        )

    # -- views ----------------------------------------------------------------

    def preference_vector(self) -> Dict[str, float]:
        """Category name → preference value (the ``Tx`` values)."""
        return {name: category.preference for name, category in self.categories.items()}

    def flattened_terms(self) -> TermVector:
        """Every term of every category and sub-category merged into one vector
        (each category folded first: float sums do not re-associate)."""
        merged = TermVector()
        for category in self.categories.values():
            merged._accumulate(category.flattened_terms())
        return merged

    def top_categories(self, count: int) -> List[Tuple[str, float]]:
        """The ``count`` categories with the highest preference value."""
        ranked = sorted(
            ((name, category.preference) for name, category in self.categories.items()),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return ranked[:count]

    def content_key(self) -> Tuple:
        """What :meth:`to_dict` holds, as nested tuples in insertion order.

        Two profiles with equal keys are read identically by every scorer:
        ``to_dict() ==`` is not enough, because dict equality ignores the
        insertion order that fixes float summation order in
        :meth:`TermVector.dot` and the neighbour kernels.
        """
        return (
            self.user_id,
            self.updated_at,
            self.feedback_events,
            tuple(
                (
                    name,
                    category.preference,
                    tuple(category.terms.weights().items()),
                    tuple(
                        (sub_name, sub.preference, tuple(sub.terms.weights().items()))
                        for sub_name, sub in category.subcategories.items()
                    ),
                )
                for name, category in self.categories.items()
            ),
        )

    # -- persistence ----------------------------------------------------------

    def to_dict(self, previous: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """A JSON-serialisable snapshot (used by UserDB and deactivation).

        A dump is immutable: nothing writes to it once it is returned.  Its
        term dicts are the vectors' own, shared copy-on-write (see
        :class:`TermVector`), and ``previous`` (an earlier dump of this
        consumer) lends every category and sub-category node whose
        preference and term dict are still the very objects this profile
        holds, so successive dumps share all that did not change.  The
        result is ``==`` to, and has the ``repr`` of, a dump built afresh.
        """
        old = {} if previous is None else previous["categories"]
        return {
            "user_id": self.user_id,
            "updated_at": self.updated_at,
            "feedback_events": self.feedback_events,
            "categories": {
                name: category._dump(old.get(name))
                for name, category in self.categories.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Profile":
        """Rebuild a profile from :meth:`to_dict` output.

        The profile's term vectors share the payload's term dicts
        copy-on-write, so neither a later write to the profile nor one to
        another holder of the dump reaches the other side.
        """
        try:
            profile = cls(str(payload["user_id"]))
            profile.updated_at = float(payload.get("updated_at", 0.0))
            profile.feedback_events = int(payload.get("feedback_events", 0))
            categories = payload.get("categories", {})
        except (KeyError, TypeError, ValueError) as exc:
            raise ProfileError(f"malformed profile payload: {exc}") from exc
        for name, data in categories.items():  # type: ignore[union-attr]
            category = profile.category(name)
            category.preference = float(data.get("preference", 0.0))
            category.terms = TermVector._of(data.get("terms", {}))
            for sub_name, sub_data in data.get("subcategories", {}).items():
                sub = category.subcategory(sub_name)
                sub.preference = float(sub_data.get("preference", 0.0))
                sub.terms = TermVector._of(sub_data.get("terms", {}))
        return profile

    def copy(self) -> "Profile":
        """An independent profile: the two share term dicts copy-on-write."""
        return Profile.from_dict(self.to_dict())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Profile(user={self.user_id!r}, categories={len(self.categories)}, "
            f"events={self.feedback_events})"
        )
