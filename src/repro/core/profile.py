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
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ProfileError

__all__ = ["TermVector", "SubCategory", "Category", "Profile"]


class TermVector:
    """A sparse weighted term vector (terms of a category or sub-category)."""

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        self._weights: Dict[str, float] = {}
        if weights:
            built = self._weights
            for term, weight in weights.items():
                if term and weight > 0:
                    # What ``set`` does with a pair it keeps, less the call:
                    # every ``copy`` and ``from_dict`` builds through here.
                    built[term] = float(weight)
                else:
                    self.set(term, weight)

    # -- mutation -------------------------------------------------------------

    def set(self, term: str, weight: float) -> None:
        if not term:
            raise ProfileError("term must be a non-empty string")
        if weight < 0:
            raise ProfileError(f"term {term!r} cannot have a negative weight ({weight})")
        if weight == 0:
            self._weights.pop(term, None)
        else:
            self._weights[term] = float(weight)

    def add(self, term: str, delta: float) -> float:
        """Add ``delta`` to a term's weight, flooring at zero; return new weight."""
        if not term:
            raise ProfileError("term must be a non-empty string")
        updated = max(0.0, self._weights.get(term, 0.0) + delta)
        self.set(term, updated)
        return updated

    def decay(self, factor: float) -> None:
        """Multiply every weight by ``factor`` in (0, 1] (interest ageing)."""
        if not 0.0 < factor <= 1.0:
            raise ProfileError(f"decay factor must be in (0, 1], got {factor}")
        for term in list(self._weights):
            self.set(term, self._weights[term] * factor)

    def prune(self, min_weight: float) -> int:
        """Drop terms below ``min_weight``; return how many were removed."""
        doomed = [term for term, weight in self._weights.items() if weight < min_weight]
        for term in doomed:
            del self._weights[term]
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
        mutate, do not keep past the call (:meth:`as_dict` is the copy)."""
        return self._weights

    def terms(self) -> List[str]:
        return sorted(self._weights)

    def top_terms(self, count: int) -> List[Tuple[str, float]]:
        """The ``count`` heaviest terms, ties broken alphabetically."""
        return sorted(self._weights.items(), key=lambda pair: (-pair[1], pair[0]))[:count]

    # -- maths ----------------------------------------------------------------

    def norm(self) -> float:
        return math.sqrt(sum(weight * weight for weight in self._weights.values()))

    def total(self) -> float:
        return sum(self._weights.values())

    def dot(self, other: "TermVector") -> float:
        if len(self._weights) > len(other._weights):
            return other.dot(self)
        return sum(
            weight * other._weights.get(term, 0.0)
            for term, weight in self._weights.items()
        )

    def cosine(self, other: "TermVector") -> float:
        """Cosine similarity with another vector (0 when either is empty).

        Clamped to 1: weights near 1e-161 square into the subnormal range,
        where the norms lose precision and the bare ratio can exceed 1.
        """
        denominator = self.norm() * other.norm()
        if denominator == 0:
            return 0.0
        return min(1.0, self.dot(other) / denominator)

    def merged_with(self, other: "TermVector", weight: float = 1.0) -> "TermVector":
        """A new vector equal to ``self + weight * other``."""
        merged = self.copy()
        merged._accumulate(other, weight)
        return merged

    def _accumulate(self, other: "TermVector", weight: float = 1.0) -> None:
        """In place, what ``self = self.merged_with(other, weight)`` leaves:
        same values, same insertion order (a cosine's summation order keys on it)."""
        weights = self._weights
        for term, value in other.items():
            updated = max(0.0, weights.get(term, 0.0) + weight * value)
            if updated == 0:
                weights.pop(term, None)
            else:
                weights[term] = updated

    def copy(self) -> "TermVector":
        return TermVector(self.as_dict())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(f"{t}:{w:.2f}" for t, w in self.top_terms(4))
        return f"TermVector({preview}{'...' if len(self) > 4 else ''})"


@dataclass
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


@dataclass
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

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable snapshot (used by UserDB and deactivation)."""
        return {
            "user_id": self.user_id,
            "updated_at": self.updated_at,
            "feedback_events": self.feedback_events,
            "categories": {
                name: {
                    "preference": category.preference,
                    "terms": category.terms.as_dict(),
                    "subcategories": {
                        sub_name: {
                            "preference": sub.preference,
                            "terms": sub.terms.as_dict(),
                        }
                        for sub_name, sub in category.subcategories.items()
                    },
                }
                for name, category in self.categories.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Profile":
        """Rebuild a profile from :meth:`to_dict` output."""
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
            category.terms = TermVector(data.get("terms", {}))
            for sub_name, sub_data in data.get("subcategories", {}).items():
                sub = category.subcategory(sub_name)
                sub.preference = float(sub_data.get("preference", 0.0))
                sub.terms = TermVector(sub_data.get("terms", {}))
        return profile

    def copy(self) -> "Profile":
        return Profile.from_dict(self.to_dict())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Profile(user={self.user_id!r}, categories={len(self.categories)}, "
            f"events={self.feedback_events})"
        )
