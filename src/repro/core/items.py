"""Merchandise items shared by the catalogue and the recommenders.

The paper's seller server "integrates and catalogues merchandise"; the
recommendation mechanism compares queried merchandise against profiles built
from categories, sub-categories and descriptive terms.  :class:`Item` carries
exactly the attributes those algorithms need: a category / sub-category pair
matching the profile hierarchy of Figure 4.4 and a bag of descriptive terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import CatalogError
from repro.wire import WireValue
from repro.core.similarity import vector_norm

__all__ = ["Item", "ItemCatalogView"]


@dataclass(frozen=True)
class Item(WireValue):
    """One piece of merchandise.

    Attributes:
        item_id: globally unique identifier.
        name: display name.
        category: main category (matches ``Profile`` categories).
        subcategory: sub-category within the main category.
        terms: descriptive keywords with weights in ``[0, 1]`` used by the
            information-filtering recommender and the profile learner.
        price: list price in arbitrary currency units.
        seller: name of the seller server offering the item.

    An item is a :class:`repro.wire.WireValue`: immutable all the way down,
    it crosses aglet hops by reference.  ``_normed_terms`` and ``_keywords``
    follow the mixin's slot rule: views derived from the fields on first use
    (:meth:`normed_terms`, :meth:`matches_keyword`), which a copy or an
    unpickled item simply derives again.
    """

    __slots__ = ("_normed_terms", "_keywords", "__dict__", "__weakref__")

    item_id: str
    name: str
    category: str
    subcategory: str = ""
    terms: Tuple[Tuple[str, float], ...] = ()
    price: float = 0.0
    seller: str = ""

    def __post_init__(self) -> None:
        if not self.item_id:
            raise CatalogError("item_id must be non-empty")
        if self.price < 0:
            raise CatalogError(f"item {self.item_id!r} has a negative price")
        for term, weight in self.terms:
            if not term:
                raise CatalogError(f"item {self.item_id!r} has an empty term")
            if weight < 0:
                raise CatalogError(
                    f"item {self.item_id!r} term {term!r} has a negative weight"
                )

    @classmethod
    def build(
        cls,
        item_id: str,
        name: str,
        category: str,
        subcategory: str = "",
        terms: Optional[Dict[str, float]] = None,
        price: float = 0.0,
        seller: str = "",
    ) -> "Item":
        """Convenience constructor accepting terms as a dict."""
        term_tuple = tuple(sorted((terms or {}).items()))
        return cls(
            item_id=item_id,
            name=name,
            category=category,
            subcategory=subcategory,
            terms=term_tuple,
            price=price,
            seller=seller,
        )

    @property
    def term_weights(self) -> Dict[str, float]:
        """Terms as a mutable dict copy."""
        return dict(self.terms)

    def normed_terms(self) -> Tuple[Mapping[str, float], float]:
        """The terms as a dict and its :func:`vector_norm`, as
        ``cosine_similarity_cached`` takes them.

        Both are computed once per item and shared between callers: read
        the dict, do not change it (:attr:`term_weights` is the copy).
        """
        try:
            return self._normed_terms
        except AttributeError:
            weights = dict(self.terms)
            normed = (weights, vector_norm(weights))
            object.__setattr__(self, "_normed_terms", normed)
            return normed

    def matches_keyword(self, keyword: str) -> bool:
        """Whether a free-text keyword matches this item.

        The marketplace query service uses this for keyword search: a match on
        the name, category, sub-category or any descriptive term.
        """
        needle = keyword.lower().strip()
        if not needle:
            return False
        try:
            name, exact = self._keywords
        except AttributeError:
            name = self.name.lower()
            exact = frozenset(
                (self.category.lower(), self.subcategory.lower())
            ).union(term.lower() for term, _ in self.terms)
            object.__setattr__(self, "_keywords", (name, exact))
        return needle in name or needle in exact


class ItemCatalogView:
    """A read-only indexed view over a collection of items.

    Recommenders receive one of these rather than a live marketplace
    catalogue, so the core package stays independent of the e-commerce layer.
    """

    def __init__(self, items: Iterable[Item]) -> None:
        self._items: Dict[str, Item] = {}
        self._by_category: Dict[str, List[str]] = {}
        for item in items:
            self.add(item)

    def add(self, item: Item) -> None:
        if item.item_id in self._items:
            raise CatalogError(f"duplicate item id {item.item_id!r} in catalogue view")
        self._items[item.item_id] = item
        self._by_category.setdefault(item.category, []).append(item.item_id)

    def get(self, item_id: str) -> Item:
        if item_id not in self._items:
            raise CatalogError(f"unknown item id {item_id!r}")
        return self._items[item_id]

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items.values())

    @property
    def item_ids(self) -> List[str]:
        return sorted(self._items)

    def in_category(self, category: str) -> List[Item]:
        return [self._items[item_id] for item_id in self._by_category.get(category, [])]

    def categories(self) -> List[str]:
        return sorted(self._by_category)

    def search(self, keyword: str) -> List[Item]:
        """Keyword search over all items (name, category or term match)."""
        return [item for item in self._items.values() if item.matches_keyword(keyword)]
