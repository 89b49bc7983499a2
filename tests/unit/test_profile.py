"""Unit tests for the hierarchical consumer profile (Figure 4.4)."""

import pytest

from repro.errors import ProfileError
from repro.core.profile import Category, Profile, SubCategory, TermVector


class TestTermVector:
    def test_set_get_and_contains(self):
        vector = TermVector({"novel": 0.5})
        vector.set("thriller", 0.3)
        assert vector.get("novel") == 0.5
        assert "thriller" in vector
        assert vector.get("missing") == 0.0

    def test_zero_weight_removes_term(self):
        vector = TermVector({"novel": 0.5})
        vector.set("novel", 0.0)
        assert "novel" not in vector
        assert len(vector) == 0

    def test_negative_weight_rejected(self):
        with pytest.raises(ProfileError):
            TermVector({"x": -0.1})

    def test_empty_term_rejected(self):
        with pytest.raises(ProfileError):
            TermVector().set("", 0.5)

    def test_add_floors_at_zero(self):
        vector = TermVector({"x": 0.2})
        assert vector.add("x", -0.5) == 0.0
        assert "x" not in vector

    def test_decay_scales_all_weights(self):
        vector = TermVector({"a": 1.0, "b": 0.5})
        vector.decay(0.5)
        assert vector.get("a") == pytest.approx(0.5)
        assert vector.get("b") == pytest.approx(0.25)

    def test_decay_factor_validated(self):
        with pytest.raises(ProfileError):
            TermVector().decay(0.0)
        with pytest.raises(ProfileError):
            TermVector().decay(1.5)

    def test_prune_removes_small_weights(self):
        vector = TermVector({"a": 0.001, "b": 0.5})
        removed = vector.prune(0.01)
        assert removed == 1
        assert "a" not in vector and "b" in vector

    def test_top_terms_deterministic_on_ties(self):
        vector = TermVector({"b": 0.5, "a": 0.5, "c": 0.9})
        assert vector.top_terms(2) == [("c", 0.9), ("a", 0.5)]

    def test_norm_and_total(self):
        vector = TermVector({"a": 3.0, "b": 4.0})
        assert vector.norm() == pytest.approx(5.0)
        assert vector.total() == pytest.approx(7.0)


class TestCategoryStructures:
    def test_subcategory_validation(self):
        with pytest.raises(ProfileError):
            SubCategory(name="")
        with pytest.raises(ProfileError):
            SubCategory(name="x", preference=-1.0)

    def test_category_subcategory_create_and_lookup(self):
        category = Category(name="books")
        sub = category.subcategory("fiction")
        assert sub is category.subcategory("fiction")
        with pytest.raises(ProfileError):
            category.subcategory("missing", create=False)

    def test_flattened_terms_merges_subcategories(self):
        category = Category(name="books")
        category.terms.set("reading", 1.0)
        category.subcategory("fiction").terms.set("novel", 0.5)
        flattened = category.flattened_terms()
        assert flattened.get("reading") == 1.0
        assert flattened.get("novel") == 0.5


class TestProfile:
    def test_requires_user_id(self):
        with pytest.raises(ProfileError):
            Profile("")

    def test_category_creation_and_lookup(self):
        profile = Profile("alice")
        category = profile.category("books")
        assert profile.has_category("books")
        assert category is profile.category("books")
        with pytest.raises(ProfileError):
            profile.category("missing", create=False)
        with pytest.raises(ProfileError):
            profile.category("")

    def test_is_empty_until_signal_arrives(self):
        profile = Profile("alice")
        assert profile.is_empty()
        profile.category("books")
        assert profile.is_empty()  # structure alone is not signal
        profile.category("books").preference = 1.0
        assert not profile.is_empty()

    def test_preference_vector_and_top_categories(self):
        profile = Profile("alice")
        profile.category("books").preference = 3.0
        profile.category("fashion").preference = 1.0
        profile.category("groceries").preference = 3.0
        assert profile.preference_vector()["books"] == 3.0
        top = profile.top_categories(2)
        assert top == [("books", 3.0), ("groceries", 3.0)]

    def test_flattened_terms_across_categories(self):
        profile = Profile("alice")
        profile.category("books").terms.set("novel", 1.0)
        profile.category("fashion").subcategory("shoes").terms.set("boots", 0.5)
        flattened = profile.flattened_terms()
        assert flattened.get("novel") == 1.0
        assert flattened.get("boots") == 0.5

    def test_roundtrip_to_dict_and_back(self):
        profile = Profile("alice")
        profile.updated_at = 42.0
        profile.feedback_events = 3
        books = profile.category("books")
        books.preference = 2.5
        books.terms.set("novel", 0.8)
        books.subcategory("fiction").terms.set("mystery", 0.4)
        books.subcategory("fiction").preference = 1.5

        restored = Profile.from_dict(profile.to_dict())
        assert restored.user_id == "alice"
        assert restored.updated_at == 42.0
        assert restored.feedback_events == 3
        assert restored.category("books").preference == 2.5
        assert restored.category("books").terms.get("novel") == 0.8
        assert restored.category("books").subcategory("fiction").terms.get("mystery") == 0.4

    def test_from_dict_rejects_malformed_payload(self):
        with pytest.raises(ProfileError):
            Profile.from_dict({"no_user_id": True})

    def test_from_dict_shares_no_term_dict_with_its_payload(self):
        # WAL entries keep the payload for snapshots; the profile learns on.
        profile = Profile("alice")
        profile.category("books").terms.set("novel", 0.8)
        profile.category("books").subcategory("fiction").terms.set("mystery", 0.4)
        payload = profile.to_dict()
        pristine = profile.to_dict()
        restored = Profile.from_dict(payload)

        books = payload["categories"]["books"]
        books["terms"]["novel"] = 9.0
        books["subcategories"]["fiction"]["terms"]["scribble"] = 1.0
        assert restored.to_dict() == pristine

        payload = profile.to_dict()
        restored = Profile.from_dict(payload)
        restored.category("books").terms.set("novel", 9.0)
        restored.category("books").subcategory("fiction").terms.add("mystery", 1.0)
        assert payload == pristine

    def test_copy_is_independent(self):
        profile = Profile("alice")
        profile.category("books").preference = 1.0
        duplicate = profile.copy()
        duplicate.category("books").preference = 9.0
        assert profile.category("books").preference == 1.0

    def test_len_counts_categories(self):
        profile = Profile("alice")
        profile.category("books")
        profile.category("fashion")
        assert len(profile) == 2
        assert profile.category_names() == ["books", "fashion"]
