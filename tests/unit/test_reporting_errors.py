"""Unit tests for the experiment reporting helpers and the error hierarchy."""

import pytest

from repro import errors
from repro.experiments.harness import ExperimentResult
from repro.experiments.reporting import format_table, print_result


class TestFormatTable:
    def test_empty_rows(self):
        assert format_table([]) == "(no rows)"

    def test_renders_header_separator_and_rows(self):
        rows = [{"name": "a", "value": 1.25}, {"name": "bb", "value": 10.0}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_floats_formatted_consistently(self):
        text = format_table([{"x": 0.123456}])
        assert "0.1235" in text

    def test_large_floats_use_one_decimal(self):
        text = format_table([{"x": 123456.789}])
        assert "123456.8" in text

    def test_explicit_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_missing_column_value_rendered_empty(self):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        text = format_table(rows, columns=["a", "b"])
        assert text  # must not raise


class TestExperimentResult:
    def test_add_row_and_column(self):
        result = ExperimentResult("demo")
        result.add_row(x=1, y=2)
        result.add_row(x=3, y=4)
        assert result.column("x") == [1, 3]

    def test_notes_accumulate(self):
        result = ExperimentResult("demo")
        result.add_note("first")
        result.add_note("second")
        assert result.notes == ["first", "second"]

    def test_print_result_outputs_table(self, capsys):
        result = ExperimentResult("demo", description="a demo")
        result.add_row(metric=0.5)
        result.add_note("just a note")
        print_result(result)
        captured = capsys.readouterr().out
        assert "== demo ==" in captured
        assert "metric" in captured
        assert "just a note" in captured


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "subclass",
        [
            errors.PlatformError,
            errors.NetworkError,
            errors.AgentError,
            errors.AuthenticationError,
            errors.ECommerceError,
            errors.MarketplaceError,
            errors.AuctionError,
            errors.RecommendationError,
            errors.ProfileError,
            errors.SimilarityError,
            errors.WorkloadError,
        ],
    )
    def test_all_errors_share_the_base_class(self, subclass):
        assert issubclass(subclass, errors.ReproError)

    def test_specific_hierarchies(self):
        assert issubclass(errors.HostUnreachableError, errors.NetworkError)
        assert issubclass(errors.AuctionError, errors.MarketplaceError)

    def test_catching_the_base_class_catches_everything(self):
        with pytest.raises(errors.ReproError):
            raise errors.AuctionError("boom")
