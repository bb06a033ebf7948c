"""Tests for the one-shot report generator."""

import pytest

from repro.analysis.report import generate_report, write_report


@pytest.fixture(scope="module")
def report_text():
    # Small trial counts keep the test fast; the structure is what matters.
    return generate_report(trials=60, seed=4, include_battery=False)


class TestStructure:
    def test_all_sections_present(self, report_text):
        for heading in [
            "# Measured report",
            "## Section 2 — minimum nodes",
            "## Section 2 — the seven-node trade-off",
            "## Adversarial fuzzing confidence",
            "## Degradation profile",
            "## Theorem 2 — scenario triples",
            "## Theorem 3 — connectivity bound",
            "## Reliability of the 7-node configurations",
            "## Cost of surviving u = 3 faults safely",
            "## Mixed Byzantine/crash budgets",
            "## Degradable clock-sync conjecture grid",
        ]:
            assert heading in report_text, heading

    def test_no_failure_markers(self, report_text):
        # Measured verdicts embedded in the report must all be healthy.
        assert "HOLDS?!" not in report_text
        assert "BREAKS?!" not in report_text
        assert "FAILS" not in report_text
        assert "0 violations in 60" in report_text

    def test_tables_fenced(self, report_text):
        assert report_text.count("```") % 2 == 0

    def test_battery_included_when_requested(self):
        text = generate_report(trials=30, seed=1, include_battery=True)
        assert "Experiment battery" in text
        assert "14/14 experiments passed" in text


class TestWriteReport:
    def test_writes_file(self, tmp_path):
        path = tmp_path / "REPORT.md"
        text = write_report(
            str(path), trials=30, seed=2, include_battery=False
        )
        assert path.read_text() == text
        assert "# Measured report" in text
