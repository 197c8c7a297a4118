"""Tests for the privacy-budget ledger."""

import math
from fractions import Fraction

import pytest

from repro.exceptions import ValidationError
from repro.release.ledger import (
    BudgetExceededError,
    PrivacyLedger,
)


class TestConstruction:
    def test_default_no_floor(self):
        ledger = PrivacyLedger()
        assert ledger.floor == 0
        assert ledger.cumulative_alpha == 1

    def test_floor_validated(self):
        with pytest.raises(ValidationError):
            PrivacyLedger(floor=Fraction(3, 2))

    def test_floor_of_one_rejected(self):
        with pytest.raises(ValidationError):
            PrivacyLedger(floor=1)


class TestComposition:
    def test_levels_multiply(self):
        ledger = PrivacyLedger()
        ledger.charge(Fraction(1, 2))
        ledger.charge(Fraction(1, 4))
        assert ledger.cumulative_alpha == Fraction(1, 8)

    def test_epsilons_add(self):
        ledger = PrivacyLedger()
        ledger.charge(Fraction(1, 2))
        ledger.charge(Fraction(1, 2))
        assert ledger.cumulative_epsilon == pytest.approx(2 * math.log(2))

    def test_entries_record_running_product(self):
        ledger = PrivacyLedger()
        ledger.charge(Fraction(1, 2), label="a")
        ledger.charge(Fraction(1, 3), label="b")
        assert [e.cumulative_alpha for e in ledger.entries] == [
            Fraction(1, 2),
            Fraction(1, 6),
        ]
        assert ledger.entries[1].label == "b"

    def test_len(self):
        ledger = PrivacyLedger()
        assert len(ledger) == 0
        ledger.charge(Fraction(1, 2))
        assert len(ledger) == 1


class TestEnforcement:
    def test_refuses_crossing_floor(self):
        ledger = PrivacyLedger(floor=Fraction(1, 4))
        ledger.charge(Fraction(1, 2))
        with pytest.raises(BudgetExceededError):
            ledger.charge(Fraction(1, 3))
        # Refusal leaves the ledger unchanged.
        assert ledger.cumulative_alpha == Fraction(1, 2)
        assert len(ledger) == 1

    def test_exact_boundary_allowed(self):
        ledger = PrivacyLedger(floor=Fraction(1, 4))
        ledger.charge(Fraction(1, 2))
        ledger.charge(Fraction(1, 2))  # exactly hits the floor
        assert ledger.cumulative_alpha == Fraction(1, 4)

    def test_can_afford(self):
        ledger = PrivacyLedger(floor=Fraction(1, 4))
        ledger.charge(Fraction(1, 2))
        assert ledger.can_afford(Fraction(1, 2))
        assert not ledger.can_afford(Fraction(1, 3))

    def test_remaining_alpha(self):
        ledger = PrivacyLedger(floor=Fraction(1, 8))
        ledger.charge(Fraction(1, 2))
        assert ledger.remaining_alpha == Fraction(1, 4)

    def test_remaining_alpha_capped_at_one(self):
        ledger = PrivacyLedger(floor=Fraction(1, 2))
        ledger.charge(Fraction(2, 3))
        # floor / cumulative = 3/4 < 1; charge more and it saturates.
        assert ledger.remaining_alpha == Fraction(3, 4)

    def test_no_floor_never_refuses(self):
        ledger = PrivacyLedger()
        for _ in range(10):
            ledger.charge(Fraction(1, 2))
        assert ledger.cumulative_alpha == Fraction(1, 1024)


class TestTryCharge:
    def test_returns_true_and_records(self):
        ledger = PrivacyLedger(floor=Fraction(1, 4))
        assert ledger.try_charge(Fraction(1, 2))
        assert ledger.cumulative_alpha == Fraction(1, 2)

    def test_returns_false_without_recording(self):
        ledger = PrivacyLedger(floor=Fraction(1, 4))
        ledger.charge(Fraction(1, 2))
        assert not ledger.try_charge(Fraction(1, 3))
        assert ledger.cumulative_alpha == Fraction(1, 2)
        assert len(ledger) == 1


class TestReport:
    def test_report_mentions_everything(self):
        ledger = PrivacyLedger(floor=Fraction(1, 16))
        ledger.charge(Fraction(1, 2), label="flu count")
        text = ledger.report()
        assert "flu count" in text
        assert "1/2" in text
        assert "joint guarantee" in text
