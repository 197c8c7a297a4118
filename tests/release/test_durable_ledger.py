"""Tests for the crash-safe durable privacy ledger.

The invariants under test (see the module docstring of
:mod:`repro.release.durable_ledger`):

* **release-implies-durable** — a charge is journaled (and, in
  ``fsync="always"`` mode, fsync'd) before the caller sees "charged";
* **conservative recovery** — a valid checksummed record is always
  kept (ambiguity over-protects), a torn tail is truncated
  (never-acknowledged = never-released = floor-legal to drop), and
  corruption *before* valid records is refused loudly;
* **exactness** — budgets round-trip as exact ``Fraction`` values, not
  floats;
* **idempotency** — a replayed key never double-charges, even across a
  crash that lost the response.
"""

import json
import multiprocessing
import os
import random
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.release import durable_ledger
from repro.release.durable_ledger import (
    FSYNC_MODES,
    DurableLedger,
    LedgerCorruptionError,
    LedgerFS,
    LedgerUnavailableError,
    MemoryLedgerBook,
    _encode_record,
    verify_ledger_dir,
)
from repro.serving.faults import FaultInjector, FaultyFS, InjectedCrash

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


@pytest.fixture()
def ledger_dir(tmp_path):
    return tmp_path / "ledger"


def reopen(ledger_dir, **kwargs):
    return DurableLedger(ledger_dir, **kwargs)


class TestRecoveredState:
    """What a reopened book restores from its snapshot and journal."""

    def test_snapshot_keeps_the_release_count_truthful(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, floor=0)
        for _ in range(3):
            ledger.charge("u", HALF)
        ledger.compact()
        ledger.close()
        back = reopen(ledger_dir)
        assert len(back.view("u")) == 3
        back.charge("u", HALF)
        budget = back.view("u")
        assert budget.releases == 4
        assert budget.cumulative_alpha == Fraction(1, 16)
        back.close()

    @pytest.mark.parametrize("compact", [False, True])
    def test_book_recovered_at_its_floor_rejects(self, ledger_dir, compact):
        ledger = DurableLedger(ledger_dir, Fraction(1, 8))
        for _ in range(3):
            ledger.charge("u", HALF)
        if compact:
            ledger.compact()
        ledger.close()
        back = reopen(ledger_dir)
        assert back.view("u").cumulative_alpha == back.floor
        assert back.charge("u", HALF).outcome == "rejected"
        back.close()

    @pytest.mark.parametrize("state", [
        {"cum": "0", "releases": 1},
        {"cum": "3/2", "releases": 1},
        {"cum": "1/2", "releases": 0},
    ])
    def test_nonsense_snapshot_state_is_refused(self, ledger_dir, state):
        DurableLedger(ledger_dir).close()
        snapshot = {"version": 1, "seq": 0, "floor": "0",
                    "users": {"u": state}, "replay": {}}
        (ledger_dir / "snapshot.json").write_bytes(_encode_record(snapshot))
        with pytest.raises(LedgerCorruptionError):
            reopen(ledger_dir)

    def test_nonsense_journal_cumulative_is_refused(self, ledger_dir):
        DurableLedger(ledger_dir).close()
        record = {"op": "charge", "seq": 1, "user": "u", "alpha": "1/2",
                  "cum": "0", "label": "release"}
        (ledger_dir / "wal.jsonl").write_bytes(_encode_record(record))
        with pytest.raises(LedgerCorruptionError):
            reopen(ledger_dir)


class TestDurableRoundtrip:
    def test_exact_fractions_survive_reopen(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, Fraction(1, 1000))
        ledger.charge("alice", Fraction(123, 456), label="odd")
        ledger.charge("alice", Fraction(7, 9))
        ledger.close()
        back = reopen(ledger_dir)
        budget = back.view("alice")
        assert budget.cumulative_alpha == Fraction(123, 456) * Fraction(7, 9)
        assert budget.releases == 2
        assert back.floor == Fraction(1, 1000)
        back.close()

    def test_floor_enforced_across_restarts(self, ledger_dir):
        statuses = []
        for _ in range(4):
            ledger = reopen(ledger_dir, floor=Fraction(1, 8))
            statuses.append(ledger.charge("u", HALF).outcome)
            ledger.close()
        # 1/2 -> 1/4 -> 1/8 (== floor, legal) -> rejected
        assert statuses == ["charged", "charged", "charged", "rejected"]

    def test_rejected_charge_writes_nothing(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, Fraction(1, 4))
        ledger.charge("u", HALF)
        size = os.path.getsize(ledger_dir / "wal.jsonl")
        decision = ledger.charge("u", QUARTER)
        assert decision.outcome == "rejected"
        assert os.path.getsize(ledger_dir / "wal.jsonl") == size
        ledger.close()

    def test_none_floor_adopts_persisted_floor(self, ledger_dir):
        DurableLedger(ledger_dir, Fraction(1, 8)).close()
        back = reopen(ledger_dir)
        assert back.floor == Fraction(1, 8)
        back.close()

    def test_explicit_floor_overrides_persisted(self, ledger_dir):
        DurableLedger(ledger_dir, Fraction(1, 8)).close()
        back = reopen(ledger_dir, floor=Fraction(1, 32))
        assert back.floor == Fraction(1, 32)
        back.close()
        assert reopen(ledger_dir).floor == Fraction(1, 32)

    def test_bad_fsync_mode_rejected(self, ledger_dir):
        with pytest.raises(ReproError, match="fsync"):
            DurableLedger(ledger_dir, fsync="sometimes")
        assert set(FSYNC_MODES) == {"always", "group", "off"}


class TestIdempotency:
    def test_replay_returns_original_response(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, Fraction(1, 4))
        first = ledger.charge("u", HALF, idem="req-1")
        assert first.outcome == "charged"
        ledger.record_result("req-1", 200, {"value": 9})
        again = ledger.charge("u", HALF, idem="req-1")
        assert again.outcome == "replayed"
        assert again.replay == (200, {"value": 9})
        # the budget was spent exactly once
        assert ledger.view("u").cumulative_alpha == HALF
        ledger.close()

    def test_replay_survives_reopen(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, Fraction(1, 4))
        ledger.charge("u", HALF, idem="req-1")
        ledger.record_result("req-1", 200, {"value": 9})
        ledger.close()
        back = reopen(ledger_dir)
        again = back.charge("u", HALF, idem="req-1")
        assert again.outcome == "replayed"
        assert again.replay == (200, {"value": 9})
        back.close()

    def test_charged_but_response_lost_is_pending_not_recharged(
        self, ledger_dir
    ):
        ledger = DurableLedger(ledger_dir, Fraction(1, 4))
        ledger.charge("u", HALF, idem="req-1")
        ledger.close()  # "crash" before record_result
        back = reopen(ledger_dir)
        decision = back.charge("u", HALF, idem="req-1")
        assert decision.outcome == "pending"
        assert back.view("u").cumulative_alpha == HALF  # spent once
        back.close()

    def test_memory_book_same_semantics(self):
        book = MemoryLedgerBook(Fraction(1, 4))
        assert book.charge("u", HALF, idem="k").outcome == "charged"
        assert book.charge("u", HALF, idem="k").outcome == "pending"
        book.record_result("k", 200, {"v": 1})
        replay = book.charge("u", HALF, idem="k")
        assert replay.outcome == "replayed"
        assert replay.replay == (200, {"v": 1})
        assert book.view("u").cumulative_alpha == HALF


class TestRecovery:
    def test_torn_tail_is_truncated(self, ledger_dir):
        ledger = DurableLedger(ledger_dir)
        ledger.charge("u", HALF)
        ledger.charge("u", HALF)
        ledger.close()
        wal = ledger_dir / "wal.jsonl"
        intact = wal.read_bytes()
        wal.write_bytes(intact + b'{"op":"charge","seq":3,"user":"u"')
        back = reopen(ledger_dir)
        assert back.view("u").cumulative_alpha == QUARTER
        assert wal.read_bytes() == intact  # tail physically removed
        back.close()

    def test_checksum_corrupt_tail_is_truncated(self, ledger_dir):
        ledger = DurableLedger(ledger_dir)
        ledger.charge("u", HALF)
        ledger.charge("u", HALF)
        ledger.close()
        wal = ledger_dir / "wal.jsonl"
        lines = wal.read_bytes().splitlines(keepends=True)
        flipped = lines[-1].replace(b'"user":"u"', b'"user":"x"')
        assert flipped != lines[-1]
        wal.write_bytes(b"".join(lines[:-1]) + flipped)
        back = reopen(ledger_dir)
        assert back.view("u").cumulative_alpha == HALF
        back.close()

    def test_mid_journal_corruption_is_refused(self, ledger_dir):
        ledger = DurableLedger(ledger_dir)
        ledger.charge("u", HALF)
        ledger.charge("u", HALF)
        ledger.close()
        wal = ledger_dir / "wal.jsonl"
        lines = wal.read_bytes().splitlines(keepends=True)
        wal.write_bytes(b"garbage not json\n" + b"".join(lines))
        with pytest.raises(LedgerCorruptionError, match="refusing to drop"):
            reopen(ledger_dir)
        report = verify_ledger_dir(ledger_dir)
        assert not report["ok"]

    def test_seq_gap_is_refused(self, ledger_dir):
        ledger = DurableLedger(ledger_dir)
        ledger.charge("u", HALF)
        ledger.charge("u", HALF)
        ledger.close()
        wal = ledger_dir / "wal.jsonl"
        lines = wal.read_bytes().splitlines(keepends=True)
        wal.write_bytes(lines[-1])  # first record vanished
        with pytest.raises(LedgerCorruptionError):
            reopen(ledger_dir)

    def test_snapshot_plus_journal_replay(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, Fraction(1, 100))
        ledger.charge("u", HALF, label="before-snapshot")
        ledger.compact()
        ledger.charge("u", QUARTER, label="after-snapshot")
        ledger.close()
        back = reopen(ledger_dir)
        budget = back.view("u")
        assert budget.cumulative_alpha == Fraction(1, 8)
        assert budget.releases == 2
        back.close()

    def test_crash_between_snapshot_and_truncate_is_safe(self, ledger_dir):
        faults = FaultInjector().crash_at("compact.after-snapshot")
        ledger = DurableLedger(ledger_dir, faults=faults)
        ledger.charge("u", HALF)
        with pytest.raises(InjectedCrash):
            ledger.compact()
        # the snapshot landed, the journal did not get truncated:
        assert (ledger_dir / "snapshot.json").exists()
        assert os.path.getsize(ledger_dir / "wal.jsonl") > 0
        back = reopen(ledger_dir)
        # replay must not double-apply the journaled charge
        assert back.view("u").cumulative_alpha == HALF
        assert back.view("u").releases == 1
        back.close()

    def test_auto_compaction_bounds_the_journal(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, snapshot_every=4)
        for _ in range(10):
            ledger.charge("u", Fraction(999, 1000))
        assert ledger.stats()["snapshot_seq"] >= 4
        ledger.close()
        back = reopen(ledger_dir)
        assert back.view("u").cumulative_alpha == Fraction(999, 1000) ** 10
        assert back.view("u").releases == 10
        back.close()

    def test_verify_ledger_dir_reports_clean_state(self, ledger_dir):
        ledger = DurableLedger(ledger_dir, Fraction(1, 64))
        ledger.charge("a", HALF)
        ledger.charge("b", QUARTER)
        ledger.close()
        report = verify_ledger_dir(ledger_dir)
        assert report["ok"]
        assert report["records"] == 2
        assert report["users"] == 2
        assert report["floor"] == "1/64"

    def test_verify_catches_tampered_cumulative(self, ledger_dir):
        ledger = DurableLedger(ledger_dir)
        ledger.charge("u", HALF)
        ledger.close()
        wal = ledger_dir / "wal.jsonl"
        record = json.loads(wal.read_bytes())
        record["cum"] = "1/3"  # inconsistent with alpha product
        del record["crc"]
        wal.write_bytes(_encode_record(record))
        report = verify_ledger_dir(ledger_dir)
        assert not report["ok"]
        assert any("running product" in f for f in report["failures"])


class CountingFS(LedgerFS):
    """The real filesystem, tallying the size of every journal and
    snapshot write."""

    def __init__(self) -> None:
        self.wal: list[int] = []
        self.snapshots: list[int] = []

    def write(self, handle, data: bytes) -> None:
        super().write(handle, data)
        name = os.path.basename(str(handle.name))
        if name == "wal.jsonl":
            self.wal.append(len(data))
        elif name.startswith(".snapshot.json-"):
            self.snapshots.append(len(data))


def prepopulate(ledger_dir, users: int, floor) -> dict:
    """Charge ``users`` users once at 1/2 and compact them into one
    snapshot; returns the model ``{user: cumulative}``."""
    ledger = DurableLedger(ledger_dir, floor, fsync="off", snapshot_every=0)
    model = {}
    for index in range(users):
        user = f"user-{index}"
        assert ledger.charge(user, HALF).charged
        model[user] = HALF
    ledger.compact()
    ledger.close()
    return model


class TestCompactionIsAmortized:
    """Auto-compaction waits for the journal to outgrow the last
    snapshot, so its work per charge does not grow with the user count."""

    USERS = 2000
    EVERY = 16
    FLOOR = Fraction(1, 16)
    ALPHAS = (HALF, Fraction(2, 3), Fraction(9, 10))

    def test_snapshot_work_is_bounded_by_journal_work(self, ledger_dir):
        model = prepopulate(ledger_dir, self.USERS, self.FLOOR)
        releases = dict.fromkeys(model, 1)
        fs = CountingFS()
        ledger = DurableLedger(
            ledger_dir, fsync="off", snapshot_every=self.EVERY, fs=fs
        )
        rng = random.Random(11)
        outcomes = {"charged": 0, "rejected": 0}
        for _ in range(4000):
            # a fifth of the traffic is users the snapshot never held
            user = f"user-{rng.randrange(self.USERS * 5 // 4)}"
            alpha = rng.choice(self.ALPHAS)
            proposed = model.get(user, Fraction(1)) * alpha
            decision = ledger.charge(user, alpha)
            outcomes[decision.outcome] += 1
            if proposed >= self.FLOOR:
                assert decision.charged
                assert decision.cumulative_alpha == proposed
                model[user] = proposed
                releases[user] = releases.get(user, 0) + 1
            else:
                assert decision.outcome == "rejected"
        compactions = ledger.stats()["compactions"]
        ledger.close()
        assert outcomes["charged"] > 0 and outcomes["rejected"] > 0
        # The journal outgrew the snapshot several times, yet far fewer
        # snapshots ran than one per EVERY appends.
        assert 2 <= compactions < len(fs.wal) // self.EVERY // 10
        assert len(fs.snapshots) == compactions
        assert sum(fs.snapshots) <= sum(fs.wal) + max(fs.snapshots)

        record = max(fs.wal)
        journal = os.path.getsize(ledger_dir / "wal.jsonl")
        snapshot = os.path.getsize(ledger_dir / "snapshot.json")
        assert journal <= max(snapshot, self.EVERY * record) + record

        back = reopen(ledger_dir)
        assert back.users() == len(model)
        for user, cumulative in model.items():
            budget = back.view(user)
            assert budget.cumulative_alpha == cumulative
            assert budget.releases == releases[user]
        back.close()
        assert verify_ledger_dir(ledger_dir)["ok"]

    def test_stats_report_the_snapshot_size(self, ledger_dir):
        ledger = DurableLedger(ledger_dir)
        assert ledger.stats()["snapshot_bytes"] == 0
        ledger.charge("u", HALF)
        ledger.compact()
        assert ledger.stats()["snapshot_bytes"] == os.path.getsize(
            ledger_dir / "snapshot.json"
        )
        ledger.close()

    def test_small_snapshot_still_compacts_every_few_appends(
        self, ledger_dir
    ):
        ledger = DurableLedger(ledger_dir, snapshot_every=4)
        for _ in range(4):
            ledger.charge("u", HALF)
        assert ledger.stats()["compactions"] == 1  # no snapshot yet: size 0
        ledger.close()

    @pytest.mark.chaos
    def test_crash_after_snapshot_with_large_journal(self, ledger_dir):
        """Die between writing the snapshot and truncating a journal as
        large as it: recovery must apply none of those records twice."""
        model = prepopulate(ledger_dir, self.USERS, self.FLOOR)
        releases = dict.fromkeys(model, 1)
        first_snapshot = os.path.getsize(ledger_dir / "snapshot.json")
        faults = FaultInjector().crash_at("compact.after-snapshot")
        ledger = DurableLedger(
            ledger_dir, fsync="off", snapshot_every=self.EVERY,
            faults=faults,
        )
        step = Fraction(9, 10)
        for index in range(10 * self.USERS):
            user = f"user-{index % self.USERS}"
            # The record is journaled before the compaction that follows
            # it in the same charge, so it counts even when that crashes.
            model[user] *= step
            releases[user] += 1
            try:
                ledger.charge(user, step)
            except InjectedCrash:
                break
        else:
            pytest.fail("compaction never ran")
        ledger.close()
        # the untruncated journal had outgrown the first snapshot
        assert os.path.getsize(ledger_dir / "wal.jsonl") >= first_snapshot

        back = reopen(ledger_dir, snapshot_every=self.EVERY)
        for user, cumulative in model.items():
            budget = back.view(user)
            assert budget.cumulative_alpha == cumulative
            assert budget.releases == releases[user]
        # the stale journal is compacted away by the recovered ledger
        for _ in range(self.EVERY):
            back.charge("user-0", step)
        model["user-0"] *= step ** self.EVERY
        assert back.stats()["compactions"] == 1
        back.close()
        again = reopen(ledger_dir)
        assert again.view("user-0").cumulative_alpha == model["user-0"]
        again.close()
        assert verify_ledger_dir(ledger_dir)["ok"]


def reference_encode(record: dict) -> bytes:
    """The two-pass encoder format version 1 was defined with: the crc
    of the canonical record, then the canonical record with it added."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = format(zlib.crc32(body.encode("utf-8")), "08x")
    framed = dict(record)
    framed["crc"] = crc
    return (
        json.dumps(framed, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        + b"\n"
    )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


class TestRecordEncoding:
    RECORDS = {
        "charge": {
            "op": "charge", "seq": 7, "user": "al\u00efce", "alpha": "1/2",
            "cum": "1/4", "label": "flu count", "idem": "k-1",
        },
        "result": {
            "op": "result", "seq": 8, "idem": "k-1", "user": "bob",
            "status": 200,
            "response": {"value": 3, "cumulative_alpha": "1/4"},
        },
        "response-with-own-crc": {
            "op": "result", "seq": 9, "idem": "k-2", "user": None,
            "status": 429, "response": {"crc": "deadbeef", "error": "x"},
        },
        "probe": {"op": "probe", "seq": 10},
        "meta": {"version": 1, "seq": 0, "floor": "1/64"},
        "snapshot": {
            "version": 1, "seq": 10, "floor": "1/64",
            "users": {"a": {"cum": "1/2", "releases": 1},
                      "b": {"cum": "3/8", "releases": 2}},
            "replay": {"k-1": {"user": "a", "status": 200,
                               "response": {"value": 1}}},
        },
        "keys-only-before-crc": {"alpha": "1/2", "cum": "1/2", "cr": 1},
        "keys-only-after-crc": {"seq": 1, "op": "x", "crd": [1, "2"]},
        "empty": {},
    }

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_byte_identical_to_the_two_pass_encoder(self, name):
        record = self.RECORDS[name]
        line = _encode_record(record)
        assert line == reference_encode(record)
        if "seq" in record:
            assert durable_ledger._decode_record(line.rstrip()) == record

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(
        st.text(max_size=6).filter(lambda key: key != "crc"),
        JSON_VALUES, max_size=6,
    ))
    def test_byte_identical_on_arbitrary_records(self, record):
        assert _encode_record(record) == reference_encode(record)

    def test_ledger_written_by_the_reference_encoder_reopens(
        self, ledger_dir, monkeypatch
    ):
        monkeypatch.setattr(durable_ledger, "_encode_record", reference_encode)
        old = DurableLedger(ledger_dir, Fraction(1, 64), snapshot_every=0)
        old.charge("a", HALF, idem="k-1")
        old.record_result("k-1", 200, {"value": 4, "crc": "00"})
        old.compact()
        old.charge("a", QUARTER)
        old.charge("b", Fraction(2, 3))
        old.probe()
        old.close()
        written = (ledger_dir / "wal.jsonl").read_bytes()
        monkeypatch.undo()

        assert verify_ledger_dir(ledger_dir)["ok"]
        back = reopen(ledger_dir)
        assert back.view("a").cumulative_alpha == Fraction(1, 8)
        assert back.view("b").cumulative_alpha == Fraction(2, 3)
        replayed = back.charge("a", HALF, idem="k-1")
        assert replayed.outcome == "replayed"
        assert replayed.replay == (200, {"value": 4, "crc": "00"})
        back.charge("b", HALF)
        back.close()
        # the new encoder appends after the old records, byte for byte
        assert (ledger_dir / "wal.jsonl").read_bytes().startswith(written)
        assert verify_ledger_dir(ledger_dir)["ok"]


class TestMultiInstanceSharing:
    def test_two_instances_share_one_budget(self, ledger_dir):
        a = DurableLedger(ledger_dir, Fraction(1, 8))
        b = DurableLedger(ledger_dir, Fraction(1, 8))
        assert a.charge("u", HALF).outcome == "charged"
        assert b.charge("u", HALF).outcome == "charged"
        assert a.charge("u", HALF).outcome == "charged"  # hits 1/8 == floor
        assert b.charge("u", HALF).outcome == "rejected"
        assert a.view("u").cumulative_alpha == Fraction(1, 8)
        assert b.view("u").cumulative_alpha == Fraction(1, 8)
        a.close()
        b.close()

    def test_sibling_sees_compaction(self, ledger_dir):
        a = DurableLedger(ledger_dir)
        b = DurableLedger(ledger_dir)
        a.charge("u", HALF)
        a.compact()
        a.charge("u", HALF)
        assert b.view("u").cumulative_alpha == QUARTER
        a.close()
        b.close()

    def test_concurrent_processes_never_overspend(self, ledger_dir):
        DurableLedger(ledger_dir, Fraction(1, 2) ** 10).close()
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(4) as pool:
            outcomes = pool.map(
                _charge_worker, [str(ledger_dir)] * 4
            )
        charged = sum(outcomes)
        assert charged == 10  # exactly the floor's capacity, no more
        report = verify_ledger_dir(ledger_dir)
        assert report["ok"]
        back = reopen(ledger_dir)
        assert back.view("racer").cumulative_alpha == Fraction(1, 2) ** 10
        back.close()


def _charge_worker(directory: str) -> int:
    ledger = DurableLedger(directory)
    charged = 0
    for _ in range(5):
        if ledger.charge("racer", HALF).outcome == "charged":
            charged += 1
    ledger.close()
    return charged


class TestFaultInjection:
    def test_enospc_surfaces_as_unavailable_and_heals(self, ledger_dir):
        DurableLedger(ledger_dir).close()  # settle meta.json cleanly
        faults = FaultInjector().fail_at("fs.write", after=1)
        ledger = DurableLedger(
            ledger_dir, fs=FaultyFS(faults), faults=faults
        )
        ledger.charge("u", HALF)
        with pytest.raises(LedgerUnavailableError, match="persist"):
            ledger.charge("u", HALF)
        # the failed charge spent nothing and the ledger stays usable:
        assert ledger.view("u").cumulative_alpha == HALF
        assert ledger.charge("u", HALF).outcome == "charged"
        ledger.close()
        back = reopen(ledger_dir)
        assert back.view("u").cumulative_alpha == QUARTER
        back.close()

    def test_short_write_rolls_back_cleanly(self, ledger_dir):
        DurableLedger(ledger_dir).close()
        faults = FaultInjector().short_at("fs.write", after=1, keep=7)
        ledger = DurableLedger(
            ledger_dir, fs=FaultyFS(faults), faults=faults
        )
        ledger.charge("u", HALF)
        with pytest.raises(LedgerUnavailableError):
            ledger.charge("u", HALF)
        assert ledger.charge("u", HALF).outcome == "charged"
        ledger.close()
        report = verify_ledger_dir(ledger_dir)
        assert report["ok"]
        assert report["records"] == 2

    def test_fsync_failure_marks_group_ledger_unavailable(self, ledger_dir):
        DurableLedger(ledger_dir).close()
        faults = FaultInjector().fail_at(
            "fs.fsync", exc=lambda: OSError(5, "injected EIO")
        )
        ledger = DurableLedger(
            ledger_dir, fsync="group", fs=FaultyFS(faults), faults=faults
        )
        ledger.charge("u", HALF)
        with pytest.raises(LedgerUnavailableError, match="group-commit"):
            ledger.sync()
        with pytest.raises(LedgerUnavailableError):
            ledger.charge("u", HALF)
        ledger.close()


@pytest.mark.chaos
class TestKillPointMatrix:
    """The parametrized kill matrix: crash a charge at every stage and
    assert the recovered state is floor-legal and never more permissive
    than reality (satellite 3).

    ``acked`` = how many of the 3 attempted charges were acknowledged
    (the caller saw "charged", so a response may have been released).
    The recovered cumulative must satisfy::

        floor <= recovered <= alpha ** acked      (never more permissive
                                                   than what was released)
        recovered >= alpha ** attempts            (never over-spent)
    """

    CASES = [
        # (kill point arming, acked charges after the crash)
        ("charge.before-append", 2),   # died before touching the disk
        ("fs.write-tear", 2),          # died mid-append: torn record
        ("charge.before-fsync", 2),    # bytes written, ack never sent
        ("charge.after-fsync", 3),     # durable; only the response died
    ]

    @pytest.mark.parametrize("point,acked_max", CASES)
    def test_kill_and_recover(self, tmp_path, point, acked_max):
        directory = tmp_path / "ledger"
        floor = Fraction(1, 2) ** 5
        faults = FaultInjector()
        if point == "fs.write-tear":
            faults.tear_at("fs.write", after=3, keep=10)  # meta.json first
        else:
            faults.crash_at(point, after=2)
        ledger = DurableLedger(
            directory, floor, fsync="always",
            fs=FaultyFS(faults), faults=faults,
        )
        acked = 0
        crashed = False
        for _ in range(3):
            try:
                if ledger.charge("u", HALF).outcome == "charged":
                    acked += 1
            except InjectedCrash:
                crashed = True
                break
        assert crashed, f"kill point {point} never fired"
        # the crashed instance refuses further use (it is "dead"):
        with pytest.raises(LedgerUnavailableError):
            ledger.charge("u", HALF)

        recovered = DurableLedger(directory, floor)
        budget = recovered.view("u")
        cum = Fraction(1) if budget is None else budget.cumulative_alpha
        assert acked <= acked_max
        # never more permissive than what was acknowledged/released:
        assert cum <= HALF ** acked
        # never over-spent relative to everything attempted:
        assert cum >= HALF ** 3
        assert cum >= floor
        # and the recovered ledger keeps enforcing the floor exactly:
        remaining = 0
        while recovered.charge("u", HALF).outcome == "charged":
            remaining += 1
        assert recovered.view("u").cumulative_alpha >= floor
        recovered.close()

    def test_after_fsync_crash_keeps_the_charge(self, tmp_path):
        """The ambiguous case: the charge is durable but the in-memory
        ack died. Recovery must keep it (over-protect, never refill)."""
        directory = tmp_path / "ledger"
        faults = FaultInjector().crash_at("charge.after-fsync")
        ledger = DurableLedger(directory, fsync="always", faults=faults)
        with pytest.raises(InjectedCrash):
            ledger.charge("u", HALF)
        recovered = DurableLedger(directory)
        assert recovered.view("u").cumulative_alpha == HALF
        recovered.close()

    def test_before_append_crash_spends_nothing(self, tmp_path):
        directory = tmp_path / "ledger"
        faults = FaultInjector().crash_at("charge.before-append")
        ledger = DurableLedger(directory, faults=faults)
        with pytest.raises(InjectedCrash):
            ledger.charge("u", HALF)
        recovered = DurableLedger(directory)
        assert recovered.view("u") is None
        recovered.close()
