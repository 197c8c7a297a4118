"""Tests for the ledger books' flat per-user records.

A memory book and a :class:`DurableLedger` share one charge path over
one record per user (cumulative guarantee, release count, last alpha).
These tests pin that the two books decide identically, that the
durable book reopens to the same budgets, that racing threads never
overspend, and that a book's memory stays bounded per user however
many times each user charges.
"""

import tempfile
import threading
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.release.durable_ledger import DurableLedger, MemoryLedgerBook

HALF = Fraction(1, 2)


@pytest.fixture(params=["memory", "durable"])
def book(request, tmp_path):
    def make(floor):
        if request.param == "memory":
            return MemoryLedgerBook(floor)
        return DurableLedger(tmp_path / "ledger", floor, fsync="off")

    return make


def race(target, chunks):
    barrier = threading.Barrier(len(chunks))

    def racer(chunk):
        barrier.wait()
        target(chunk)

    threads = [threading.Thread(target=racer, args=(c,)) for c in chunks]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestRacers:
    def test_racers_admit_exactly_k_under_the_floor(self, book):
        # Floor (1/2)^K admits exactly K alpha=1/2 charges; 8 threads x K
        # attempts must admit exactly K whatever the interleaving.
        K = 16
        ledger = book(HALF ** K)
        outcomes = []

        def charge_k(_chunk):
            for _ in range(K):
                outcomes.append(ledger.charge("u", HALF).outcome)

        race(charge_k, [None] * 8)
        assert outcomes.count("charged") == K
        budget = ledger.view("u")
        assert budget.cumulative_alpha == HALF ** K == budget.floor
        assert budget.releases == K

    def test_mixed_alphas_compose_to_the_admitted_product(self, book):
        ledger = book(Fraction(1, 64))
        alphas = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)] * 20
        admitted = []

        def charge_all(chunk):
            for alpha in chunk:
                if ledger.charge("u", alpha).charged:
                    admitted.append(alpha)

        race(charge_all, [alphas[i::6] for i in range(6)])
        product = Fraction(1)
        for alpha in admitted:
            product *= alpha
        budget = ledger.view("u")
        assert budget.cumulative_alpha == product >= ledger.floor
        assert budget.releases == len(admitted)


class TestRecords:
    def test_float_alpha_keeps_the_cumulative_exact(self, book):
        decision = book(Fraction(1, 8)).charge("u", 0.5)
        assert decision.cumulative_alpha == Fraction(1, 2)
        assert type(decision.cumulative_alpha) is Fraction

    def test_replay_lookup_never_creates_a_user(self):
        ledger = MemoryLedgerBook(Fraction(1, 8))
        ledger.record_result("k", 200, {"value": 1})  # key with no user
        decision = ledger.charge("ghost", HALF, idem="k")
        assert decision.outcome == "replayed"
        assert ledger.users() == 0
        assert ledger.view("ghost") is None

    def test_views_report_the_last_alpha_and_length(self):
        ledger = MemoryLedgerBook(Fraction(1, 16))
        ledger.charge("u", HALF)
        ledger.charge("u", Fraction(1, 4))
        (budget,) = ledger.budgets()
        assert budget.last_alpha == Fraction(1, 4)
        assert len(budget) == budget.releases == 2
        assert budget.remaining_alpha == Fraction(1, 2)

    def test_durable_book_owns_the_methods_tracing_wraps(self):
        for name in ("charge", "sync", "_compact_locked"):
            assert name in vars(DurableLedger)

    def test_memory_stays_bounded_per_user(self):
        # Each user costs one small record; repeat charges replace the
        # record's fields instead of growing a history.
        users = [f"user-{i}" for i in range(10_000)]
        ledger = MemoryLedgerBook(HALF ** 8)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for user in users:
                ledger.charge(user, HALF)
            first = tracemalloc.get_traced_memory()[0]
            for _ in range(7):
                for user in users:
                    ledger.charge(user, HALF)
            last = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ledger.view(users[0]).releases == 8
        assert (first - base) / len(users) <= 300
        assert (last - first) / (7 * len(users)) < 8


ALPHAS = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1, 3)]
OPS = st.one_of(
    st.tuples(
        st.just("charge"),
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(ALPHAS),
        st.none() | st.sampled_from(["k0", "k1", "k2"]),
    ),
    st.tuples(
        st.just("result"),
        st.sampled_from(["k0", "k1", "k2"]),
        st.integers(200, 201),
    ),
    st.tuples(st.just("compact")),
)


class TestMemoryAndDurableAgree:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(OPS, max_size=40),
           floor=st.sampled_from([0, Fraction(1, 64), Fraction(1, 9)]))
    def test_same_decisions_and_budgets_after_reopen(self, ops, floor):
        memory = MemoryLedgerBook(floor)
        admitted: dict[str, list] = {}
        with tempfile.TemporaryDirectory() as directory:
            durable = DurableLedger(
                directory, floor, fsync="off", snapshot_every=3
            )
            for op in ops:
                if op[0] == "charge":
                    _, user, alpha, idem = op
                    expected = memory.charge(user, alpha, idem=idem)
                    assert durable.charge(user, alpha, idem=idem) == expected
                    if expected.charged:
                        admitted.setdefault(user, []).append(alpha)
                elif op[0] == "result":
                    _, idem, status = op
                    memory.record_result(idem, status, {"value": status})
                    durable.record_result(idem, status, {"value": status})
                else:
                    durable.compact()
            live = {b.user: b for b in memory.budgets()}
            assert durable.budgets() == list(live.values())
            durable.close()
            reopened = DurableLedger(directory)
            try:
                recovered = reopened.budgets()
                for idem in ("k0", "k1", "k2"):
                    assert reopened.charge("a", HALF, idem=idem) == (
                        memory.charge("a", HALF, idem=idem)
                    )
            finally:
                reopened.close()
        assert sorted(b.user for b in recovered) == sorted(live)
        for budget in recovered:
            expected = live[budget.user]
            product = Fraction(1)
            for alpha in admitted[budget.user]:
                product *= alpha
            assert budget.cumulative_alpha == expected.cumulative_alpha
            assert budget.cumulative_alpha == product
            assert budget.releases == expected.releases
            assert budget.floor == expected.floor
            # A snapshot keeps no last alpha; the journal does.
            assert budget.last_alpha in (None, expected.last_alpha)
