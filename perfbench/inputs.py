"""Seeded workload inputs: deployments, Zipf users, open-loop schedules.

Everything here is a pure function of the ``--seed`` argument; the
program under test only ever sees the generated requests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: Sub-stream tags: each input dimension draws from its own generator, so
#: changing how many of one thing is drawn never shifts another.
_SCHEDULE, _USERS, _DEPLOYMENTS, _ROWS, _ORDER = range(5)


def generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


@dataclass(frozen=True)
class Deployment:
    """One served mechanism, as a request names it."""

    kind: str
    n: int
    alpha: Fraction
    loss: str | None = None
    side: tuple[int, ...] | None = None

    def members(self) -> tuple[int, ...]:
        return self.side if self.side is not None else tuple(range(self.n + 1))

    def fields(self) -> dict:
        """The deployment fields of a ``/publish`` payload."""
        fields = {"n": self.n, "alpha": str(self.alpha)}
        if self.kind != "geometric":
            fields["kind"] = self.kind
            fields["loss"] = self.loss
        if self.side is not None:
            fields["side"] = list(self.side)
        return fields


#: The four deployments both serving workloads publish against.
SERVED = (
    Deployment("geometric", 8, Fraction(1, 2)),
    Deployment("geometric", 40, Fraction(1, 4)),
    Deployment("geometric", 100, Fraction(2, 3)),
    Deployment("optimal", 8, Fraction(1, 2), "absolute", tuple(range(4, 9))),
)


class ZipfUsers:
    """Rank-Zipf popularity over ``users`` users: P(rank k) ∝ k^-s."""

    def __init__(self, users: int, s: float) -> None:
        weights = np.arange(1, users + 1, dtype=np.float64) ** -float(s)
        self.cdf = np.cumsum(weights)
        self.cdf /= self.cdf[-1]
        self.users = int(users)
        self.s = float(s)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` 1-based user ranks."""
        ranks = np.searchsorted(self.cdf, rng.random(size), side="right")
        return np.minimum(ranks, self.users - 1).astype(np.int64) + 1


def poisson_schedule(rate: float, seconds: float, seed: int) -> np.ndarray:
    """Due times (seconds from the start) of an open-loop Poisson
    arrival process at ``rate`` per second over ``seconds``."""
    rng = generator(seed, _SCHEDULE)
    expected = rate * seconds
    size = int(expected + 10 * np.sqrt(expected) + 16)
    due = np.cumsum(rng.exponential(1.0 / rate, size))
    while due[-1] < seconds:  # practically never: ten sigmas of headroom
        more = np.cumsum(rng.exponential(1.0 / rate, size)) + due[-1]
        due = np.concatenate([due, more])
    return due[due < seconds]


class RequestStream:
    """The seeded sequence of ``(user rank, deployment, true result)``.

    Drawn in fixed-size chunks from per-dimension generators, so request
    ``i`` is the same whatever length the stream is consumed to.
    """

    CHUNK = 1 << 16

    def __init__(self, seed: int, users: ZipfUsers, deployments) -> None:
        self.users_dist = users
        self.deployments = tuple(deployments)
        self._members = [np.array(d.members()) for d in self.deployments]
        self._rngs = [
            generator(seed, stream)
            for stream in (_USERS, _DEPLOYMENTS, _ROWS)
        ]
        self.users = np.zeros(0, dtype=np.int64)
        self.deps = np.zeros(0, dtype=np.int64)
        self.rows = np.zeros(0, dtype=np.int64)

    def ensure(self, count: int) -> None:
        """Extend the stream to at least ``count`` requests."""
        while len(self.users) < count:
            users_rng, deps_rng, rows_rng = self._rngs
            users = self.users_dist.sample(users_rng, self.CHUNK)
            deps = deps_rng.integers(0, len(self.deployments), self.CHUNK)
            picks = rows_rng.random(self.CHUNK)
            rows = np.empty(self.CHUNK, dtype=np.int64)
            for index, members in enumerate(self._members):
                mask = deps == index
                rows[mask] = members[
                    (picks[mask] * len(members)).astype(np.int64)
                ]
            self.users = np.concatenate([self.users, users])
            self.deps = np.concatenate([self.deps, deps])
            self.rows = np.concatenate([self.rows, rows])

    def payload(self, i: int) -> dict:
        deployment = self.deployments[int(self.deps[i])]
        payload = deployment.fields()
        payload["user"] = f"u{int(self.users[i])}"
        payload["true_result"] = int(self.rows[i])
        return payload

    def body(self, i: int) -> bytes:
        return json.dumps(self.payload(i), separators=(",", ":")).encode()


def shuffled(items, seed: int) -> list:
    """``items`` in a seeded order."""
    order = generator(seed, _ORDER).permutation(len(items))
    return [items[i] for i in order]
