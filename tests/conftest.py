"""Shared fixtures for the test-suite."""

from __future__ import annotations

import asyncio
from fractions import Fraction

import numpy as np
import pytest

from repro.core.geometric import GeometricMechanism


@pytest.fixture(autouse=True)
def _no_ambient_solve_cache(monkeypatch):
    """Keep a developer's ``REPRO_CACHE_DIR`` out of the test-suite.

    Tests exercise the persistent solve cache only through explicit
    ``solve_cache=``/``cache_dir=`` arguments; an ambient default would
    make solve counts and backend provenance nondeterministic.
    """
    import repro.solvers.cache as solve_cache_module

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setattr(
        solve_cache_module, "_default_cache", solve_cache_module._UNSET
    )


@pytest.fixture(autouse=True)
def _fail_on_silent_loop_errors(monkeypatch):
    """Fail a test during which asyncio's default exception handler ran.

    An exception raised in a loop callback, or stored in a future nobody
    retrieved, is only logged ("Exception in callback ...") — nothing
    awaits it, so the test would pass while whatever the callback was
    serving stays stranded.
    """
    fired: list[str] = []
    default = asyncio.BaseEventLoop.default_exception_handler

    def record(loop, context):
        fired.append(context.get("message", "unhandled event-loop error"))
        default(loop, context)

    monkeypatch.setattr(
        asyncio.BaseEventLoop, "default_exception_handler", record
    )
    yield
    if fired:
        pytest.fail(f"asyncio default exception handler ran: {fired}")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(20100115)  # the paper's arXiv date


@pytest.fixture
def alpha_quarter() -> Fraction:
    return Fraction(1, 4)


@pytest.fixture
def alpha_half() -> Fraction:
    return Fraction(1, 2)


@pytest.fixture
def g3_quarter() -> GeometricMechanism:
    """The paper's Table 1 geometric mechanism ``G_{3,1/4}``."""
    return GeometricMechanism(3, Fraction(1, 4))


@pytest.fixture
def g3_half() -> GeometricMechanism:
    """The Appendix B geometric mechanism ``G_{3,1/2}``."""
    return GeometricMechanism(3, Fraction(1, 2))


SMALL_ALPHAS = [Fraction(1, 5), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)]
SMALL_SIZES = [1, 2, 3, 4]
