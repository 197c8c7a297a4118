"""Output checks shared by the serving workloads.

Every check returns a list of failure strings; the caller counts each
one into ``failed``. The references are independent of the code under
test where one exists: served values are range-checked against the
deployment, acknowledged budgets are recomputed here with exact
``Fraction`` arithmetic, and geometric draws are tested against the law
re-derived from ``(n, alpha)``.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

import numpy as np

#: A geometric deployment fails the draw test below this p-value.
CHI_SQUARE_P_MIN = 1e-6
MIN_EXPECTED = 5.0


def pooled_chi_square(rows, values, law: np.ndarray):
    """Pearson chi-square of ``values`` drawn for true results ``rows``
    against the row-stochastic ``law``, pooled over rows.

    The expected count of each output is the sum over draws of its row's
    probability; outputs expected fewer than :data:`MIN_EXPECTED` times
    are merged with their neighbours. Pooling a mixture of multinomials
    makes the test conservative (never more false alarms than a plain
    multinomial test). Returns ``(statistic, dof, p_value)``.
    """
    from scipy.stats import chi2

    rows = np.asarray(rows, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    size = law.shape[1]
    expected = np.bincount(rows, minlength=law.shape[0]) @ law
    observed = np.bincount(values, minlength=size).astype(np.float64)
    buckets_e, buckets_o = [], []
    acc_e = acc_o = 0.0
    for e, o in zip(expected, observed):
        acc_e += e
        acc_o += o
        if acc_e >= MIN_EXPECTED:
            buckets_e.append(acc_e)
            buckets_o.append(acc_o)
            acc_e = acc_o = 0.0
    if buckets_e:
        buckets_e[-1] += acc_e
        buckets_o[-1] += acc_o
    if len(buckets_e) < 2:
        return 0.0, 0, 1.0
    e = np.array(buckets_e)
    o = np.array(buckets_o)
    statistic = float(((o - e) ** 2 / e).sum())
    dof = len(e) - 1
    return statistic, dof, float(chi2.sf(statistic, dof))


def check_responses(statuses, deps, values, deployments) -> tuple:
    """Every 200 value is in ``[0, n]`` of its deployment; returns
    ``(failures, report lines)``. Answers other than 200 or a budget 429
    are failed publishes, which the caller counts itself."""
    statuses = np.asarray(statuses)
    codes, counts = np.unique(statuses, return_counts=True)
    lines = ["status counts (0 = dropped, -1 = raised or unparsable): "
             + str(dict(zip(codes.tolist(), counts.tolist())))]
    ok = statuses == 200
    limits = np.array([d.n for d in deployments])[np.asarray(deps)[ok]]
    vals = np.asarray(values)[ok]
    out = (vals < 0) | (vals > limits)
    failures = []
    if out.any():
        failures.append(f"{int(out.sum())} published values outside [0, n]")
    return failures, lines


def acked_products(users, deps, statuses, deployments, prior=None) -> dict:
    """Exact per-user product of the alphas of acknowledged publishes,
    times each user's ``prior`` cumulative (charged before the run)."""
    products: dict = defaultdict(lambda: Fraction(1), prior or {})
    ok = np.asarray(statuses) == 200
    pairs = np.stack([np.asarray(users)[ok], np.asarray(deps)[ok]], axis=1)
    if not len(pairs):
        return dict(products)
    unique, counts = np.unique(pairs, axis=0, return_counts=True)
    alphas = [d.alpha for d in deployments]
    for (user, dep), k in zip(unique.tolist(), counts.tolist()):
        products[f"u{user}"] *= alphas[dep] ** k
    return dict(products)


def check_ledger(ledger_dir, products: dict, floor: Fraction) -> list[str]:
    """After drain: the WAL verifies, nobody is below the floor, and the
    recovered cumulative of every user equals the product of their acked
    alphas exactly (no acked charge lost, no unacked charge kept)."""
    from repro.release.durable_ledger import DurableLedger, verify_ledger_dir

    failures = []
    below = [u for u, p in products.items() if p < floor]
    if below:
        failures.append(f"{len(below)} users acked below the floor")
    report = verify_ledger_dir(ledger_dir)
    if not report["ok"]:
        failures.append(f"verify_ledger_dir failed: {report['failures'][:3]}")
    ledger = DurableLedger(ledger_dir)
    try:
        mismatched = 0
        for user, product in products.items():
            view = ledger.view(user)
            recovered = Fraction(1) if view is None else view.cumulative_alpha
            if recovered != product:
                mismatched += 1
        extra = ledger.users() - len(products)
    finally:
        ledger.close()
    if mismatched:
        failures.append(f"{mismatched} users' recovered cumulative differs "
                        "from the product of their acked alphas")
    if extra:
        failures.append(f"{extra} users charged without an acked publish")
    return failures


def check_draws(rows, deps, statuses, values, deployments) -> tuple:
    """Pooled chi-square per geometric deployment; returns
    ``(failures, report lines)``."""
    from repro.release.artifacts import ArtifactSpec
    from repro.serving.audit import expected_response_matrix

    failures, lines = [], []
    ok = np.asarray(statuses) == 200
    for index, d in enumerate(deployments):
        if d.kind != "geometric":
            continue
        mask = ok & (np.asarray(deps) == index)
        law = expected_response_matrix(ArtifactSpec("geometric", d.n, d.alpha))
        stat, dof, p = pooled_chi_square(
            np.asarray(rows)[mask], np.asarray(values)[mask], law
        )
        lines.append(f"chi2 geometric n={d.n} alpha={d.alpha}: "
                     f"draws={int(mask.sum())} stat={stat:.1f} dof={dof} "
                     f"p={p:.3g}")
        if p < CHI_SQUARE_P_MIN:
            failures.append(f"geometric n={d.n} alpha={d.alpha} draws fail "
                            f"the chi-square test (p={p:.3g})")
    return failures, lines
