"""The benchmark's three workloads and the known values each pass checks.

A workload has a set-up step (build the `TriGrid`s it uses) and a pass: a
fixed body of work whose outputs are checked against known values.  Every
pass of a run uses the same inputs, made from the run's seed, so pass
times within a run are comparable and their median is reported.

Pass sizes are cut from the paper's claim ranges so that a pass takes
about 1.5-3.5 s on a 2-CPU machine and a run holds several passes:

- sweep: the three-stage search sweep at n = 15, 30, 45, 60 (the claim is
  n <= 60), the lion column sweep at n = 10, 20, 30, 40 (claim n <= 40)
  and 250 random lion walks at n <= 5 (the acceptance test uses 1000).
- scan: the full claim-size body, which fits: the exhaustive n = 5 table,
  10^5 samples at n = 9 and at n = 20, and 10^5 compressed sets at n = 9.
- bounds: `search bounds` up to n = 24 (the claim table goes to 50; every
  order there tries every budget, about 7 s at 30) and the certificate at
  floor(n/sqrt(2)) for n = 35, 40, 45, 50 (claim n <= 50).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

SWEEP_SEARCH_ORDERS = (15, 30, 45, 60)
SWEEP_LION_ORDERS = (10, 20, 30, 40)
SWEEP_WALKS = 250
WALK_MAX_ORDER = 5

SCAN_EXHAUSTIVE_ORDER = 5
SCAN_CLI_SAMPLED_ORDER = 9
SCAN_SAMPLED_ORDER = 20
SCAN_SAMPLES = 100_000
SCAN_COMPRESS_ORDER = 9
SCAN_COMPRESS_SETS = 100_000
SCAN_CROSS_CHECK_SETS = 250

BOUNDS_N_MAX = 24
BOUNDS_EXACT_UP_TO = 4
BOUNDS_CERT_ORDERS = (35, 40, 45, 50)
BOUNDS_LION_MAX = 3
BOUNDS_DIAGONAL_ORDERS = (1, 2, 3, 4)

# Known values: In(T_1..4) and l(T_1), l(T_2).
EXPECTED_INSPECTION = {1: 3, 2: 4, 3: 4, 4: 5}
EXPECTED_LION = {1: 2, 2: 3}


class Checks:
    """Counts verifications attempted and keeps a description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def equal(self, actual, expected, what: str) -> None:
        self.attempted += 1
        if actual != expected:
            self.failures.append(f"{what}: got {actual!r}, expected {expected!r}")


def cli_report(tg, argv: list[str]) -> tuple[int, dict | None]:
    """Run `trigrid.cli.main` in-process; return its exit code and JSON report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = tg.cli.main(argv)
    try:
        return rc, json.loads(out.getvalue())
    except json.JSONDecodeError:
        return rc, None


# sweep ---------------------------------------------------------------------


def sweep_pass(tg, grids: dict, seed: int, checks: Checks) -> None:
    for n in SWEEP_SEARCH_ORDERS:
        g = grids[n]
        trace = tg.three_stage_strategy(g)
        checks.expect(tg.verify_trace(g, trace), f"search sweep does not clear T_{n}")
        text = trace.to_json()
        back = tg.SearchTrace.from_json_obj(json.loads(text))
        checks.expect(
            [s.bits for s in back.searches] == [s.bits for s in trace.searches]
            and [d.to_hex() for d in back.dirty_after] == json.loads(text)["dirty_checksums"],
            f"search trace JSON round trip differs at T_{n}",
        )
    for n in SWEEP_LION_ORDERS:
        g = grids[n]
        trace = tg.column_sweep_strategy(g)
        back = tg.LionTrace.from_json_obj(json.loads(trace.to_json()))
        checks.expect(
            back.positions == trace.positions
            and [c.bits for c in back.contaminated] == [c.bits for c in trace.contaminated],
            f"lion trace JSON round trip differs at T_{n}",
        )
        coupled = tg.couple_to_search(back)
        checks.expect(
            tg.verify_trace(g, coupled) and coupled.max_search_size() <= coupled.budget,
            f"coupled search of the column sweep does not clear T_{n}",
        )
        checks.expect(tg.claim_check(back), f"claim check fails on the column sweep of T_{n}")
    rng = random.Random(seed)
    for i in range(SWEEP_WALKS):
        n = rng.randrange(1, WALK_MAX_ORDER + 1)
        walk = tg.random_legal_walk(grids[n], rng.randrange(1, n + 3), rng.randrange(0, 14), rng)
        checks.expect(tg.claim_check(walk), f"claim check fails on random walk {i}")


# scan ----------------------------------------------------------------------


def scan_pass(tg, grids: dict, seed: int, checks: Checks) -> None:
    rc, report = cli_report(
        tg, ["verify-isoperimetry", "--n", str(SCAN_EXHAUSTIVE_ORDER), "--exhaustive", "--threads", "1"]
    )
    checks.equal(rc, 0, "exhaustive verify-isoperimetry exit code")
    verified = report["payload"]["verified"] if report else []
    checks.expect(
        len(verified) == grids[SCAN_EXHAUSTIVE_ORDER].vertex_count + 1 and all(verified),
        f"exhaustive table at n = {SCAN_EXHAUSTIVE_ORDER} is not all_verified",
    )
    rc, report = cli_report(
        tg,
        ["verify-isoperimetry", "--n", str(SCAN_CLI_SAMPLED_ORDER), "--samples", str(SCAN_SAMPLES),
         "--seed", str(seed), "--threads", "1"],
    )
    checks.equal(rc, 0, "sampled verify-isoperimetry exit code")
    payload = report["payload"] if report else {}
    checks.equal(payload.get("violations"), [], f"sampled violations at n = {SCAN_CLI_SAMPLED_ORDER}")
    checks.equal(payload.get("checked"), SCAN_SAMPLES, f"sets checked at n = {SCAN_CLI_SAMPLED_ORDER}")

    sampled = tg.sampled_check(grids[SCAN_SAMPLED_ORDER], SCAN_SAMPLES, seed)
    checks.equal(sampled.violations, [], f"sampled violations at n = {SCAN_SAMPLED_ORDER}")
    checks.equal(sampled.checked, SCAN_SAMPLES, f"sets checked at n = {SCAN_SAMPLED_ORDER}")

    g = grids[SCAN_COMPRESS_ORDER]
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 1 << g.vertex_count, size=SCAN_COMPRESS_SETS, dtype=np.uint64)
    mat = tg.bulk.subsets_from_ids(g, ids)
    before = tg.bulk.neighborhood_sizes(g, mat)
    sample = rng.choice(SCAN_COMPRESS_SETS, size=SCAN_CROSS_CHECK_SETS, replace=False)
    for axis in (1, 2):
        for side in ("left", "right"):
            out = tg.bulk.compress(g, mat, axis, side)
            grown = int((tg.bulk.neighborhood_sizes(g, out) > before).sum())
            checks.equal(grown, 0, f"sets whose neighbourhood grew under {side} compression, axis {axis}")
            scalar_op = tg.compress_left if side == "left" else tg.compress_right
            scalar = [scalar_op(g, tg.VertexSet.from_bits(g, int(ids[i])), axis).bits for i in sample]
            checks.expect(
                tg.bulk.pack_rows(out[sample]) == scalar,
                f"batch {side} compression, axis {axis}, differs from scalar",
            )


# bounds --------------------------------------------------------------------


def check_lion_numbers(tg, grids: dict, checks: Checks) -> None:
    for n, expected in EXPECTED_LION.items():
        checks.equal(tg.exact_lion_number(grids[n], BOUNDS_LION_MAX), expected, f"l(T_{n})")


def bounds_pass(tg, grids: dict, seed: int, checks: Checks) -> None:
    rc, report = cli_report(
        tg,
        ["search", "bounds", "--n-max", str(BOUNDS_N_MAX), "--exact-up-to", str(BOUNDS_EXACT_UP_TO),
         "--seed", str(seed), "--threads", "1"],
    )
    checks.equal(rc, 0, "search bounds exit code")
    rows = report["payload"]["rows"] if report else []
    checks.equal(len(rows), BOUNDS_N_MAX, "bounds rows")
    for row in rows:
        checks.expect(
            row["lower"] < row["upper"] and row["upper_verified"],
            f"bounds row n = {row['n']}: lower {row['lower']}, upper {row['upper']}, "
            f"upper_verified {row['upper_verified']}",
        )
    exact = {row["n"]: row["exact"] for row in rows if row["n"] in EXPECTED_INSPECTION}
    for n, expected in EXPECTED_INSPECTION.items():
        checks.equal(exact.get(n), expected, f"In(T_{n})")
    for n in BOUNDS_CERT_ORDERS:
        m = math.isqrt(n * n // 2)  # floor(n / sqrt(2))
        checks.expect(tg.lower_bound_certificate(grids[n], m), f"certificate In(T_{n}) > {m} fails")
    check_lion_numbers(tg, grids, checks)
    for n in BOUNDS_DIAGONAL_ORDERS:
        checks.expect(tg.diagonal_segment_check(grids[n]).ok, f"diagonal segment check fails at n = {n}")


@dataclass(frozen=True)
class Workload:
    name: str
    orders: tuple  # the orders n of the TriGrids built at set-up
    run_pass: Callable
    params: dict

    def setup(self, tg) -> dict:
        return {n: tg.TriGrid(n) for n in self.orders}


def orders(*groups) -> tuple:
    return tuple(sorted({n for group in groups for n in group}))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep", orders(SWEEP_SEARCH_ORDERS, SWEEP_LION_ORDERS, range(1, WALK_MAX_ORDER + 1)),
            sweep_pass,
            {"search_orders": SWEEP_SEARCH_ORDERS, "lion_orders": SWEEP_LION_ORDERS,
             "walks": SWEEP_WALKS, "walk_max_order": WALK_MAX_ORDER},
        ),
        Workload(
            "scan",
            orders((SCAN_EXHAUSTIVE_ORDER, SCAN_CLI_SAMPLED_ORDER, SCAN_SAMPLED_ORDER, SCAN_COMPRESS_ORDER)),
            scan_pass,
            {"exhaustive_order": SCAN_EXHAUSTIVE_ORDER, "cli_sampled_order": SCAN_CLI_SAMPLED_ORDER,
             "sampled_order": SCAN_SAMPLED_ORDER, "samples": SCAN_SAMPLES,
             "compress_order": SCAN_COMPRESS_ORDER, "compress_sets": SCAN_COMPRESS_SETS,
             "cross_check_sets": SCAN_CROSS_CHECK_SETS},
        ),
        Workload(
            "bounds", orders(BOUNDS_CERT_ORDERS, EXPECTED_LION, BOUNDS_DIAGONAL_ORDERS),
            bounds_pass,
            {"n_max": BOUNDS_N_MAX, "exact_up_to": BOUNDS_EXACT_UP_TO,
             "certificate_orders": BOUNDS_CERT_ORDERS, "lion_max": BOUNDS_LION_MAX,
             "diagonal_orders": BOUNDS_DIAGONAL_ORDERS},
        ),
    )
}
