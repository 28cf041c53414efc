"""Command-line entry point.

Exit codes: 0 success, 1 verification failure (an unverified table row, a
trace that does not clear, a failed containment check), 2 usage or input
validation errors, 3 I/O errors.  JSON reports have sorted keys and are
deterministic given the configuration, except for the duration field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Any

from . import __version__
from .core import TriGrid, VertexSet, boundary, csv_text, render_ascii
from .compress import compress_left, compress_right
from .isoperimetry import EXHAUSTIVE_DEFAULT_LIMIT, exhaustive_min_boundary, sampled_check
from .lions import (
    LionTrace,
    claim_check,
    column_sweep_strategy,
    couple_to_search,
    exact_lion_number,
)
from .ordering import final_segment, initial_segment
from .search import (
    exact_inspection_number,
    inspection_bounds_report,
    three_stage_strategy,
    verify_trace,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3


@dataclass
class RunConfig:
    command: str
    params: dict
    fmt: str = "json"
    out: str | None = None
    seed: int = 0
    threads: int = 1


@dataclass
class Report:
    command: str
    config: dict
    payload: Any
    ok: bool
    duration_s: float
    version: str = __version__
    text: str | None = None  # csv/ascii rendering, where the command has one

    def to_json(self) -> str:
        # Shallow on purpose: asdict would deep-copy a payload holding a whole trace.
        obj = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "text"}
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _simulated(trace, ok: bool, render: bool, marked, dirty, glyph: str):
    """Run result for a simulated trace.  With render, one ASCII frame per
    turn from the marked and dirty sets: glyph on marked vertices, R on
    dirty ones, G elsewhere."""
    payload = trace.to_json_obj()
    payload["cleared"] = ok
    if not render:
        return payload, ok, None
    payload["frames"] = [
        render_ascii(trace.grid, [(d, "R"), (m, glyph)], "G") for m, d in zip(marked, dirty)
    ]
    return payload, ok, "\n".join(payload["frames"])


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _verify_isoperimetry(p: dict, config: RunConfig):
    grid = TriGrid(p["n"])
    if p["exhaustive"]:
        table = exhaustive_min_boundary(grid, limit=p["limit"], workers=config.threads)
        return table.to_json_obj(), table.all_verified(), table.to_csv()
    report = sampled_check(grid, p["samples"], config.seed)
    return report.to_json_obj(), report.ok, None


def _packing(p: dict, config: RunConfig):
    grid = TriGrid(p["n"])
    segment = initial_segment if p["kind"] == "initial" else final_segment
    seg = segment(grid, p["k"])
    payload = {**p, "set": seg.to_pairs(), "boundary_size": len(boundary(grid, seg))}
    return payload, True, None


def _compress(p: dict, config: RunConfig):
    grid = TriGrid(p["n"])
    vset = VertexSet.from_pairs(grid, _load_json(p["set"]))
    op = compress_left if p["side"] == "left" else compress_right
    result = op(grid, vset, p["axis"])
    payload = {"n": grid.n, "axis": p["axis"], "side": p["side"], "input": vset.to_pairs()}
    return {**payload, "output": result.to_pairs()}, True, None


def _search_simulate(p: dict, config: RunConfig):
    grid = TriGrid(p["n"])
    trace = three_stage_strategy(grid)
    ok = verify_trace(grid, trace)
    return _simulated(trace, ok, p["render"], trace.searches, trace.dirty_after, "Y")


def _search_exact(p: dict, config: RunConfig):
    value = exact_inspection_number(TriGrid(p["n"]), p["max_m"])
    return {**p, "inspection_number": "unknown" if value is None else value}, True, None


def _search_bounds(p: dict, config: RunConfig):
    report = inspection_bounds_report(p["n_max"], exact_up_to=p["exact_up_to"])
    rows = [r.to_json_obj() for r in report]
    ok = all(r["upper_verified"] and r["lower"] < r["upper"] for r in rows)
    return {"rows": rows}, ok, csv_text(rows)


def _lions_simulate(p: dict, config: RunConfig):
    grid = TriGrid(p["n"])
    trace = column_sweep_strategy(grid)
    occupied = (VertexSet.from_bits(grid, m) for m in trace.occupied)
    return _simulated(trace, trace.is_winning(), p["render"], occupied, trace.contaminated, "L")


def _lions_couple(p: dict, config: RunConfig):
    trace = LionTrace.from_json_obj(_load_json(p["trace"]))
    search_trace = couple_to_search(trace)
    claim_holds = claim_check(trace)
    ok = claim_holds and verify_trace(trace.grid, search_trace)
    return {**search_trace.to_json_obj(), "claim_holds": claim_holds}, ok, None


def _lions_exact(p: dict, config: RunConfig):
    value = exact_lion_number(TriGrid(p["n"]), p["max_l"])
    return {**p, "lion_number": "unknown" if value is None else value}, True, None


def _render(p: dict, config: RunConfig):
    grid = TriGrid(p["n"])
    layers = [(VertexSet.from_pairs(grid, _load_json(p["set"])), "#")] if p["set"] else []
    text = render_ascii(grid, layers, row_n_top=not p["bottom_up"])
    return {"n": grid.n, "ascii": text}, True, text


# Command string -> (run, has_text).  run(params, config) returns (payload,
# ok, text), text being the csv/ascii rendering; has_text(params) says
# beforehand whether run gives one, so an unsupported --format is refused
# before the command does any work.
COMMANDS = {
    "verify-isoperimetry": (_verify_isoperimetry, lambda p: p["exhaustive"]),
    "packing": (_packing, lambda p: False),
    "compress": (_compress, lambda p: False),
    "search simulate": (_search_simulate, lambda p: p["render"]),
    "search exact": (_search_exact, lambda p: False),
    "search bounds": (_search_bounds, lambda p: True),
    "lions simulate": (_lions_simulate, lambda p: p["render"]),
    "lions couple": (_lions_couple, lambda p: False),
    "lions exact": (_lions_exact, lambda p: False),
    "render": (_render, lambda p: True),
}


def dispatch(config: RunConfig) -> Report:
    """Run one command; raises TraceError/ValueError for bad inputs."""
    if config.command not in COMMANDS:
        raise ValueError(f"unknown command {config.command!r}")
    run, has_text = COMMANDS[config.command]
    if config.fmt != "json" and not has_text(config.params):
        raise ValueError(f"--format {config.fmt} is not available for {config.command}")
    cpus = os.cpu_count() or 1
    if not 1 <= config.threads <= cpus:
        raise ValueError(f"--threads must be in 1..{cpus}, got {config.threads}")
    if config.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {config.seed}")
    t0 = time.perf_counter()
    payload, ok, text = run(config.params, config)
    return Report(
        command=config.command,
        config={
            "params": config.params,
            "format": config.fmt,
            "seed": config.seed,
            "threads": config.threads,
        },
        payload=payload,
        ok=ok,
        duration_s=time.perf_counter() - t0,
        text=text,
    )


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv", "ascii"), default="json")
    sub.add_argument("--out", help="write the report to this path instead of stdout")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threads", type=int, default=1, help="process workers, 1..CPU count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigrid",
        description="Isoperimetric minima and pursuit-evasion games on triangular grids",
    )
    parser.add_argument("--version", action="version", version=f"trigrid {__version__}")
    top = parser.add_subparsers(dest="command", required=True)

    sp = top.add_parser("verify-isoperimetry", help="check the packing-minimum table")
    sp.add_argument("--n", type=int, required=True)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--samples", type=int)
    sp.add_argument(
        "--limit", type=int, default=EXHAUSTIVE_DEFAULT_LIMIT, help="exhaustive order cap"
    )
    _add_common(sp)

    sp = top.add_parser("packing", help="emit a segment packing and its boundary size")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--kind", choices=("initial", "final"), required=True)
    _add_common(sp)

    sp = top.add_parser("compress", help="apply a section compression to a set file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--axis", type=int, choices=(1, 2), required=True)
    sp.add_argument("--side", choices=("left", "right"), required=True)
    sp.add_argument("--set", required=True, help="JSON file of [v1, v2] pairs")
    _add_common(sp)

    search = top.add_parser("search", help="zero-visibility search game")
    ssub = search.add_subparsers(dest="subcommand", required=True)
    sp = ssub.add_parser("simulate", help="emit and verify the three-stage sweep")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--render", action="store_true")
    _add_common(sp)
    sp = ssub.add_parser("exact", help="exact inspection number at tiny order")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-m", type=int, required=True)
    _add_common(sp)
    sp = ssub.add_parser("bounds", help="per-order bound table")
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--exact-up-to", type=int, default=1)
    _add_common(sp)

    lions = top.add_parser("lions", help="lions-and-contamination game")
    lsub = lions.add_subparsers(dest="subcommand", required=True)
    sp = lsub.add_parser("simulate", help="emit and verify the column sweep")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--render", action="store_true")
    _add_common(sp)
    sp = lsub.add_parser("couple", help="derive a search trace from a lion trace")
    sp.add_argument("--trace", required=True, help="lion trace JSON file")
    _add_common(sp)
    sp = lsub.add_parser("exact", help="exact lion number at tiny order")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-l", type=int, required=True)
    _add_common(sp)

    sp = top.add_parser("render", help="ASCII rendering of the grid or a set file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--set", help="JSON file of [v1, v2] pairs")
    sp.add_argument("--bottom-up", action="store_true", help="row 0 on the first line")
    _add_common(sp)

    return parser


_SHARED = ("command", "subcommand", "format", "out", "seed", "threads")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    ns = vars(args)
    command = " ".join(filter(None, (ns["command"], ns.get("subcommand"))))
    params = {k: v for k, v in ns.items() if k not in _SHARED}
    if command == "verify-isoperimetry" and params["samples"] is None:
        # Neither mode flag given: exhaustive where it is cheap, else sampled.
        params["samples"] = 10000
        params["exhaustive"] = params["exhaustive"] or params["n"] <= EXHAUSTIVE_DEFAULT_LIMIT
    return RunConfig(
        command=command,
        params=params,
        fmt=args.format,
        out=args.out,
        seed=args.seed,
        threads=args.threads,
    )


def _emit(report: Report, config: RunConfig) -> int:
    body = report.to_json() if config.fmt == "json" else report.text
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            print(f"error: cannot write {config.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(body)
    return EXIT_OK if report.ok else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args)
    try:
        report = dispatch(config)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # TraceError and JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return _emit(report, config)


if __name__ == "__main__":
    sys.exit(main())
