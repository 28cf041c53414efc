"""Command-line entry point: each command is one COMMANDS entry, and
build_parser builds the whole argparse tree from that table.  COMMON is
the one list of the options every command takes: each one's dest is a
RunConfig field, and a report's config holds all of them but --out.

Exit codes: 0 success, 1 verification failure (an unverified table row, a
lion trace that does not clear, which lions couple still couples, a failed
containment check), 2 usage or input validation errors, 3 I/O errors.  JSON
reports have sorted keys and are deterministic given the configuration,
except for the duration field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, NamedTuple

from . import __version__
from .core import TriGrid, VertexSet, as_int, boundary, csv_text, render_ascii
from .compress import compress_left, compress_right
from .isoperimetry import EXHAUSTIVE_DEFAULT_LIMIT, exhaustive_min_boundary, sampled_check
from .lions import (
    LionTrace,
    claim_check,
    column_sweep_strategy,
    coupled_searches,
    exact_lion_number,
)
from .ordering import final_segment, initial_segment
from .search import (
    SearchTrace,
    exact_inspection_number,
    inspection_bounds_report,
    three_stage_strategy,
    verify_trace,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

# search/lions simulate hold every turn's state, so their memory grows
# about as n^4: about 150 MB at n = 100 (370 MB with --render).
SIMULATE_ORDER_LIMIT = 100


@dataclass
class RunConfig:
    command: str
    params: dict
    format: str = "json"
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
    as_int(p["limit"], "limit", 1)  # in both modes, though only the exhaustive scan reads it
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
    grid = TriGrid(as_int(p["n"], "simulated grid order", 1, SIMULATE_ORDER_LIMIT))
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
    grid = TriGrid(as_int(p["n"], "simulated grid order", 1, SIMULATE_ORDER_LIMIT))
    trace = column_sweep_strategy(grid)
    occupied = (VertexSet.from_bits(grid, m) for m in trace.occupied)
    return _simulated(trace, trace.is_winning(), p["render"], occupied, trace.contaminated, "L")


def _lions_couple(p: dict, config: RunConfig):
    trace = LionTrace.from_json_obj(_load_json(p["trace"]))
    search_trace = SearchTrace.from_searches(trace.grid, 2 * trace.lions, coupled_searches(trace))
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


class Command(NamedTuple):
    """One CLI command.  run(params, config) returns (payload, ok, text), text
    being the csv/ascii rendering; has_text(params) says beforehand whether run
    gives one, so an unsupported --format is refused before any work.  args
    are (flag, add_argument keywords) pairs; a list of pairs is a mutually
    exclusive group."""

    run: Callable[[dict, RunConfig], tuple]
    help: str
    args: tuple
    has_text: Callable[[dict], bool] = lambda p: False


_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true"}

# Command string -> Command; a two-word command sits under its group in GROUPS.
COMMANDS = {
    "verify-isoperimetry": Command(_verify_isoperimetry, "check the packing-minimum table", (
        ("--n", _INT),
        [("--exhaustive", _FLAG), ("--samples", {"type": int})],
        ("--limit", {"type": int, "default": EXHAUSTIVE_DEFAULT_LIMIT,
                     "help": "exhaustive order cap"}),
    ), lambda p: p["exhaustive"]),
    "packing": Command(_packing, "emit a segment packing and its boundary size", (
        ("--n", _INT),
        ("--k", _INT),
        ("--kind", {"choices": ("initial", "final"), "required": True}),
    )),
    "compress": Command(_compress, "apply a section compression to a set file", (
        ("--n", _INT),
        ("--axis", {"type": int, "choices": (1, 2), "required": True}),
        ("--side", {"choices": ("left", "right"), "required": True}),
        ("--set", {"required": True, "help": "JSON file of [v1, v2] pairs"}),
    )),
    "search simulate": Command(_search_simulate, "emit and verify the three-stage sweep", (
        ("--n", _INT),
        ("--render", _FLAG),
    ), lambda p: p["render"]),
    "search exact": Command(_search_exact, "exact inspection number at tiny order", (
        ("--n", _INT),
        ("--max-m", _INT),
    )),
    "search bounds": Command(_search_bounds, "per-order bound table", (
        ("--n-max", _INT),
        ("--exact-up-to", {"type": int, "default": 1}),
    ), lambda p: True),
    "lions simulate": Command(_lions_simulate, "emit and verify the column sweep", (
        ("--n", _INT),
        ("--render", _FLAG),
    ), lambda p: p["render"]),
    "lions couple": Command(_lions_couple, "derive a search trace from a lion trace", (
        ("--trace", {"required": True, "help": "lion trace JSON file"}),
    )),
    "lions exact": Command(_lions_exact, "exact lion number at tiny order", (
        ("--n", _INT),
        ("--max-l", _INT),
    )),
    "render": Command(_render, "ASCII rendering of the grid or a set file", (
        ("--n", _INT),
        ("--set", {"help": "JSON file of [v1, v2] pairs"}),
        ("--bottom-up", {"action": "store_true", "help": "row 0 on the first line"}),
    ), lambda p: True),
}

GROUPS = {"search": "zero-visibility search game", "lions": "lions-and-contamination game"}

# The arguments every command takes after its own; each dest is a RunConfig field.
COMMON = (
    ("--format", {"choices": ("json", "csv", "ascii"), "default": "json"}),
    ("--out", {"help": "write the report to this path instead of stdout"}),
    ("--seed", {"type": int, "default": 0}),
    ("--threads", {"type": int, "default": 1, "help": "process workers, 1..CPU count"}),
)


def dispatch(config: RunConfig) -> Report:
    """Run one command; raises TraceError/ValueError for bad inputs."""
    if config.command not in COMMANDS:
        raise ValueError(f"unknown command {config.command!r}")
    command = COMMANDS[config.command]
    if config.format != "json" and not command.has_text(config.params):
        raise ValueError(f"--format {config.format} is not available for {config.command}")
    as_int(config.threads, "--threads", 1, os.cpu_count() or 1)
    as_int(config.seed, "--seed", 0)
    t0 = time.perf_counter()
    payload, ok, text = command.run(config.params, config)
    return Report(
        command=config.command,
        # out is where the report goes, not part of the run.
        config={k: v for k, v in asdict(config).items() if k not in ("command", "out")},
        payload=payload,
        ok=ok,
        duration_s=time.perf_counter() - t0,
        text=text,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigrid",
        description="Isoperimetric minima and pursuit-evasion games on triangular grids",
    )
    parser.add_argument("--version", action="version", version=f"trigrid {__version__}")
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for name, command in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subparsers:
            group_parser = subparsers[""].add_parser(group, help=GROUPS[group])
            subparsers[group] = group_parser.add_subparsers(dest="subcommand", required=True)
        sp = subparsers[group].add_parser(leaf, help=command.help)
        for arg in command.args + COMMON:
            exclusive = isinstance(arg, list)
            target = sp.add_mutually_exclusive_group() if exclusive else sp
            for flag, kwargs in arg if exclusive else [arg]:
                target.add_argument(flag, **kwargs)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    params = vars(args)
    command = " ".join(filter(None, (params.pop("command"), params.pop("subcommand", None))))
    common = {flag[2:]: params.pop(flag[2:]) for flag, _ in COMMON}
    if command == "verify-isoperimetry" and params["samples"] is None:
        # Neither mode flag given: exhaustive where it is cheap, else sampled.
        params["samples"] = 10000
        params["exhaustive"] = params["exhaustive"] or params["n"] <= EXHAUSTIVE_DEFAULT_LIMIT
    return RunConfig(command, params, **common)


def _emit(report: Report, config: RunConfig) -> int:
    body = report.to_json() if config.format == "json" else report.text
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
    config = _config_from_args(build_parser().parse_args(argv))
    try:
        report = dispatch(config)
    except (ValueError, OSError) as exc:  # TraceError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ValueError) else EXIT_IO
    return _emit(report, config)


if __name__ == "__main__":
    sys.exit(main())
