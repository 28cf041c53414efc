import argparse
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from trigrid.cli import (
    COMMANDS,
    COMMON,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    Report,
    RunConfig,
    _config_from_args,
    _emit,
    build_parser,
    dispatch,
    main,
)
from trigrid import TriGrid, column_sweep_strategy, three_stage_strategy


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


README = Path(__file__).resolve().parents[1] / "README.md"
README_COMMANDS = [
    line.split("#")[0].split()[1:]
    for line in README.read_text(encoding="utf-8").splitlines()
    if line.startswith("trigrid ")
]


def test_readme_commands_found():
    assert len(README_COMMANDS) == 11


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_has_a_readme_line(command):
    words = command.split()
    assert any(argv[: len(words)] == words for argv in README_COMMANDS)


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_runs(tmp_path, monkeypatch, capsys, argv):
    # The README's input files: a.json a four-vertex set, lions.json the T_3 sweep.
    (tmp_path / "a.json").write_text(json.dumps([[0, 0], [1, 1], [0, 2], [2, 0]]))
    (tmp_path / "lions.json").write_text(column_sweep_strategy(TriGrid(3)).to_json())
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and out


def test_verify_isoperimetry_exhaustive(capsys):
    code, out, _ = run(capsys, "verify-isoperimetry", "--n", "3", "--exhaustive")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["ok"] is True
    assert all(report["payload"]["verified"])


def test_verify_isoperimetry_csv(capsys):
    code, out, _ = run(
        capsys, "verify-isoperimetry", "--n", "2", "--exhaustive", "--format", "csv"
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "k,min_boundary,packing_min,verified"
    assert out.splitlines()[1] == "0,0,0,true"


def test_verify_isoperimetry_sampled(capsys):
    code, out, _ = run(
        capsys, "verify-isoperimetry", "--n", "7", "--samples", "300", "--seed", "5"
    )
    assert code == EXIT_OK
    assert json.loads(out)["payload"]["violations"] == []


def test_invalid_order_is_usage_error(capsys):
    code, _, err = run(capsys, "search", "simulate", "--n", "0")
    assert code == EXIT_USAGE
    assert "grid order" in err


def test_order_above_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "packing", "--n", "4097", "--k", "1", "--kind", "initial")
    assert code == EXIT_USAGE and out == ""
    assert "grid order must be in 1..4096, got 4097" in err


@pytest.mark.parametrize("game", ["search", "lions"])
def test_simulate_order_above_cap_is_usage_error(capsys, game):
    code, out, err = run(capsys, game, "simulate", "--n", "101")
    assert code == EXIT_USAGE and out == ""
    assert "simulated grid order must be in 1..100, got 101" in err


def test_exhaustive_over_limit_is_usage_error(capsys):
    code, _, err = run(capsys, "verify-isoperimetry", "--n", "9", "--exhaustive")
    assert code == EXIT_USAGE
    assert "sampled" in err


def test_reports_deterministic_modulo_duration(capsys):
    reports = []
    for _ in range(2):
        code, out, _ = run(capsys, "search", "simulate", "--n", "4")
        assert code == EXIT_OK
        obj = json.loads(out)
        del obj["duration_s"]
        reports.append(json.dumps(obj, sort_keys=True))
    assert reports[0] == reports[1]


def test_packing_payload(capsys):
    code, out, _ = run(
        capsys, "packing", "--n", "2", "--k", "3", "--kind", "final"
    )
    assert code == EXIT_OK
    payload = json.loads(out)["payload"]
    assert payload["set"] == [[2, 0], [1, 1], [0, 2]]
    assert payload["boundary_size"] == 2


def test_compress_round_trip(tmp_path, capsys):
    setfile = tmp_path / "set.json"
    setfile.write_text(json.dumps([[1, 1], [2, 0]]))
    code, out, _ = run(
        capsys,
        "compress", "--n", "3", "--axis", "2", "--side", "left",
        "--set", str(setfile),
    )
    assert code == EXIT_OK
    assert json.loads(out)["payload"]["output"] == [[0, 0], [0, 1]]


def test_search_simulate_render(capsys):
    code, out, _ = run(capsys, "search", "simulate", "--n", "2", "--render")
    assert code == EXIT_OK
    payload = json.loads(out)["payload"]
    assert payload["cleared"] is True
    assert len(payload["frames"]) == len(payload["searches"])


def _frame_oracle(grid, marked, dirty, glyph):
    """A frame labelled vertex by vertex: glyph, else R if dirty, else G;
    row n on the first line."""
    labels = {
        v: glyph if v in marked else "R" if v in dirty else "G" for v in grid.vertices()
    }
    rows = range(grid.n, -1, -1)
    return "".join(" ".join(labels[(c, r)] for c in range(grid.n - r + 1)) + "\n" for r in rows)


@pytest.mark.parametrize("command, orders", [("search", range(2, 9)), ("lions", range(1, 6))])
def test_simulate_frames_match_labelling_oracle(capsys, command, orders):
    for n in orders:
        code, out, _ = run(capsys, command, "simulate", "--n", str(n), "--render")
        assert code == EXIT_OK
        grid = TriGrid(n)
        if command == "search":
            trace = three_stage_strategy(grid)
            turns, glyph = zip(trace.searches, trace.dirty_after), "Y"
        else:
            trace = column_sweep_strategy(grid)
            turns, glyph = zip(trace.positions, trace.contaminated), "L"
        expected = [_frame_oracle(grid, m, d, glyph) for m, d in turns]
        assert json.loads(out)["payload"]["frames"] == expected, n


def test_search_exact_unknown(capsys):
    code, out, _ = run(capsys, "search", "exact", "--n", "2", "--max-m", "1")
    assert code == EXIT_OK
    assert json.loads(out)["payload"]["inspection_number"] == "unknown"


def test_search_bounds_csv(capsys):
    code, out, _ = run(
        capsys, "search", "bounds", "--n-max", "4", "--format", "csv"
    )
    assert code == EXIT_OK
    assert out == (
        "n,lower,upper,upper_verified,exact\n"
        "1,2,3,true,3\n"
        "2,2,4,true,\n"
        "3,3,5,true,\n"
        "4,4,5,true,\n"
    )


# sha256 of `search bounds --n-max 24 --exact-up-to 4 --format csv` as
# printed when the exact solver searched every budget up to the sweep's.
BOUNDS_24_CSV_SHA256 = "ece5a37d80e9771ea8b32044d357265a2f169a4f7b1394d4c388176681952956"


def test_search_bounds_csv_to_24_pinned(capsys):
    code, out, _ = run(
        capsys, "search", "bounds", "--n-max", "24", "--exact-up-to", "4", "--format", "csv"
    )
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_24_CSV_SHA256


# Per exact command: its limit flag, the payload keys of the limit and of
# the value, and the largest limit pinned.
EXACT_LIMITS = {
    "search": ("--max-m", "max_m", "inspection_number", 6),
    "lions": ("--max-l", "max_l", "lion_number", 4),
}


@pytest.mark.parametrize(
    "command, n, least",
    [("search", 1, 3), ("search", 2, 4), ("search", 3, 4), ("search", 4, 5),
     ("lions", 1, 2), ("lions", 2, 3)],
)
def test_exact_payloads_pinned(capsys, command, n, least):
    flag, limit_key, key, most = EXACT_LIMITS[command]
    for limit in range(1, most + 1):
        code, out, _ = run(capsys, command, "exact", "--n", str(n), flag, str(limit))
        assert code == EXIT_OK
        assert json.loads(out)["payload"] == {
            key: least if limit >= least else "unknown",
            limit_key: limit,
            "n": n,
        }


def test_lions_pipeline_through_files(tmp_path, capsys):
    trace_path = tmp_path / "lions.json"
    code, out, _ = run(capsys, "lions", "simulate", "--n", "2", "--out", str(trace_path))
    assert code == EXIT_OK and out == ""
    payload = json.loads(trace_path.read_text())["payload"]
    lion_path = tmp_path / "trace.json"
    lion_path.write_text(json.dumps({k: payload[k] for k in ("n", "lions", "start", "moves")}))
    code, out, _ = run(capsys, "lions", "couple", "--trace", str(lion_path))
    assert code == EXIT_OK
    coupled = json.loads(out)["payload"]
    assert coupled["budget"] == 6
    assert coupled["claim_holds"] is True
    # emitted search trace re-loads and re-verifies
    from trigrid import SearchTrace, TriGrid, verify_trace

    back = SearchTrace.from_json_obj(
        {k: coupled[k] for k in ("n", "budget", "searches", "dirty_checksums")}
    )
    assert verify_trace(TriGrid(2), back)


def test_lions_exact(capsys):
    code, out, _ = run(capsys, "lions", "exact", "--n", "1", "--max-l", "2")
    assert code == EXIT_OK
    assert json.loads(out)["payload"]["lion_number"] == 2


def test_missing_trace_file_is_io_error(capsys):
    code, _, err = run(capsys, "lions", "couple", "--trace", "/nonexistent/x.json")
    assert code == EXIT_IO
    assert "error" in err


def test_out_in_a_missing_directory_is_io_error(tmp_path, capsys):
    path = tmp_path / "missing" / "render.json"
    code, out, err = run(capsys, "render", "--n", "2", "--out", str(path))
    assert code == EXIT_IO and out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert not path.parent.exists()


def test_render_golden(capsys):
    code, out, _ = run(capsys, "render", "--n", "2", "--format", "ascii")
    assert code == EXIT_OK
    assert out == ".\n. .\n. . .\n"


def test_render_set_and_bottom_up(tmp_path, capsys):
    setfile = tmp_path / "set.json"
    setfile.write_text(json.dumps([[0, 0], [2, 0]]))
    code, out, _ = run(
        capsys, "render", "--n", "2", "--set", str(setfile),
        "--bottom-up", "--format", "ascii",
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "# . #"


def test_format_unavailable_is_usage_error(capsys):
    code, _, err = run(capsys, "packing", "--n", "2", "--k", "1",
                       "--kind", "initial", "--format", "csv")
    assert code == EXIT_USAGE
    assert "not available" in err


@pytest.mark.parametrize(
    "argv, command",
    [
        (["verify-isoperimetry", "--n", "9", "--samples", "10"], "verify-isoperimetry"),
        (["search", "simulate", "--n", "3"], "search simulate"),
        (["lions", "simulate", "--n", "2"], "lions simulate"),
        (["search", "exact", "--n", "1", "--max-m", "3"], "search exact"),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "ascii"])
def test_format_refusal_names_format_and_command(capsys, argv, command, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: --format {fmt} is not available for {command}\n"


def test_format_refused_before_the_command_runs(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("sampled_check ran")

    monkeypatch.setattr("trigrid.cli.sampled_check", fail)
    code, out, err = run(capsys, "verify-isoperimetry", "--n", "30",
                         "--samples", "200000", "--format", "csv")
    assert code == EXIT_USAGE and out == ""
    assert "not available for verify-isoperimetry" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-isoperimetry", "--n", "2", "--exhaustive"],
        ["verify-isoperimetry", "--n", "9", "--samples", "10"],
        ["packing", "--n", "3", "--k", "2", "--kind", "final"],
        ["search", "simulate", "--n", "2"],
        ["search", "simulate", "--n", "2", "--render"],
        ["search", "exact", "--n", "1", "--max-m", "3"],
        ["search", "bounds", "--n-max", "2", "--exact-up-to", "0"],
        ["lions", "simulate", "--n", "2"],
        ["lions", "simulate", "--n", "2", "--render"],
        ["lions", "exact", "--n", "1", "--max-l", "2"],
        ["render", "--n", "2"],
    ],
)
def test_command_table_says_which_runs_give_text(argv):
    config = _config_from_args(build_parser().parse_args(argv))
    command = COMMANDS[config.command]
    _, _, text = command.run(config.params, config)
    assert (text is not None) == command.has_text(config.params)


def test_bounds_ascii_still_prints_csv(capsys):
    _, csv, _ = run(capsys, "search", "bounds", "--n-max", "3", "--format", "csv")
    code, ascii_out, _ = run(capsys, "search", "bounds", "--n-max", "3", "--format", "ascii")
    assert code == EXIT_OK and ascii_out == csv


def test_verification_failure_exit_code():
    # every real command verifies on honest inputs, so check the mapping
    # directly: a report with ok=False must yield the distinct exit code
    report = Report(
        command="x", config={}, payload={}, ok=False, duration_s=0.0
    )
    assert _emit(report, RunConfig(command="x", params={})) == EXIT_VERIFY


def test_dispatch_unknown_command():
    with pytest.raises(ValueError):
        dispatch(RunConfig(command="nope", params={}))


def test_run_config_has_one_field_per_common_option():
    # Each COMMON dest names a RunConfig field, so a new COMMON entry
    # without one fails here.
    parser = argparse.ArgumentParser()
    dests = [parser.add_argument(flag, **kwargs).dest for flag, kwargs in COMMON]
    names = [f.name for f in dataclasses.fields(RunConfig)]
    assert names[:2] == ["command", "params"]
    assert sorted(names[2:]) == sorted(dests)


@pytest.mark.parametrize(
    "argv, params",
    [
        (["render", "--n", "2"], {"n": 2, "set": None, "bottom_up": False}),
        (["search", "bounds", "--n-max", "2"], {"n_max": 2, "exact_up_to": 1}),
        (["lions", "exact", "--n", "1", "--max-l", "3"], {"n": 1, "max_l": 3}),
    ],
    ids=["render", "search bounds", "lions exact"],
)
def test_report_config_holds_the_common_options_but_out(tmp_path, capsys, argv, params):
    path = tmp_path / "report.json"
    common = ["--format", "json", "--seed", "3", "--threads", "1", "--out", str(path)]
    code, out, _ = run(capsys, *argv, *common)
    assert code == EXIT_OK and out == ""
    config = json.loads(path.read_text(encoding="utf-8"))["config"]
    assert config == {"format": "json", "params": params, "seed": 3, "threads": 1}


def _leaf_commands(parser, prefix=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return {" ".join(prefix)}
    return {
        leaf
        for name, sub in subparsers[0].choices.items()
        for leaf in _leaf_commands(sub, prefix + (name,))
    }


def test_command_table_matches_parser():
    assert _leaf_commands(build_parser()) == set(COMMANDS)


def _parsers(parser, prefix=()):
    yield " ".join(prefix), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, prefix + (name,))


# sha256 of every --help text at 80 columns, keyed by command path ("" is the
# top level).  The table-built parser must print exactly what the hand-written
# one did; argparse's layout can change between Python versions, and these are
# Python 3.11's.
HELP_SHA256 = {
    "": "83a0e684551977d0ec0de0227502aca034ad61be260f77eed65532a151eba30b",
    "verify-isoperimetry": "84bc3448d84a80d1f782ce1c2aecc5e181598dd329a92d074ba74e41dbde21e1",
    "packing": "24ad3ded745653dc02b351d5fc887b7109c40596acc52b78ad3802f5a46d86b1",
    "compress": "7b60cd3d2d73c70ae78174666a0bf62990a797fbebb60344119b0fe088ee37f3",
    "search": "87c7e2b5ee2accbc287a7412a9259d4bc946b91ef598eab7b16e01afb53e1651",
    "search simulate": "744355fb0ce7306cf80d87481bab0ae3eda3b75e676f1b7c8d707cf43764c871",
    "search exact": "388ce2175f7fe1929f8d3c46b3f4fa31bb01f6682bc7d9fe9121ad3f99598eb8",
    "search bounds": "5c973019353b068818ed58d42af61b23587046e683307be7423e69bf3a249196",
    "lions": "dafb64bca07fe3ef67bb8e0cd5efaad1caba795773ed02fb473c8b7a375c0244",
    "lions simulate": "77de2cd61a98dfbe78091ddc6e3bb32062ed560bbe5eb477098e2325ab521a4e",
    "lions couple": "0355acc3cd56dc8b26cfc8b614755bcab0f9b95db223433ec6f0932d4fca5088",
    "lions exact": "94ad7e982e91913407aabb13cf2f2d955bec6954a307c7d702fbf16e93b8edca",
    "render": "5a180f4c8a71d29966337f7692a2b66a3b420af901b3fa238b80f0fdad7a3567",
}


def test_help_texts_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digests = {
        path: hashlib.sha256(parser.format_help().encode()).hexdigest()
        for path, parser in _parsers(build_parser())
    }
    assert digests == HELP_SHA256


# The column sweep of T_2 as a lion trace file: it clears, so it couples.
T2_SWEEP = {
    "n": 2,
    "lions": 3,
    "start": [[0, 0], [0, 1], [0, 2]],
    "moves": [[[0, [1, 0]]], [[1, [1, 1]]], [[0, [2, 0]]]],
}


def test_lions_couple_of_a_losing_trace_is_verification_failure(tmp_path, capsys):
    # One lion steps off (0, 0) and leaves the rest of T_2 contaminated.
    losing = {"n": 2, "lions": 1, "start": [[0, 0]], "moves": [[[0, [1, 0]]]]}
    reports = {}
    for name, trace in (("losing", losing), ("winning", T2_SWEEP)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(trace))
        code, out, err = run(capsys, "lions", "couple", "--trace", str(path))
        assert err == ""
        reports[name] = code, json.loads(out)
    code, report = reports["losing"]
    assert code == EXIT_VERIFY and report["ok"] is False
    assert report["payload"]["budget"] == 2 and report["payload"]["claim_holds"] is True
    assert set(report["payload"]) == set(reports["winning"][1]["payload"])
    assert reports["winning"][0] == EXIT_OK


@pytest.mark.parametrize(
    "content, argv",
    [
        ([[1.5, 0]], ["compress", "--n", "3", "--axis", "1", "--side", "left", "--set"]),
        ([[True, 0]], ["render", "--n", "2", "--set"]),
        ({k: v for k, v in T2_SWEEP.items() if k != "moves"}, ["lions", "couple", "--trace"]),
        ({**T2_SWEEP, "n": 2.9}, ["lions", "couple", "--trace"]),
        ({**T2_SWEEP, "start": [[3, 3], [0, 1], [0, 2]]}, ["lions", "couple", "--trace"]),
        ({**T2_SWEEP, "moves": [[[0, [3, 3]]]]}, ["lions", "couple", "--trace"]),
        ({**T2_SWEEP, "moves": [[[0, [2, 0]]]]}, ["lions", "couple", "--trace"]),
        ({**T2_SWEEP, "moves": [[[7, [1, 0]]]]}, ["lions", "couple", "--trace"]),
        # a winning schedule, but lion 0 is named twice on its first turn
        (
            {**T2_SWEEP, "moves": [[[0, [1, 0]], [0, [1, 0]]], *T2_SWEEP["moves"][1:]]},
            ["lions", "couple", "--trace"],
        ),
    ],
)
def test_malformed_input_file_is_usage_error(tmp_path, capsys, content, argv):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, *argv, str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-isoperimetry", "--n", "4", "--samples", "0"],
        ["verify-isoperimetry", "--n", "4", "--samples", "-5"],
        ["search", "bounds", "--n-max", "0"],
        ["search", "exact", "--n", "2", "--max-m", "-1"],
        ["lions", "exact", "--n", "1", "--max-l", "0"],
    ],
)
def test_nothing_to_check_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert "at least 1" in err or "n_max must be in 1..50, got 0" in err


@pytest.mark.parametrize(
    "argv, limit",
    [
        pytest.param(["--n", "3", "--exhaustive"], "-4", id="-4"),
        pytest.param(["--n", "3", "--exhaustive"], "0", id="0"),
        # sampled mode never reads --limit, but a bad one is still refused
        pytest.param(["--n", "7", "--samples", "5"], "-3", id="sampled--3"),
        pytest.param(["--n", "7"], "0", id="default-sampled-0"),
    ],
)
def test_limit_below_one_is_usage_error(capsys, argv, limit):
    code, out, err = run(capsys, "verify-isoperimetry", *argv, "--limit", limit)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: limit must be at least 1, got {limit}\n"


def test_negative_exact_up_to_is_usage_error(capsys):
    code, out, err = run(capsys, "search", "bounds", "--n-max", "2", "--exact-up-to", "-5")
    assert code == EXIT_USAGE and out == ""
    assert "exact_up_to" in err


@pytest.mark.parametrize("threads", ["0", "100000"])
def test_threads_out_of_range_is_usage_error(capsys, threads):
    # render never opens a process pool, so a broken check starts no processes
    code, out, err = run(capsys, "render", "--n", "1", "--threads", threads)
    assert code == EXIT_USAGE and out == ""
    assert "--threads" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "simulate", "--n", "3"],
        ["verify-isoperimetry", "--n", "9", "--samples", "10"],
    ],
)
def test_negative_seed_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: --seed must be at least 0, got -1\n"
