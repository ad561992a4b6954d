import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from randamp import cli, npa, sdp
from randamp.cli import UsageError, _fmt, cmd_figure1, cmd_figure2, main, parse_grid
from randamp.protocol import plan_protocol
from randamp.sdp import STATUS_MAX_ITERATIONS, solve
from randamp.simulator import HonestDevice, estimate_output_bias
from randamp.strategies import ghz_mermin_strategy

CHSH_CRITICAL_EPS = 2.0**-0.5 - 0.5


def run_cli(args, tmp_path, name="out.txt"):
    path = tmp_path / name
    code = main([*args, "--out", str(path)])
    text = path.read_text() if path.exists() else ""
    return code, text


def csv_rows(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def comment_lines(text):
    return [line for line in text.splitlines() if line.startswith("#")]


def test_parse_grid_forms():
    assert parse_grid("0.3") == [0.3]
    assert parse_grid("0:1:5") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert parse_grid("0.2:0.2:1") == [0.2]
    with pytest.raises(UsageError):
        parse_grid("1:2")
    with pytest.raises(UsageError):
        parse_grid("1:2:3:4")
    with pytest.raises(UsageError):
        parse_grid("0:1:0")


@given(st.floats(-5, 5), st.floats(-5, 5), st.integers(1, 40))
@settings(max_examples=100)
def test_parse_grid_matches_linspace(a, b, n):
    values = parse_grid(f"{a}:{b}:{n}")
    assert len(values) == n
    assert np.allclose(values, np.linspace(a, b, n))


def test_game_value_mermin_anchor(tmp_path):
    code, text = run_cli(["game-value", "mermin"], tmp_path)
    assert code == 0
    assert text.splitlines()[0] == "# schema: randamp-game-value v1"
    (row,) = csv_rows(text)
    assert row["game"] == "mermin"
    assert float(row["classical"]) == pytest.approx(0.75, abs=1e-12)
    assert float(row["quantum"]) == pytest.approx(1.0, abs=1e-9)


def test_game_value_magic_square_anchor(tmp_path):
    code, text = run_cli(["game-value", "magic-square"], tmp_path)
    assert code == 0
    (row,) = csv_rows(text)
    assert float(row["classical"]) == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert float(row["quantum"]) == pytest.approx(1.0, abs=1e-9)


def test_game_value_magic_square_rejects_bias(tmp_path, capsys):
    code, _ = run_cli(["game-value", "magic-square", "--epsilon", "0.3"], tmp_path)
    assert code == 1
    assert "epsilon" in capsys.readouterr().err


def test_game_value_chsh_unbiased(tmp_path):
    code, text = run_cli(["game-value", "chsh", "--tolerance", "1e-6"], tmp_path)
    assert code == 0
    (row,) = csv_rows(text)
    assert float(row["classical"]) == pytest.approx(0.75, abs=1e-12)
    assert float(row["quantum"]) == pytest.approx(0.5 + 0.25 * math.sqrt(2), abs=1e-4)


def test_game_value_chsh_at_critical_bias(tmp_path):
    """At the critical bias the quantum advantage of the pair game closes."""
    code, text = run_cli(
        ["game-value", "chsh", "--epsilon", f"{CHSH_CRITICAL_EPS!r}", "--tolerance", "1e-6"],
        tmp_path,
    )
    assert code == 0
    (row,) = csv_rows(text)
    q = float(row["quantum"])
    c = float(row["classical"])
    assert q == pytest.approx(1.0 - (1.0 - 2.0**-0.5) ** 2, abs=1e-3)
    assert abs(q - c) < 5e-4


def test_game_value_json_format(tmp_path):
    code, text = run_cli(["game-value", "mermin", "--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    assert payload["schema"] == "randamp-game-value v1"
    assert payload["rows"][0]["game"] == "mermin"


def test_game_value_output_is_byte_stable(tmp_path):
    _, first = run_cli(["game-value", "mermin"], tmp_path, name="a.txt")
    _, second = run_cli(["game-value", "mermin"], tmp_path, name="b.txt")
    assert first == second


def test_figure1_small_grid(tmp_path):
    code, text = run_cli(
        ["figure1", "--grid", "0.3", "--ps", "0.96:1.0:2", "--tolerance", "1e-6"],
        tmp_path,
    )
    assert code == 0
    assert text.splitlines()[0] == "# schema: randamp-figure1 v1"
    assert "# monotonicity_violations_in_p_s: 0" in comment_lines(text)
    rows = {float(r["p_s"]): r for r in csv_rows(text)}
    assert rows[1.0]["status"] == "ok"
    # a perfect win record forces the output bias to vanish; at the
    # classical floor nothing is certified
    assert float(rows[1.0]["eps_prime"]) < 1e-4
    assert float(rows[0.96]["eps_prime"]) > 0.5 - 1e-3


def test_figure1_cells_share_one_structure_and_face_point(monkeypatch):
    """Each cell builds its own relaxation, yet every cell gets the one
    cached structure, only the floor-1 cell reads a face, and that face's
    point is the one shared per source pattern; each cell equals a fresh
    eps_prime call bit for bit."""
    structures, faces = [], []
    structure_for = npa.structure_for

    def recording_structure_for(game, level):
        structures.append(structure_for(game, level))
        return structures[-1]

    class RecordingFace(npa.SuccessFaceContext):
        def __init__(self, *args):
            super().__init__(*args)
            faces.append(self)

    monkeypatch.setattr(npa, "structure_for", recording_structure_for)
    monkeypatch.setattr(npa, "SuccessFaceContext", RecordingFace)
    rows, _ = cmd_figure1([0.3], [0.97, 0.98, 1.0], 1e-8)
    assert len(structures) == 3 and all(s is structures[0] for s in structures)
    assert len(faces) == 1
    monkeypatch.undo()
    other = npa.Relaxation.canonical(0.1)
    assert faces[0].point is npa.SuccessFaceContext(other.structure, other.game, other.dist).point
    assert [r["eps_prime"] for r in rows] == [npa.eps_prime(0.3, ps) for ps in (0.97, 0.98, 1.0)]


def test_figure1_near_floor_one_is_not_answered_on_the_face(tmp_path):
    """A floor 5e-13 below 1 is solved in full, where the solver stalls
    and the cell says so; it once printed the face's 3.88469811874e-09,
    below the relaxation's value there.  Floor 1 itself prints 0."""
    code, text = run_cli(["figure1", "--grid", "0.45:0.45:1", "--ps", "0.9999999999995:1:2"], tmp_path)
    assert code == 0
    near, one = csv_rows(text)
    assert (near["eps_prime"], near["status"]) == ("", "solver_failure")
    assert (one["eps_prime"], one["status"]) == ("0", "ok")
    assert "3.88469811874e-09" not in text


def test_figure1_marks_out_of_domain_cells_failed(tmp_path, capsys):
    """An out-of-domain cell carries a failed: status and the sweep goes
    on; a grid of only such cells exits 2."""
    cases = [
        ("0.3", "0.97:1.5:2", "failed: success floor must lie in [0, 1], got 1.5"),
        ("0.3:0.6:2", "0.97", "failed: epsilon must lie in [0, 1/2], got 0.6"),
    ]
    for grid, ps, failed in cases:
        code, text = run_cli(["figure1", "--grid", grid, "--ps", ps], tmp_path)
        assert code == 0
        first, second = csv_rows(text)
        assert (first["status"], second["status"]) == ("ok", failed)
        assert second["eps_prime"] == ""
    code, text = run_cli(["figure1", "--grid", "0.6", "--ps", "1.5"], tmp_path, "all.txt")
    assert (code, text) == (2, "")
    assert "every grid cell failed" in capsys.readouterr().err


def test_figure2_single_point(tmp_path):
    code, text = run_cli(
        ["figure2", "--grid", "0.3", "--tolerance", "5e-3"], tmp_path
    )
    assert code == 0
    assert text.splitlines()[0] == "# schema: randamp-figure2 v1"
    (row,) = csv_rows(text)
    assert row["status"] == "ok"
    assert 0.96 < float(row["p_crit"]) < 1.0


def test_figure3_delta_zero_shifts_by_slack(tmp_path):
    code, text = run_cli(
        ["figure3", "--grid", "0.3", "--delta", "0", "--x", "0.005", "--tolerance", "5e-3"],
        tmp_path,
    )
    assert code == 0
    assert text.splitlines()[0] == "# schema: randamp-figure3 v1"
    (row,) = csv_rows(text)
    assert row["status"] == "ok"
    p_crit = float(row["p_crit"])
    p_threshold = float(row["p_threshold"])
    margin = float(row["threshold_margin"])
    assert p_threshold == pytest.approx(p_crit + 0.005, abs=1e-12)
    assert margin == pytest.approx(1.0 - p_threshold, abs=1e-12)
    assert margin > 0.0


def test_plan_json_shape(tmp_path):
    code, text = run_cli(
        ["plan", "--epsilon", "0.3", "--eps-prime", "0.29", "--delta", "0.5",
         "--tolerance", "5e-3"],
        tmp_path,
    )
    assert code == 0
    plan = json.loads(text)
    assert plan["schema"] == "randamp-plan v1"
    assert plan["epsilon"] == 0.3
    assert plan["confidence"] == pytest.approx(0.25)
    assert plan["n_rounds"] >= 1
    assert 0.96 < plan["p_crit"] < plan["p_threshold"] < 1.0
    assert plan["x"] > 0.0


def test_plan_infeasible_slack_exits_2(tmp_path, capsys):
    code, text = run_cli(
        ["plan", "--epsilon", "0.3", "--eps-prime", "0.29", "--delta", "0.5",
         "--x", "0.9", "--tolerance", "1e-2"],
        tmp_path,
    )
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert "maximal feasible x" in err


def test_simulate_honest_end_to_end(tmp_path):
    code, text = run_cli(
        ["simulate", "--epsilon", "0.3", "--eps-prime", "0.29", "--delta", "0.5",
         "--runs", "5", "--seed", "1", "--tolerance", "1e-2"],
        tmp_path,
    )
    assert code == 0
    assert text.splitlines()[0] == "# schema: randamp-simulate v1"
    rows = csv_rows(text)
    assert len(rows) == 5
    for row in rows:
        assert row["aborted"] == "false"
        assert row["aggregated"] == "true"
        assert float(row["p_est"]) == 1.0
        assert row["output_bit"] in ("0", "1")
    comments = "\n".join(comment_lines(text))
    assert "# n_rounds:" in comments
    assert "# abort_rate: 0" in comments
    assert "# p_zero:" in comments
    assert "# bias_ci:" in comments


def test_simulate_summary_matches_estimate_output_bias(tmp_path):
    """The CLI summarizes the runs it printed; the summary equals a
    separate estimate over the same seed."""
    code, text = run_cli(
        ["simulate", "--epsilon", "0.3", "--eps-prime", "0.29", "--delta", "0.5",
         "--runs", "8", "--seed", "5", "--tolerance", "1e-2"],
        tmp_path,
    )
    assert code == 0
    summary = dict(line[2:].split(": ", 1) for line in comment_lines(text))
    params = plan_protocol(0.3, 0.29, 0.5, tol=1e-2)
    est = estimate_output_bias(params, HonestDevice(ghz_mermin_strategy()), 8, 5)
    assert est.emitted > 0
    assert summary["abort_rate"] == _fmt(est.abort_rate)
    assert summary["emitted"] == str(est.emitted)
    assert summary["p_zero"] == _fmt(est.p_zero)
    assert summary["bias"] == _fmt(est.bias)


def test_simulate_steered_adversary_aborts(tmp_path):
    code, text = run_cli(
        ["simulate", "--epsilon", "0.3", "--eps-prime", "0.29", "--delta", "0.5",
         "--device", "steered-deterministic", "--runs", "3", "--seed", "1",
         "--tolerance", "1e-2"],
        tmp_path,
    )
    assert code == 0
    rows = csv_rows(text)
    assert all(row["aborted"] == "true" for row in rows)
    assert all(row["output_bit"] == "" for row in rows)
    comments = "\n".join(comment_lines(text))
    assert "# abort_rate: 1" in comments
    assert "# emitted: 0" in comments


def forbid_planning(monkeypatch, what):
    def no_plan(*args, **kwargs):
        raise AssertionError(f"plan_protocol called for an invalid {what}")

    monkeypatch.setattr("randamp.cli.plan_protocol", no_plan)


def forbid_solving(monkeypatch):
    def no_solve(*args):
        raise AssertionError("solve called")

    monkeypatch.setattr(sdp, "solve", no_solve)
    monkeypatch.setattr(npa, "solve", no_solve)


def test_simulate_unknown_device_is_usage_error(tmp_path, capsys, monkeypatch):
    """An unknown device is rejected before any plan is solved."""
    forbid_planning(monkeypatch, "--device")
    code, _ = run_cli(
        ["simulate", "--epsilon", "0.3", "--eps-prime", "0.29", "--delta", "0.5",
         "--device", "nonsense", "--tolerance", "1e-2"],
        tmp_path,
    )
    assert code == 1
    assert "unknown device" in capsys.readouterr().err


def test_simulate_beyond_int64_rounds_is_a_numerical_failure(tmp_path, capsys):
    """A plan whose N exceeds 2^63 - 1 (about 5.2e26 here) cannot be
    drawn in aggregated form: one line on stderr, exit 2, no output."""
    code, text = run_cli(
        ["simulate", "--epsilon", "0.3", "--eps-prime", "0.29", "--delta", "0.999",
         "--runs", "2", "--seed", "1"],
        tmp_path,
    )
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("numerical failure: ") and "exceed 2^63 - 1" in err


@pytest.mark.parametrize("visibility", ["1.5", "-0.1", "nan"])
def test_simulate_visibility_outside_unit_interval_is_usage_error(
    visibility, tmp_path, capsys, monkeypatch
):
    """A visibility outside [0, 1] is rejected before any plan is solved."""
    forbid_planning(monkeypatch, "--visibility")
    code, _ = run_cli(
        ["simulate", "--epsilon", "0.3", "--eps-prime", "0.29", "--delta", "0.5",
         "--visibility", visibility],
        tmp_path,
    )
    assert code == 1
    assert "--visibility must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("runs", ["-1", "0"])
def test_simulate_nonpositive_runs_is_usage_error(runs, tmp_path, capsys, monkeypatch):
    """A run count below 1 is rejected before any plan is solved."""
    forbid_planning(monkeypatch, "--runs")
    code, _ = run_cli(
        ["simulate", "--epsilon", "0.3", "--eps-prime", "0.29", "--delta", "0.5",
         "--runs", runs],
        tmp_path,
    )
    assert code == 1
    assert "--runs must be at least 1" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert main(["game-value", "tictactoe"]) == 1
    capsys.readouterr()


def test_malformed_grid_is_usage_error(tmp_path, capsys):
    code, _ = run_cli(["figure2", "--grid", "1:2"], tmp_path)
    assert code == 1
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["figure2", "--grid", "abc"], ["figure1", "--ps", "0.9:1:2.5"], ["figure3", "--grid", "0.1:x:3"],
])
def test_unparsable_grid_is_usage_error_before_any_solve(argv, monkeypatch, tmp_path, capsys):
    forbid_solving(monkeypatch)
    assert run_cli(argv, tmp_path) == (1, "")
    assert capsys.readouterr().err.startswith("usage error: grid must be 'v' or 'a:b:n'")


def test_figure2_default_tolerance_resolves_the_grid_ends(tmp_path):
    """At 1e-4 the cells at 0.01 and 0.49 failed: their distance to 1
    lies below that tolerance."""
    code, text = run_cli(["figure2", "--grid", "0.01:0.49:2"], tmp_path)
    assert code == 0
    assert [row["status"] for row in csv_rows(text)] == ["ok", "ok"]


def test_figure2_out_of_domain_grid_exits_2(tmp_path, capsys):
    code, _ = run_cli(["figure2", "--grid", "0.6:0.7:2"], tmp_path)
    assert code == 2
    assert "every grid cell failed" in capsys.readouterr().err


def test_figure3_coarse_tolerance_marks_row_failed(tmp_path):
    """At strong bias a coarse solver tolerance cannot resolve the curve;
    the cell is reported as failed instead of crashing the sweep."""
    code, text = run_cli(
        ["figure3", "--grid", "0.3:0.45:2", "--delta", "0.99", "--x", "0",
         "--tolerance", "5e-3"],
        tmp_path,
    )
    assert code == 0
    rows = {float(r["epsilon"]): r for r in csv_rows(text)}
    assert rows[0.3]["status"] == "ok"
    assert float(rows[0.3]["threshold_margin"]) > 0.0
    assert rows[0.45]["status"].startswith("failed:")
    assert rows[0.45]["p_threshold"] == ""


def test_figures_mark_stalled_solves_as_failed_cells(monkeypatch, tmp_path):
    """Every solve stops at max_iterations: each figure1 cell below floor
    1 reads solver_failure (floor 1 makes no solve), each figure2 cell
    failed:, and a grid of only failed cells exits 2."""
    def stalled(problem, tol, cutoff=None):
        return dataclasses.replace(solve(problem, tol, cutoff), status=STATUS_MAX_ITERATIONS)

    monkeypatch.setattr(npa, "solve", stalled)
    rows, _ = cmd_figure1([0.3], [0.97, 1.0], 1e-8)
    assert [(r["eps_prime"], r["status"]) for r in rows] == [(None, "solver_failure"), (0.0, "ok")]
    (row,) = cmd_figure2([0.3], 1e-4)
    assert row["p_crit"] is None
    assert row["status"].startswith("failed: solver returned max_iterations")
    code, text = run_cli(["figure2", "--grid", "0.3"], tmp_path)
    assert (code, text) == (2, "")


PLAN_FLAGS = ["--epsilon", "0.3", "--eps-prime", "0.29", "--delta", "0.9"]
COMMANDS = {
    "game-value": ["game-value", "chsh"],
    "figure1": ["figure1"],
    "figure2": ["figure2"],
    "figure3": ["figure3"],
    "plan": ["plan", *PLAN_FLAGS],
    "simulate": ["simulate", *PLAN_FLAGS, "--runs", "2"],
}


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_tolerance_not_positive_finite_is_usage_error(value, monkeypatch, tmp_path, capsys):
    """Each command rejects the value before any solve."""
    forbid_solving(monkeypatch)
    for command, argv in COMMANDS.items():
        code, text = run_cli([*argv, "--tolerance", value], tmp_path)
        assert (code, text) == (1, ""), command
        assert capsys.readouterr().err.startswith("usage error: argument --tolerance"), command


OUT_OF_DOMAIN = {
    "game-value": [["--epsilon", v] for v in ("0.7", "-0.1", "nan")],
    "figure3": [["--delta", v] for v in ("1.5", "1", "nan")] + [["--x", v] for v in ("-1", "nan", "inf")],
    "plan": [["--epsilon", v] for v in ("nan", "0.5", "-0.1")]
    + [["--eps-prime", v] for v in ("0", "0.6", "nan")]
    + [["--delta", v] for v in ("1.5", "-0.1", "nan")]
    + [["--x", v] for v in ("0", "nan", "inf")],
}
OUT_OF_DOMAIN["simulate"] = OUT_OF_DOMAIN["plan"] + [["--seed", "-1"]]


@pytest.mark.parametrize("command", sorted(OUT_OF_DOMAIN))
def test_flag_out_of_its_domain_is_usage_error(command, monkeypatch, tmp_path, capsys):
    """A value outside its flag's domain exits 1 before any solve,
    naming the flag; in the library the same value would reach a solve
    or a numerical failure."""
    forbid_solving(monkeypatch)
    for flag, value in OUT_OF_DOMAIN[command]:
        argv = [*COMMANDS[command], flag, value]
        code, text = run_cli(argv, tmp_path)
        assert (code, text) == (1, ""), argv
        assert capsys.readouterr().err.startswith(f"usage error: argument {flag}: must lie in"), argv


@pytest.mark.parametrize("command", sorted(COMMANDS), ids=lambda command: f"{command}-1e-8")
def test_default_tolerance_output_is_explicit_default_output(command, tmp_path):
    """Every command solves at the one default tolerance, 1e-8."""
    default = run_cli(COMMANDS[command], tmp_path, "default.txt")
    explicit = run_cli([*COMMANDS[command], "--tolerance", "1e-8"], tmp_path, "explicit.txt")
    assert default[0] == 0
    assert default == explicit


def test_main_builds_the_parser_once(tmp_path):
    cli._parser.cache_clear()
    for _ in range(2):
        assert run_cli(["game-value", "mermin"], tmp_path)[0] == 0
    assert cli._parser.cache_info().misses == 1
