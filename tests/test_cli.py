"""Command-line workflows: run, sweep, solve-matrix, plot, config schema."""

import hashlib
import json
import os
import xml.etree.ElementTree as ET
from dataclasses import is_dataclass
from pathlib import Path

import pytest

from gamepop import meta_solvers, specs
from gamepop.cli import main, run_from_config, solve_matrix, sweep
from gamepop.config import (ConfigError, config_to_dict, load_config,
                            parse_config)
from gamepop.engine import (INITS, ORACLES, SOLVERS, GradientOracle,
                            PsroConfig, _build_arena)
from gamepop.games import GAMES
from gamepop.svgplot import PlotError, render_svg

RPS_ROWS = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]


def minimal_config(output_dir, **overrides):
    data = {
        "game": {"name": "matrix_game", "params": {"rows": RPS_ROWS}},
        "oracle": {"kind": "exact"},
        "mss": {"kind": "nash"},
        "init": {"method": "inherit_latest"},
        "iterations": 4,
        "seeds": [0],
        "output_dir": str(output_dir),
    }
    data.update(overrides)
    return data


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestRunCommand:
    def test_minimal_rps_run(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(out))
        assert run_from_config(path) == 0
        lines = (out / "seed_0" / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 4
        final = lines[-1].split(",")
        assert float(final[1]) <= 1e-9
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["iterations"] == 4

    def test_three_seeds_three_result_files(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(out, seeds=[1, 2, 3]))
        run_from_config(path)
        for seed in (1, 2, 3):
            assert (out / f"seed_{seed}" / "results.csv").exists()

    def test_runs_deterministic_per_seed(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        config = minimal_config(out_a, seeds=[7])
        run_from_config(write_config(tmp_path, config, "a.json"))
        config["output_dir"] = str(out_b)
        run_from_config(write_config(tmp_path, config, "b.json"))
        assert (out_a / "seed_7" / "results.csv").read_bytes() == \
            (out_b / "seed_7" / "results.csv").read_bytes()

    def test_cli_entry_point(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(out))
        assert main(["run", "--config", path]) == 0

    def test_missing_output_dir_is_an_error(self, tmp_path):
        config = minimal_config("ignored")
        del config["output_dir"]
        path = write_config(tmp_path, config)
        assert main(["run", "--config", path]) == 2

    def test_refused_option_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(
            out, game={"name": "kuhn_poker", "params": {}},
            psd={"enabled": True}))
        assert main(["run", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("error: psd.enabled: ")
        assert not out.exists()

    @pytest.mark.parametrize("game, oracle", [
        ({"name": "kuhn_poker", "params": {"faces": 3}}, {"kind": "exact"}),
        ({"name": "ntmg", "params": {"sigma": 1.0}}, {"kind": "gradient"}),
        # The hump count is the size of the cyclic matrix, not a parameter.
        ({"name": "ntmg", "params": {"num_humps": 7}}, {"kind": "gradient"}),
        ({"name": "ntmg", "params": {"num_humps": 7.0}},
         {"kind": "gradient"})])
    def test_bad_game_params_write_nothing(self, tmp_path, capsys, game,
                                           oracle):
        out = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(out, game=game,
                                                     oracle=oracle))
        assert main(["run", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("error: game.params: ")
        assert not out.exists()

    @pytest.mark.parametrize("game, param", [
        ({"name": "goofspiel", "params": {"num_cards": 2.5}}, "num_cards"),
        ({"name": "liars_dice", "params": {"faces": 2.5}}, "faces")])
    def test_fractional_game_size_writes_nothing(self, tmp_path, capsys,
                                                 game, param):
        out = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(out, game=game))
        assert main(["run", "--config", path]) == 2
        assert capsys.readouterr().err == (
            f"error: game.params.{param}: expected an integer\n")
        assert not out.exists()

    @pytest.mark.parametrize("params, error", [
        ({"center_radius": "x"}, "center_radius: expected a number"),
        ({"plane_bound": -1}, "plane_bound: must be > 0.0"),
        ({"plane_bound": True}, "plane_bound: expected a number"),
        ({"center_radius": 20}, "center_radius: must be <= plane_bound"),
        ({"center_radius": 11}, "center_radius: must be <= plane_bound"),
        ({"center_radius": -1}, "center_radius: must be >= 0.0"),
        ({"gaussian_sigma": 0}, "gaussian_sigma: must be > 0.0")])
    def test_bad_plane_game_value_writes_nothing(self, tmp_path, capsys,
                                                 params, error):
        out = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(
            out, game={"name": "ntmg", "params": params},
            oracle={"kind": "gradient"}))
        assert main(["run", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: game.params.{error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("rows", [[[0, 1], [1]], [[0, float("nan")]]])
    def test_bad_matrix_game_rows_write_nothing(self, tmp_path, capsys,
                                                rows):
        out = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(
            out, game={"name": "matrix_game", "params": {"rows": rows}}))
        assert main(["run", "--config", path]) == 2
        assert capsys.readouterr().err == (
            "error: game.params.rows: must be a finite non-empty matrix\n")
        assert not out.exists()

    @pytest.mark.parametrize("overrides, error", [
        ({"mss": {"kind": "prd", "dt": 0}}, "mss.dt: must be > 0.0"),
        ({"init": {"method": "distill", "lr": -0.05}},
         "init.lr: must be > 0.0"),
        ({"game": {"name": "ntmg", "params": {}},
          "oracle": {"kind": "gradient", "lr": 0.0}},
         "oracle.lr: must be > 0.0")])
    def test_non_positive_step_size_writes_nothing(self, tmp_path, capsys,
                                                   overrides, error):
        out = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(out, **overrides))
        assert main(["run", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("oracle, error", [
        ({"lr": float("nan")}, "oracle.lr: must be >= 0.0"),
        ({"lr": -1.0}, "oracle.lr: must be >= 0.0"),
        ({"epsilon": 5.0}, "oracle.epsilon: must be <= 1.0")])
    def test_out_of_range_q_learning_setting_writes_nothing(
            self, tmp_path, capsys, oracle, error):
        out = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(
            out, game={"name": "kuhn_poker"},
            oracle={"kind": "q_learning", "episodes": 200, **oracle}))
        assert main(["run", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_missing_config_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: No such file or directory\n")

    def test_unknown_game_names_the_game_field(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(out,
                                                     game={"name": "nope"}))
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: game.name: unknown game 'nope'; "
                              "valid names: ")
        assert "'ntmg'" in err and "'kuhn_poker'" in err
        assert not out.exists()


class TestConfigSchema:
    def test_negative_iterations_names_field(self, tmp_path):
        config = minimal_config(tmp_path, iterations=-1)
        with pytest.raises(ConfigError, match="iterations"):
            parse_config(config)

    def test_unknown_top_level_field(self, tmp_path):
        config = minimal_config(tmp_path)
        config["iteration"] = 4
        with pytest.raises(ConfigError, match="iteration"):
            parse_config(config)

    def test_unknown_nested_field(self, tmp_path):
        config = minimal_config(tmp_path)
        config["oracle"] = {"kind": "exact", "episodes": 3}
        with pytest.raises(ConfigError, match="episodes"):
            parse_config(config)

    @pytest.mark.parametrize("field", ["node_budget"])
    def test_retired_top_level_fields_rejected(self, tmp_path, field):
        config = minimal_config(tmp_path)
        config[field] = 10
        with pytest.raises(ConfigError, match=f"config: unknown field "
                                              f"'{field}'"):
            parse_config(config)

    @pytest.mark.parametrize("field", ["per_alpha", "is_beta"])
    def test_prioritized_replay_fields_rejected(self, tmp_path, field):
        oracle = {"kind": "dqn", "hidden_layers": [8], field: 0.5}
        with pytest.raises(ConfigError, match=f"oracle: unknown field "
                                              f"'{field}'"):
            parse_config(minimal_config(tmp_path, oracle=oracle))

    @pytest.mark.parametrize("field, value", [
        ("target_update_every", 0), ("grad_clip", 0.0), ("grad_clip", -1.0),
        ("soft_update_tau", 0.0), ("soft_update_tau", 1.5)])
    def test_dqn_bounds(self, tmp_path, field, value):
        oracle = {"kind": "dqn", "hidden_layers": [8], field: value}
        with pytest.raises(ConfigError, match=f"oracle.{field}: must be"):
            parse_config(minimal_config(tmp_path, oracle=oracle))

    def test_bare_gradient_oracle_takes_spec_defaults(self, tmp_path):
        parsed = parse_config(minimal_config(
            tmp_path, game={"name": "ntmg", "params": {}},
            oracle={"kind": "gradient"}))
        assert parsed.oracle == GradientOracle()

    def test_field_of_another_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mss: unknown field 'steps'"):
            parse_config(minimal_config(tmp_path,
                                        mss={"kind": "nash", "steps": 7}))

    def test_bad_seed_list(self, tmp_path):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(minimal_config(tmp_path, seeds=[]))
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(minimal_config(tmp_path, seeds=[0.5]))

    def test_bad_mss_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="mss.kind"):
            parse_config(minimal_config(tmp_path, mss={"kind": "alpharank"}))

    def test_per_player_init(self, tmp_path):
        config = minimal_config(tmp_path)
        config["init"] = {"p0": {"method": "scratch", "kind": "normal"},
                          "p1": {"method": "inherit_latest"}}
        parsed = parse_config(config)
        assert type(parsed.init[0]).__name__ == "Scratch"
        assert type(parsed.init[1]).__name__ == "InheritLatest"

    def test_round_trip_identity(self, tmp_path):
        config = minimal_config(
            tmp_path,
            oracle={"kind": "dqn", "hidden_layers": [16, 16], "episodes": 50,
                    "batch_size": 16, "replay_capacity": 100},
            init={"method": "nash_fusion", "c": 2, "top_k": "all",
                  "weights": "nash"},
            psd={"enabled": True, "lambda": 0.5, "hull_samples": 3},
            eval={"exact_exploitability_every": 2,
                  "approx_exploitability": {"kind": "q_learning"},
                  "approx_every": 0},
            payoff={"mode": "monte_carlo", "episodes": 200},
            diagnostics={"kl_compare": True, "kl_states": 17})
        parsed = parse_config(config)
        echoed = config_to_dict(parsed)
        assert parse_config(echoed) == parsed

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))


def _json_keys(cls):
    """The JSON keys of a spec and of the specs nested in it."""
    for key, f, kind in specs._fields(cls):
        yield key
        if is_dataclass(kind):
            yield from _json_keys(kind)


def test_readme_names_every_config_key():
    """Every key the config accepts, tag values, game names and game
    parameters included, is named in the README's Configuration section, as
    `key` or as "key" in its example."""
    keys = set(_json_keys(PsroConfig)) | {"name", "params"}
    for tag, _, table in (ORACLES, SOLVERS, INITS):
        keys |= {tag, *table}
        for cls in table.values():
            keys.update(_json_keys(cls))
    for name, (params_spec, _) in GAMES.items():
        keys |= {name, *_json_keys(params_spec)}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    unnamed = sorted(key for key in keys
                     if f"`{key}`" not in section and f'"{key}"' not in section)
    assert unnamed == []


class TestSweep:
    def test_mss_sweep_summary_shape(self, tmp_path):
        out = tmp_path / "sweep"
        config = minimal_config(out, iterations=3, seeds=[0, 1])
        path = write_config(tmp_path, config)
        assert sweep(path, "mss", ["nash", "uniform"]) == 0
        lines = (out / "sweep_summary.csv").read_text().strip().splitlines()
        assert lines[0] == ("param,value,exploitability_mean,"
                            "exploitability_min,exploitability_max")
        assert len(lines) == 3
        assert lines[1].startswith("mss,nash,")

    def test_fusion_c_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        config = minimal_config(out, iterations=2)
        config["init"] = {"method": "nash_fusion", "c": 2}
        path = write_config(tmp_path, config)
        sweep(path, "fusion_start_c", ["0", "2"])
        lines = (out / "sweep_summary.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_top_k_sweep_requires_fusion(self, tmp_path):
        path = write_config(tmp_path, minimal_config(tmp_path / "x"))
        with pytest.raises(ConfigError, match="nash_fusion"):
            sweep(path, "top_k", ["1"])

    def test_arms_echo_their_config_and_evaluate(self, tmp_path):
        out = tmp_path / "sweep"
        config = minimal_config(out, iterations=2)
        path = write_config(tmp_path, config)
        assert main(["sweep", "--config", path, "--param", "init",
                     "--values", "inherit_latest,nash_fusion"]) == 0
        for value in ("inherit_latest", "nash_fusion"):
            arm = out / f"init_{value}"
            expected = parse_config({**config, "init": {"method": value},
                                     "output_dir": str(arm)})
            echo = json.dumps(config_to_dict(expected), indent=2,
                              sort_keys=True) + "\n"
            assert (arm / "config.json").read_text() == echo
            assert main(["eval", "--run-dir", str(arm / "seed_0")]) == 0

    def test_base_config_checked_before_any_override(self, tmp_path, capsys):
        config = minimal_config(tmp_path / "x")
        config["init"] = {"c": 2}
        path = write_config(tmp_path, config)
        assert main(["sweep", "--config", path, "--param", "top_k",
                     "--values", "1"]) == 2
        assert capsys.readouterr().err == \
            "error: init: missing field 'method'\n"
        assert not (tmp_path / "x").exists()

    def test_unknown_param(self, tmp_path):
        path = write_config(tmp_path, minimal_config(tmp_path / "x"))
        with pytest.raises(ConfigError, match="param"):
            sweep(path, "learning_rate", ["1"])

    @pytest.mark.parametrize("param", ["fusion_start_c", "top_k"])
    def test_non_integer_value_is_a_config_error(self, tmp_path, capsys,
                                                 param):
        config = minimal_config(tmp_path / "x")
        config["init"] = {"method": "nash_fusion"}
        path = write_config(tmp_path, config)
        assert main(["sweep", "--config", path, "--param", param,
                     "--values", "x"]) == 2
        assert capsys.readouterr().err == (
            f"error: sweep over {param}: value 'x' is not an integer\n")


class TestSolveMatrix:
    def test_json_matrix(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(RPS_ROWS))
        assert solve_matrix(str(path), "nash") == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("sigma_row")
        assert abs(float(lines[2].split()[1])) < 1e-8

    def test_text_matrix_and_all_solvers(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("0 -1 1\n1 0 -1\n-1 1 0\n")
        for mss in ("nash", "uniform", "prd", "fictitious_play"):
            if mss == "prd":
                continue  # default 1e5 steps; covered by unit tests
            assert solve_matrix(str(path), mss) == 0

    def test_mss_takes_the_config_solver_names(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(RPS_ROWS))
        assert main(["solve-matrix", "--matrix", str(path),
                     "--mss", "fictitious_play"]) == 0
        sigma_row, sigma_col = meta_solvers.solve(
            RPS_ROWS, SOLVERS.members["fictitious_play"]())
        assert capsys.readouterr().out.splitlines()[:2] == [
            "sigma_row " + " ".join(repr(float(p)) for p in sigma_row),
            "sigma_col " + " ".join(repr(float(p)) for p in sigma_col)]

    @pytest.mark.parametrize("mss", ["nash", "uniform", "prd",
                                     pytest.param("fictitious_play", id="fp")])
    @pytest.mark.parametrize("name, text", [
        ("missing.json", None),
        ("row.json", "[0, -1, 1]"),
        ("nan.json", "[[0, NaN], [1, 0]]"),
        ("inf.txt", "0 inf\n1 0\n"),
        ("ragged.txt", "0 -1 1\n1 0\n")])
    def test_malformed_matrix_is_an_error(self, tmp_path, capsys, mss, name,
                                          text):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert main(["solve-matrix", "--matrix", str(path),
                     "--mss", mss]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ")
        assert captured.out == ""


def _write_results(path, rows):
    with open(path, "w") as fh:
        fh.write("# gamepop-results-v1\n")
        fh.write("iteration,exploitability,approx_exploitability,"
                 "pop_size_p1,pop_size_p2\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


class TestPlots:
    def test_empty_results_axes_only(self, tmp_path):
        src = tmp_path / "results.csv"
        _write_results(src, [])
        out = tmp_path / "plot.svg"
        render_svg("exploitability", [str(src)], str(out))
        root = ET.fromstring(out.read_text())
        tags = {child.tag.split("}")[-1] for child in root}
        assert "line" in tags
        assert "polyline" not in tags

    def test_single_seed_band_collapses_to_line(self, tmp_path):
        src = tmp_path / "results.csv"
        _write_results(src, [(1, 0.5, "", 2, 2), (2, 0.25, "", 3, 3),
                             (3, 0.125, "", 4, 4)])
        out = tmp_path / "plot.svg"
        render_svg("exploitability", [str(src)], str(out))
        root = ET.fromstring(out.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        polygon = root.find(f"{ns}polygon").get("points").split()
        line = root.find(f"{ns}polyline").get("points").split()
        assert polygon[:len(line)] == line  # upper band edge equals the mean

    def test_byte_deterministic(self, tmp_path):
        src = tmp_path / "results.csv"
        _write_results(src, [(1, 0.5, "", 2, 2), (2, 0.25, "", 3, 3)])
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        render_svg("exploitability", [str(src)], str(a))
        render_svg("exploitability", [str(src)], str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_version_check(self, tmp_path):
        src = tmp_path / "results.csv"
        src.write_text("# gamepop-results-v999\niteration,exploitability,"
                       "approx_exploitability,pop_size_p1,pop_size_p2\n")
        with pytest.raises(PlotError, match="version"):
            render_svg("exploitability", [str(src)], str(tmp_path / "x.svg"))

    def test_malformed_cell_names_row_and_column(self, tmp_path):
        src = tmp_path / "results.csv"
        _write_results(src, [(1, "oops", "", 2, 2)])
        with pytest.raises(PlotError, match="row 0.*exploitability"):
            render_svg("exploitability", [str(src)], str(tmp_path / "x.svg"))

    def test_trajectory_geometry(self, tmp_path):
        from gamepop.games.ntmg import NtmgConfig
        cfg = NtmgConfig()
        center = cfg.centers()[2]
        src = tmp_path / "trajectories.csv"
        with open(src, "w") as fh:
            fh.write("iteration,player,step,x,y\n")
            for step, frac in enumerate((0.0, 0.5, 0.95, 1.0)):
                x = float((1 - frac) * 4.0 + frac * center[0])
                y = float((1 - frac) * -4.0 + frac * center[1])
                fh.write(f"1,0,{step},{x!r},{y!r}\n")
        out = tmp_path / "traj.svg"
        render_svg("trajectories", [str(src)], str(out), ntmg=cfg)
        root = ET.fromstring(out.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        circles = [(float(c.get("cx")), float(c.get("cy")), float(c.get("r")))
                   for c in root.iter(f"{ns}circle")]
        assert len(circles) == 7
        polyline = root.find(f"{ns}polyline")
        last_x, last_y = map(float, polyline.get("points").split()[-1].split(","))
        inside = any((last_x - cx) ** 2 + (last_y - cy) ** 2 <= r ** 2
                     for cx, cy, r in circles)
        assert inside  # the endpoint lands inside its hump circle

    def test_reward_curves_and_kl_tiles(self, tmp_path):
        curve = tmp_path / "curve.csv"
        curve.write_text("episode,mean_reward_window\n1,0.1\n2,0.5\n3,0.9\n")
        render_svg("reward_curves", [str(curve)], str(tmp_path / "r.svg"))
        kl = tmp_path / "kl.csv"
        kl.write_text("iteration,player,kl_fusion,kl_inherit,kl_scratch\n"
                      "1,0,0.001,0.05,0.1\n1,1,0.002,0.04,0.09\n"
                      "2,0,0.001,0.03,0.12\n")
        render_svg("kl_tiles", [str(kl)], str(tmp_path / "k.svg"))
        root = ET.fromstring((tmp_path / "k.svg").read_text())
        ns = "{http://www.w3.org/2000/svg}"
        assert len(list(root.iter(f"{ns}rect"))) == 1 + 6  # bg + 2 iters x 3

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(PlotError, match="kind"):
            render_svg("pie", [], str(tmp_path / "x.svg"))

    def test_plot_cli(self, tmp_path):
        src = tmp_path / "results.csv"
        _write_results(src, [(1, 0.5, "", 2, 2)])
        out = tmp_path / "cli.svg"
        assert main(["plot", "--kind", "exploitability", "--in", str(src),
                     "--out", str(out)]) == 0
        assert out.exists()


# SHA-256 of each shipped config's echo, `json.dumps(config_to_dict(...),
# indent=2, sort_keys=True)`, recorded before the spec dataclasses became the
# only schema and re-recorded when the `node_budget` field was removed (each
# echo lost its `"node_budget": null` line and nothing else). The echo is
# what `gamepop eval` rebuilds a run from.
SHIPPED_ECHOES = {
    "goofspiel4_desk.json":
        "0e8a7c0aa0d2c0d2cec4f6a74fcb5063c59384234ccb0101bc0a48928ed1b8ea",
    "goofspiel5_full.json":
        "e98c7500e7cd044456f155665a864131e1439f035db26dd831ab5598140e58bd",
    "kuhn_exact.json":
        "d469756e3c3ffa52d74de81a630e75409a39f5e540cbccbb8fd55b7c6df3035e",
    "leduc_full.json":
        "a87dc38a47b04b3eaf959ed082a464af975090c1b8b67039c05c2e723b3a02c1",
    "liars_dice_desk.json":
        "257785a847ffee9f586e5c5e3e646704d441fdcecf564fc47fb382d571ef8926",
    "liars_dice_full.json":
        "cdf9b445637d34e1cadf299886cfe4995fc39d27a0216535eaf8ed84519d78e1",
    "ntmg_desk.json":
        "1ade3b9975bd08ec6f05e8eac0ab0de0effbba6c79e0eee0421b5f7368d3c2d3",
    "rps_exact.json":
        "8310d6e3c950028b84272d967d2d1f8d8bd7da319f684ea03e957d52e1fd988f",
}


def test_shipped_configs_parse():
    import glob
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                          "configs", "*.json")))
    assert len(paths) >= 8
    for path in paths:
        config = load_config(path)
        assert config.iterations >= 1
        echo = json.dumps(config_to_dict(config), indent=2, sort_keys=True)
        assert hashlib.sha256(echo.encode()).hexdigest() == \
            SHIPPED_ECHOES[os.path.basename(path)], echo
        assert parse_config(json.loads(echo)) == config
        _build_arena(config)  # the run would start


def test_eval_command_recomputes_exploitability(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, minimal_config(out))
    run_from_config(path)
    assert main(["eval", "--run-dir", str(out / "seed_0")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "iterations 4"
    assert lines[1] == "population 5 5"
    assert abs(float(lines[2].split()[1])) <= 1e-9


# Runs that write every kind of output: payoff matrices and checkpoints
# (all), reward curves and kl_compare rows (DQN with the diagnostic on), and
# trajectories (the plane game).
_RERUN_CONFIGS = {
    "kuhn_exact": {"game": {"name": "kuhn_poker", "params": {}},
                   "oracle": {"kind": "exact"}, "mss": {"kind": "nash"},
                   "init": {"method": "inherit_latest"}},
    "liars_dice_dqn": {
        "game": {"name": "liars_dice", "params": {"faces": 2}},
        "oracle": {"kind": "dqn", "hidden_layers": [8], "episodes": 12,
                   "batch_size": 8, "replay_capacity": 64},
        "mss": {"kind": "nash"},
        "init": {"method": "nash_fusion", "c": 2, "top_k": "all",
                 "weights": "nash"},
        "diagnostics": {"kl_compare": True, "kl_states": 8}},
    "ntmg": {"game": {"name": "ntmg", "params": {}},
             "oracle": {"kind": "gradient", "steps": 5, "lr": 1.0},
             "mss": {"kind": "nash"}, "init": {"method": "inherit_latest"},
             "eval": {"exact_exploitability_every": 0}},
}


def _rerun_listing(tmp_path, earlier, later):
    """Run `earlier` into `reused`, then `later` into `reused` and `fresh`:
    each run directory's paths, timings aside, each file's bytes (None for
    a directory), after the first run and after the two later ones."""

    def listing(root):
        return {str(path.relative_to(root)):
                path.read_bytes() if path.is_file() else None
                for path in root.rglob("*") if path.name != "timings.csv"}

    run_from_config(write_config(tmp_path, {**earlier, "seeds": [0]}),
                    str(tmp_path / "reused"))
    first = listing(tmp_path / "reused")
    for out in ("reused", "fresh"):
        run_from_config(write_config(tmp_path, {**later, "seeds": [0]}),
                        str(tmp_path / out))
    return (first, listing(tmp_path / "reused"),
            listing(tmp_path / "fresh"))


@pytest.mark.parametrize("name", sorted(_RERUN_CONFIGS))
def test_a_shorter_rerun_leaves_what_a_fresh_run_writes(tmp_path, name):
    """After a 5-iteration run, a 2-iteration rerun into the same directory
    leaves it byte for byte as a fresh 2-iteration run leaves its own,
    timings aside: none of the longer run's outputs stay behind."""
    data = _RERUN_CONFIGS[name]
    longer, rerun, fresh = _rerun_listing(tmp_path,
                                          {**data, "iterations": 5},
                                          {**data, "iterations": 2})
    assert set(longer) > set(fresh)  # the rerun has files to delete
    assert rerun == fresh


def test_a_rerun_that_writes_no_curves_leaves_no_curves_folder(tmp_path):
    """A DQN run writes reward curves and the exact oracle none: an exact
    rerun into its directory deletes the curves and their emptied folder,
    and leaves the directory as a fresh exact run leaves its own."""
    dqn = {**_RERUN_CONFIGS["liars_dice_dqn"], "iterations": 3}
    exact = {**_RERUN_CONFIGS["kuhn_exact"], "game": dqn["game"],
             "iterations": 2}
    earlier, rerun, fresh = _rerun_listing(tmp_path, dqn, exact)
    assert earlier["seed_0/curves"] is None
    assert "seed_0/curves" not in fresh
    assert rerun == fresh


def test_eval_reads_the_run_that_results_csv_records(tmp_path, capsys):
    """Eval evaluates the iterations results.csv records, though the run
    directory holds checkpoints and a payoff matrix past the last of them,
    as a run that stopped within an iteration leaves it; a file it needs
    but lacks is an error. The leftovers are a longer earlier run's, put
    back after a shorter rerun into the same directory has deleted them."""
    out = tmp_path / "out"
    seed_dir = out / "seed_0"
    data = {"game": {"name": "kuhn_poker", "params": {}},
            "oracle": {"kind": "exact"}, "mss": {"kind": "nash"},
            "init": {"method": "inherit_latest"}, "seeds": [0]}
    later = ["payoff_matrix_6.txt"] + [
        os.path.join("checkpoints", f"iter_{t:04d}_p{player}.json")
        for t in (4, 5, 6) for player in (0, 1)]
    kept = {}
    for iterations in (6, 3):
        run_from_config(write_config(tmp_path, {**data,
                                                "iterations": iterations}),
                        str(out))
        kept = kept or {name: (seed_dir / name).read_bytes()
                        for name in later}
    assert not any((seed_dir / name).exists() for name in later)
    for name, text in kept.items():
        (seed_dir / name).write_bytes(text)
    (seed_dir / "checkpoints" / "notes.txt").write_text("not a checkpoint")
    recorded = (seed_dir / "results.csv").read_text().splitlines()[-1]
    capsys.readouterr()
    assert main(["eval", "--run-dir", str(seed_dir)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "iterations 3", "population 4 4",
        f"exploitability {recorded.split(',')[1]}"]
    os.remove(seed_dir / "checkpoints" / "iter_0002_p1.json")
    assert main(["eval", "--run-dir", str(seed_dir)]) == 2
    assert capsys.readouterr().err == (
        f"error: {seed_dir / 'checkpoints' / 'iter_0002_p1.json'}: "
        "No such file or directory\n")


def test_eval_without_the_last_payoff_matrix_is_an_error(tmp_path, capsys):
    out = tmp_path / "out"
    run_from_config(write_config(tmp_path, minimal_config(out)))
    os.remove(out / "seed_0" / "payoff_matrix_4.txt")
    assert main(["eval", "--run-dir", str(out / "seed_0")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "payoff_matrix_4.txt" in err


@pytest.mark.parametrize("text", ['{"table": {"',
                                  '{"table": {"k": [NaN, 1.0]}}'])
def test_eval_of_a_corrupt_checkpoint_is_an_error(tmp_path, capsys, text):
    """A checkpoint that holds no policy, truncated or with a NaN
    probability, is reported by name, as a missing one is."""
    out = tmp_path / "out"
    run_from_config(write_config(tmp_path, minimal_config(out)))
    path = out / "seed_0" / "checkpoints" / "iter_0002_p1.json"
    path.write_text(text)
    capsys.readouterr()
    assert main(["eval", "--run-dir", str(out / "seed_0")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
