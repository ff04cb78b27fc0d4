import ast
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sectorlab import channels, cli, sectors, thermal
from sectorlab import serialize as io
from sectorlab.algebra import vector_state
from sectorlab.channels import ClassifyingSpace
from sectorlab.groups import IsotypicError, cyclic_group, regular_rep
from sectorlab.models import (
    coupled_chain_hamiltonian,
    moment_grid,
    moment_system,
    two_level_hierarchy,
    z2_chain_net,
)
from sectorlab.thermal import (
    HamiltonianSystem,
    build_thermal_channel,
    gibbs_state,
    thermal_function,
)

from conftest import SZ


class TestJsonRoundTrips:
    def test_matrix(self, rng):
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        again = io.matrix_from_json(io.matrix_to_json(m))
        assert np.array_equal(m, again)

    def test_matrix_shape_mismatch(self):
        with pytest.raises(io.InputFormatError):
            io.matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 2.9, -1])
    @pytest.mark.parametrize("field", ["rows", "cols", "sites", "onsite_dim"])
    def test_counts_must_be_integral(self, field, value):
        # a count is a finite, integral, non-negative number (sites >= 1):
        # int() would raise OverflowError on inf and read 2.9 as 2
        net = io.net_to_json(z2_chain_net(2))
        obj = net if field in ("sites", "onsite_dim") else net["onsite_rep"][0]
        obj[field] = value
        with pytest.raises(io.InputFormatError, match=f"'{field}' must be an integer"):
            io.net_from_json(net)

    @pytest.mark.parametrize("value", [float("inf"), 2.9, -1])
    def test_field_dimension_is_a_count(self, value):
        assert io.algebra_from_json({"full_dim": 4.0}).ambient_dim == 4
        with pytest.raises(io.InputFormatError, match="'full_dim' must be an integer"):
            io.algebra_from_json({"full_dim": value})

    def test_integral_float_counts_accepted(self):
        net = io.net_to_json(z2_chain_net(2))
        net["sites"], net["onsite_rep"][0]["rows"] = 2.0, 2.0
        assert io.net_from_json(net).n_sites == 2
        with pytest.raises(io.InputFormatError, match="'sites' must be an integer of at least 1"):
            io.net_from_json({**net, "sites": 0})

    def test_infinite_rows_exit_2(self, example_tree, tmp_path):
        z3 = example_tree / "z2_chain_3"
        state = json.loads((z3 / "flipped_state.json").read_text())
        state["density"]["rows"] = float("inf")  # written as Infinity
        (tmp_path / "state.json").write_text(json.dumps(state))
        proc = run_cli("dhr", "check", "--net", str(z3 / "net.json"),
                       "--state", str(tmp_path / "state.json"),
                       "--vacuum", str(z3 / "vacuum.json"))
        assert proc.returncode == cli.EXIT_INPUT_ERROR
        assert "'rows' must be an integer" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("option, model, name", [
        ("--rep", "z2_chain_2", "rep.json"), ("--net", "z2_chain_3", "net.json")])
    def test_infinite_matrix_entry_exits_2_before_any_product(self, example_tree, tmp_path,
                                                               option, model, name):
        # the unitarity product of an infinite entry printed numpy's
        # "invalid value encountered in matmul" before the exit
        obj = json.loads((example_tree / model / name).read_text())
        mats = obj["matrices"] if option == "--rep" else obj["onsite_rep"]
        mats[1]["re"][0] = float("inf")  # written as Infinity
        (tmp_path / name).write_text(json.dumps(obj))
        z2, z3 = example_tree / "z2_chain_2", example_tree / "z2_chain_3"
        args = (["sectors", "analyze", "--field", str(z2 / "field.json"), "--group",
                 "cyclic:2", "--rep", str(tmp_path / name)] if option == "--rep" else
                ["dhr", "check", "--net", str(tmp_path / name),
                 "--state", str(z3 / "flipped_state.json"), "--vacuum", str(z3 / "vacuum.json")])
        proc = run_cli(*args)
        assert proc.returncode == cli.EXIT_INPUT_ERROR
        assert proc.stderr == (f"error: {tmp_path / name}: matrix for element 1 is not "
                               "unitary: it has non-finite entries\n")

    def test_site_count_checked_before_the_power(self, example_tree, tmp_path):
        # 2 ** int(1e308) would be formed exactly; the child runs under an
        # address-space cap and a time limit so that a regression cannot
        # take the machine's memory
        z3 = example_tree / "z2_chain_3"
        net = json.loads((z3 / "net.json").read_text())
        net["sites"] = 1e308
        (tmp_path / "net.json").write_text(json.dumps(net))
        cap = 2 << 30

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "sectorlab.cli", "dhr", "check",
             "--net", str(tmp_path / "net.json"), "--state", str(z3 / "flipped_state.json"),
             "--vacuum", str(z3 / "vacuum.json")],
            capture_output=True, text=True, timeout=60, preexec_fn=limit, env=env)
        assert proc.returncode == cli.EXIT_INPUT_ERROR, proc.stderr
        assert "sites exceed the cap: at most 8 sites of dimension 2" in proc.stderr

    def test_state(self):
        s = vector_state([1, 1j], "plus-i")
        again = io.state_from_json(io.state_to_json(s))
        assert again.label == "plus-i"
        assert np.allclose(again.density, s.density)

    def test_invalid_state_rejected(self):
        bad = {"label": "x", "density": io.matrix_to_json(np.diag([2.0, -1.0]))}
        with pytest.raises(ValueError):
            io.state_from_json(bad)

    def test_group_table_and_name(self):
        g1 = io.group_from_json("cyclic:4")
        assert g1.order == 4
        g2 = io.group_from_json(io.group_to_json(cyclic_group(3)))
        assert g2.order == 3

    def test_rep(self):
        rep = regular_rep(cyclic_group(2))
        again = io.rep_from_json(io.rep_to_json(rep))
        assert np.allclose(again.matrices, rep.matrices)

    def test_net(self):
        net = z2_chain_net(2)
        again = io.net_from_json(io.net_to_json(net))
        assert again.n_sites == 2
        assert again.onsite_dim == 2

    def test_grid(self):
        grid = moment_grid()
        again = io.grid_from_json(io.grid_to_json(grid))
        assert again.points == grid.points

    def test_hierarchy(self):
        h = two_level_hierarchy()
        again = io.hierarchy_from_json(io.hierarchy_to_json(h))
        assert [name for name, _ in again.levels] == ["normalization", "energy"]

    def test_channel(self):
        chan = build_thermal_channel(moment_system(), moment_grid())
        again = io.channel_from_json(io.channel_to_json(chan))
        assert again.space.labels == chan.space.labels
        assert np.allclose(again.densities(), chan.densities())

    def test_canonical_dump_is_stable(self):
        payload = {"a": 1.0 / 3.0, "b": [1, 2.5, "x"], "c": {"d": True}}
        assert io.dumps_canonical(payload) == io.dumps_canonical(payload)
        assert json.loads(io.dumps_canonical(payload))["a"] == 1.0 / 3.0

    def test_float_formatting_lossless(self, rng):
        for _ in range(200):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
            assert float(io.format_float(x)) == x


MIXED_EXPR = "1/2 s1 s2* - 2/3i s2 + 5/6 s1 s1* + 1/6 s2 s2* + (1/3 - 7/4i) s1 s1 s2*"
MIXED_FORM = "5/6 s1 s1* + 1/2 s1 s2* + -2/3i s2 + 1/6 s2 s2* + (1/3-7/4i) s1 s1 s2*"
FLOAT_EXPR = "(1/3 + 2i)(s1 - 3/4i s2*) + 0.1 s1 s1*"
FLOAT_FORM = "(1.5-0.25i) s2* + (0.33333333333333331+2i) s1 + 0.10000000000000001 s1 s1*"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "sectorlab.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )


@pytest.fixture(scope="module")
def example_tree(tmp_path_factory):
    base = tmp_path_factory.mktemp("models")
    proc = run_cli("examples", "init", "--dir", str(base))
    assert proc.returncode == 0
    return base


def subcommands(models, csv):
    """Arguments of each subcommand on the example tree; CSVs go to ``csv``."""
    z2, z3 = models / "z2_chain_2", models / "z2_chain_3"
    g, m = models / "gibbs_two_level", models / "moment_grid_12"
    return {
        "cuntz nf": ["cuntz", "nf", "--d", "2", "--expr", "s1 s1* + s2 s2*"],
        "thermal estimate": [
            "thermal", "estimate", "--system", str(g / "system.json"),
            "--grid", str(g / "grid.json"), "--measured", str(g / "measured.json"),
            "--hierarchy", str(g / "hierarchy.json"), "--csv", str(csv)],
        "channels invert": [
            "channels", "invert", "--channel", str(m / "channel.json"),
            "--probes", str(m / "probes.json"), "--data", str(m / "measured.json"),
            "--tol", "1e-6", "--design-csv", str(csv)],
        "dhr check": [
            "dhr", "check", "--net", str(z3 / "net.json"),
            "--state", str(z3 / "flipped_state.json"),
            "--vacuum", str(z3 / "vacuum.json")],
        "dhr invert": [
            "dhr", "invert", "--net", str(z3 / "net.json"),
            "--state", str(z3 / "flipped_state.json"),
            "--vacuum", str(z3 / "vacuum.json")],
        "sectors analyze": [
            "sectors", "analyze", "--field", str(z2 / "field.json"),
            "--group", str(z2 / "group.json"), "--rep", str(z2 / "rep.json"),
            "--state", str(z2 / "charged_state.json"),
            "--hamiltonian", str(z2 / "hamiltonian.json")],
        "examples init": ["examples", "init", "--dir", str(csv.parent / "examples")],
    }


class TestCliCommands:
    def test_examples_init_idempotent(self, example_tree):
        before = {
            p: p.read_bytes()
            for p in sorted(example_tree.rglob("*.json"))
        }
        assert len(before) >= 10
        proc = run_cli("examples", "init", "--dir", str(example_tree))
        assert proc.returncode == 0
        for p, content in before.items():
            assert p.read_bytes() == content

    def test_sectors_analyze(self, example_tree):
        d = example_tree / "z2_chain_2"
        proc = run_cli(
            "sectors", "analyze", "--field", str(d / "field.json"),
            "--group", str(d / "group.json"), "--rep", str(d / "rep.json"),
            "--state", str(d / "charged_state.json"),
            "--hamiltonian", str(d / "hamiltonian.json"),
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["center_dim"] == 2
        assert report["charges"] == {"gamma0": 0.0, "gamma1": 1.0}
        assert set(report["sector_energies"]) == {"gamma0", "gamma1"}

    def test_sectors_analyze_deterministic(self, example_tree):
        d = example_tree / "z2_chain_2"
        args = ("sectors", "analyze", "--field", str(d / "field.json"),
                "--group", str(d / "group.json"), "--rep", str(d / "rep.json"))
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_thermal_estimate_accepts_gibbs(self, example_tree, tmp_path):
        d = example_tree / "gibbs_two_level"
        csv_path = tmp_path / "tf.csv"
        proc = run_cli(
            "thermal", "estimate", "--system", str(d / "system.json"),
            "--grid", str(d / "grid.json"), "--measured", str(d / "measured.json"),
            "--hierarchy", str(d / "hierarchy.json"), "--csv", str(csv_path),
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["max_accepted_level"] == "energy"
        header = csv_path.read_text().splitlines()[0]
        assert header == "beta,mu,unit,energy"

    def test_thermal_estimate_csv_matches_thermal_function(
            self, example_tree, tmp_path, monkeypatch):
        d = example_tree / "gibbs_two_level"
        csv_path = tmp_path / "tf.csv"
        built = []
        original = thermal.build_thermal_channel

        def kept(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(thermal, "build_thermal_channel", kept)
        code = cli.main([
            "thermal", "estimate", "--system", str(d / "system.json"),
            "--grid", str(d / "grid.json"), "--measured", str(d / "measured.json"),
            "--hierarchy", str(d / "hierarchy.json"), "--csv", str(csv_path),
        ])
        assert code == 0
        system = io.system_from_json(io.load_json(d / "system.json"))
        grid = io.grid_from_json(io.load_json(d / "grid.json"))
        # one channel, one fibre per grid point, bit for bit its Gibbs state
        (channel,) = built
        assert channel.space.size == len(grid.points)
        for (beta, mu), fibre in zip(grid.points, channel.fibre_states):
            assert np.array_equal(fibre.density, gibbs_state(system, beta, mu).density)
        probes = io.hierarchy_from_json(io.load_json(d / "hierarchy.json")).levels[-1][1]
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        assert table.shape == (len(grid.points), 2 + len(probes))
        for j, (_, m) in enumerate(probes):
            assert np.allclose(table[:, 2 + j], thermal_function(system, grid, m),
                               rtol=0, atol=1e-12)

    def test_thermal_estimate_csv_reuses_the_report_design(
            self, example_tree, tmp_path, monkeypatch):
        # the CSV's thermal functions are the report's own design rows
        d = example_tree / "moment_grid_12"
        csv_path = tmp_path / "tf.csv"
        calls = []
        original = channels.design_matrix

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(channels, "design_matrix", counted)
        monkeypatch.setattr(thermal, "design_matrix", counted)
        code = cli.main([
            "thermal", "estimate", "--system", str(d / "system.json"),
            "--grid", str(d / "grid.json"), "--measured", str(d / "measured.json"),
            "--hierarchy", str(d / "hierarchy.json"), "--csv", str(csv_path),
        ])
        assert code == 0
        assert len(calls) == 1
        assert len(csv_path.read_text().splitlines()) == 1 + len(moment_grid().points)

    def test_channels_invert_design_csv_reuses_the_solve_design(
            self, example_tree, tmp_path, monkeypatch):
        # the CSV's rows are the design the solve ran on, computed once
        d = example_tree / "moment_grid_12"
        csv_path = tmp_path / "design.csv"
        calls = []
        original = channels.design_matrix

        def counted(*args, **kwargs):
            calls.append(original(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(channels, "design_matrix", counted)
        code = cli.main([
            "channels", "invert", "--channel", str(d / "channel.json"),
            "--probes", str(d / "probes.json"), "--data", str(d / "measured.json"),
            "--design-csv", str(csv_path)])
        assert code == 0
        (design,) = calls
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2,
                           usecols=range(1, design.shape[1] + 1))
        assert np.array_equal(table, design)

    def test_import_leaves_scipy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, sectorlab.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_thermal_estimate_rejects_infeasible(self, example_tree, tmp_path):
        d = example_tree / "gibbs_two_level"
        bad = tmp_path / "bad_measured.json"
        bad.write_text(json.dumps({"values": {"unit": 1.0, "energy": 2.0}}))
        proc = run_cli(
            "thermal", "estimate", "--system", str(d / "system.json"),
            "--grid", str(d / "grid.json"), "--measured", str(bad),
            "--hierarchy", str(tmp_path / "h.json"),
        )
        assert proc.returncode == 2  # hierarchy file missing -> input error
        (tmp_path / "h.json").write_text(
            json.dumps({"levels": [{"name": "energy", "probes": [
                {"name": "energy", "matrix": io.matrix_to_json(SZ)}]}]})
        )
        proc = run_cli(
            "thermal", "estimate", "--system", str(d / "system.json"),
            "--grid", str(d / "grid.json"), "--measured", str(bad),
            "--hierarchy", str(tmp_path / "h.json"),
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["max_accepted_level"] is None

    def test_thermal_estimate_tol_below_the_residual_rejects(self, example_tree, tmp_path):
        # a unit value off by 1e-10 leaves that residual at every level:
        # accepted at the default 1e-8, rejected at --tol 1e-12
        d = example_tree / "gibbs_two_level"
        measured = io.load_json(d / "measured.json")
        measured["values"]["unit"] = 1.0 + 1e-10
        (tmp_path / "measured.json").write_text(json.dumps(measured))
        args = ["thermal", "estimate", "--system", str(d / "system.json"),
                "--grid", str(d / "grid.json"), "--measured", str(tmp_path / "measured.json"),
                "--hierarchy", str(d / "hierarchy.json")]
        proc = run_cli(*args)
        assert proc.returncode == 0
        levels = json.loads(proc.stdout)["levels"]
        assert all(1e-12 < v["residual"] <= 1e-8 for v in levels)
        proc = run_cli(*args, "--tol", "1e-12")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["max_accepted_level"] is None
        assert all(v["tolerance"] == 1e-12 for v in report["levels"])

    def test_thermal_estimate_reports_rank_and_sigma_min(self, example_tree, capsys):
        d = example_tree / "moment_grid_12"
        args = ["thermal", "estimate", "--system", str(d / "system.json"),
                "--grid", str(d / "grid.json"), "--measured", str(d / "measured.json"),
                "--hierarchy", str(d / "hierarchy.json")]
        assert cli.main(args) == 0
        text = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == text  # byte-reproducible
        channel = build_thermal_channel(
            io.system_from_json(io.load_json(d / "system.json")),
            io.grid_from_json(io.load_json(d / "grid.json")))
        hierarchy = io.hierarchy_from_json(io.load_json(d / "hierarchy.json"))
        levels = json.loads(text)["levels"]
        assert len(levels) == hierarchy.n_levels
        for level, (_, probes) in zip(levels, hierarchy.levels):
            sep = channels.separation_check(channel, [m for _, m in probes])
            assert level["rank"] == sep.rank
            assert level["sigma_min"] == sep.sigma_min
            assert level["nullspace_dim"] == channel.space.size - sep.rank
        assert levels[-1]["rank"] == 11 and levels[-1]["sigma_min"] > 0

    @pytest.mark.parametrize("factor, code", [(0.99, 0), (1.01, 2)])
    def test_thermal_estimate_beta_bound(self, example_tree, tmp_path, factor, code):
        # beta up to 1e150 gives finite moments and no warning; above it the
        # grid is an input error that names its file, before any exponent
        d = example_tree / "gibbs_two_level"
        grid = json.loads((d / "grid.json").read_text())
        grid["points"][-1]["beta"] = factor * 1e150
        path = tmp_path / "big_grid.json"
        path.write_text(json.dumps(grid))
        proc = run_cli(
            "thermal", "estimate", "--system", str(d / "system.json"),
            "--grid", str(path), "--measured", str(d / "measured.json"),
            "--hierarchy", str(d / "hierarchy.json"),
        )
        assert proc.returncode == code, proc.stderr
        assert "Warning" not in proc.stderr
        if code == 0:
            assert proc.stderr == ""
            moments = [lv["moments"]["beta"] for lv in json.loads(proc.stdout)["levels"]]
            assert all(np.isfinite(m["variance"]) and m["variance"] > 0 for m in moments)
        else:
            assert proc.stderr.splitlines()[-1] == (
                f"error: {path}: grid point ({factor * 1e150!r}, None) is beyond "
                "the bound 1e+150 on beta and |mu|")

    @pytest.mark.parametrize("beta", [float("inf"), float("nan")])
    def test_thermal_estimate_non_finite_beta_is_an_input_error(
            self, example_tree, tmp_path, beta):
        d = example_tree / "gibbs_two_level"
        grid = json.loads((d / "grid.json").read_text())
        grid["points"][1]["beta"] = beta
        bad = tmp_path / "grid.json"
        bad.write_text(json.dumps(grid))
        proc = run_cli(
            "thermal", "estimate", "--system", str(d / "system.json"),
            "--grid", str(bad), "--measured", str(d / "measured.json"),
            "--hierarchy", str(d / "hierarchy.json"),
        )
        assert proc.returncode == 2
        assert "grid point" in proc.stderr and "is not finite" in proc.stderr
        assert proc.stdout == ""

    def test_thermal_estimate_non_finite_hamiltonian_is_an_input_error(
            self, example_tree, tmp_path):
        d = example_tree / "gibbs_two_level"
        system = json.loads((d / "system.json").read_text())
        h = io.matrix_from_json(system["hamiltonian"])
        h[0, 0] = np.nan
        system["hamiltonian"] = io.matrix_to_json(h)
        bad = tmp_path / "system.json"
        bad.write_text(json.dumps(system))
        proc = run_cli(
            "thermal", "estimate", "--system", str(bad),
            "--grid", str(d / "grid.json"), "--measured", str(d / "measured.json"),
            "--hierarchy", str(d / "hierarchy.json"),
        )
        assert proc.returncode == 2
        assert "Hamiltonian has non-finite entries" in proc.stderr
        assert proc.stdout == ""

    def test_thermal_estimate_infinite_probe_is_an_input_error(
            self, example_tree, tmp_path):
        d = example_tree / "gibbs_two_level"
        probe = io.matrix_to_json(np.diag([1.0, np.inf]).astype(complex))
        bad = tmp_path / "hierarchy.json"
        bad.write_text(json.dumps({"levels": [{"name": "only", "probes": [
            {"name": "energy", "matrix": probe}]}]}))
        assert "Infinity" in bad.read_text()
        proc = run_cli(
            "thermal", "estimate", "--system", str(d / "system.json"),
            "--grid", str(d / "grid.json"), "--measured", str(d / "measured.json"),
            "--hierarchy", str(bad),
        )
        assert proc.returncode == 2
        assert "non-finite" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("shape", [(1, 4), (4, 1), (3, 3)])
    def test_thermal_estimate_misshaped_probe_is_an_input_error(
            self, shape, example_tree, tmp_path):
        # the two-level fibres are 2 x 2; a 1 x 4 probe has their four entries
        d = example_tree / "gibbs_two_level"
        probe = io.matrix_to_json(np.ones(shape, dtype=complex))
        bad = tmp_path / "hierarchy.json"
        bad.write_text(json.dumps({"levels": [{"name": "only", "probes": [
            {"name": "energy", "matrix": probe}]}]}))
        proc = run_cli(
            "thermal", "estimate", "--system", str(d / "system.json"),
            "--grid", str(d / "grid.json"), "--measured", str(d / "measured.json"),
            "--hierarchy", str(bad),
        )
        assert proc.returncode == 2
        assert f"probe 0 has shape {shape}, but the fibres are (2, 2)" in proc.stderr
        assert proc.stdout == ""

    def test_thermal_estimate_mixed_probe_shapes_are_an_input_error(
            self, example_tree, tmp_path):
        d = example_tree / "gibbs_two_level"
        hierarchy = json.loads((d / "hierarchy.json").read_text())
        hierarchy["levels"][1]["probes"][1]["matrix"] = io.matrix_to_json(
            np.array([[1.0, 0.0, 0.0, -1.0]], dtype=complex))
        bad = tmp_path / "hierarchy.json"
        bad.write_text(json.dumps(hierarchy))
        proc = run_cli(
            "thermal", "estimate", "--system", str(d / "system.json"),
            "--grid", str(d / "grid.json"), "--measured", str(d / "measured.json"),
            "--hierarchy", str(bad),
        )
        assert proc.returncode == 2
        assert "probe 'energy' of level 'energy' has shape (1, 4)" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("shape", [(1, 144), (144, 1), (3, 3)])
    def test_channels_invert_misshaped_probe_is_an_input_error(
            self, shape, example_tree, tmp_path):
        d = example_tree / "moment_grid_12"
        probes = json.loads((d / "probes.json").read_text())
        probes[2]["matrix"] = io.matrix_to_json(np.ones(shape, dtype=complex))
        bad = tmp_path / "probes.json"
        bad.write_text(json.dumps(probes))
        proc = run_cli(
            "channels", "invert", "--channel", str(d / "channel.json"),
            "--probes", str(bad), "--data", str(d / "measured.json"),
        )
        assert proc.returncode == 2
        assert f"probe 2 has shape {shape}, but the fibres are (12, 12)" in proc.stderr
        assert proc.stdout == ""

    def test_thermal_estimate_reports_solver_state(self, example_tree, capsys):
        d = example_tree / "moment_grid_12"
        args = ["thermal", "estimate", "--system", str(d / "system.json"),
                "--grid", str(d / "grid.json"), "--measured", str(d / "measured.json"),
                "--hierarchy", str(d / "hierarchy.json")]
        assert cli.main(args) == 0
        levels = json.loads(capsys.readouterr().out)["levels"]
        channel = build_thermal_channel(
            io.system_from_json(io.load_json(d / "system.json")),
            io.grid_from_json(io.load_json(d / "grid.json")))
        hierarchy = io.hierarchy_from_json(io.load_json(d / "hierarchy.json"))
        measured = io.measured_from_json(io.load_json(d / "measured.json"))
        for level, (_, probes) in zip(levels, hierarchy.levels):
            result = channels.invert_cq(channel, [m for _, m in probes],
                                        np.array([measured[n] for n, _ in probes]))
            assert list(level)[2:5] == ["residual", "kkt_residual", "converged"]
            assert level["converged"] is True
            assert level["kkt_residual"] == pytest.approx(result.kkt_residual, abs=1e-12)

    def test_dhr_check_pass_and_fail(self, example_tree, tmp_path):
        d = example_tree / "z2_chain_3"
        proc = run_cli(
            "dhr", "check", "--net", str(d / "net.json"),
            "--state", str(d / "flipped_state.json"),
            "--vacuum", str(d / "vacuum.json"), "--tol", "1e-10",
        )
        assert proc.returncode == 0
        assert [1] in json.loads(proc.stdout)["witness_regions"]

        gibbs = gibbs_state(HamiltonianSystem(coupled_chain_hamiltonian(3)), 1.0)
        bad = tmp_path / "gibbs.json"
        bad.write_text(io.dumps_canonical(io.state_to_json(gibbs)))
        proc = run_cli(
            "dhr", "check", "--net", str(d / "net.json"), "--state", str(bad),
            "--vacuum", str(d / "vacuum.json"), "--tol", "1e-6",
        )
        assert proc.returncode == 1
        assert not json.loads(proc.stdout)["passes"]

    def test_dhr_invert(self, example_tree):
        d = example_tree / "z2_chain_3"
        proc = run_cli(
            "dhr", "invert", "--net", str(d / "net.json"),
            "--state", str(d / "flipped_state.json"),
            "--vacuum", str(d / "vacuum.json"),
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["found"] and report["region"] == [1]
        # the identity, then X on the one witness region searched first
        assert (report["miss"], report["candidates_tried"]) == (None, 2)

    def test_dhr_invert_provable_miss(self, example_tree, tmp_path):
        d = example_tree / "z2_chain_3"
        vec = np.zeros(8)
        vec[0b101] = 1.0
        state = tmp_path / "ends.json"
        state.write_text(io.dumps_canonical(io.state_to_json(vector_state(vec, "ends"))))
        proc = run_cli("dhr", "invert", "--net", str(d / "net.json"),
                       "--state", str(state), "--vacuum", str(d / "vacuum.json"))
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert not report["found"] and report["region"] is None
        assert (report["miss"], report["candidates_tried"]) == ("excluded", 1)
        assert report["distance"] == 2.0

    def test_dhr_non_finite_state_is_an_input_error(self, example_tree, tmp_path):
        d = example_tree / "z2_chain_3"
        state = json.loads((d / "flipped_state.json").read_text())
        rho = io.matrix_from_json(state["density"])
        rho[0, 1] = rho[1, 0] = np.nan
        state["density"] = io.matrix_to_json(rho)
        bad = tmp_path / "nan_state.json"
        bad.write_text(json.dumps(state))
        for sub in ("check", "invert"):
            proc = run_cli("dhr", sub, "--net", str(d / "net.json"),
                           "--state", str(bad), "--vacuum", str(d / "vacuum.json"))
            assert proc.returncode == 2
            assert "density has non-finite entries" in proc.stderr
            assert proc.stdout == ""

    def test_state_trace_checked_at_state_tolerance(self, example_tree, tmp_path):
        # a trace off by 1e-9 is beyond the 1e-10 state tolerance
        d = example_tree / "z2_chain_3"
        state = json.loads((d / "flipped_state.json").read_text())
        rho = io.matrix_from_json(state["density"])
        rho[0, 0] += 1e-9
        state["density"] = io.matrix_to_json(rho)
        bad = tmp_path / "trace_state.json"
        bad.write_text(json.dumps(state))
        proc = run_cli("dhr", "check", "--net", str(d / "net.json"),
                       "--state", str(bad), "--vacuum", str(d / "vacuum.json"))
        assert proc.returncode == 2
        assert "density trace != 1" in proc.stderr
        assert proc.stdout == ""

    def test_cuntz_nf_text_and_json(self):
        proc = run_cli("--format", "text", "cuntz", "nf", "--d", "2",
                       "--expr", "s1* s2 s2* s1")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0"
        proc = run_cli("cuntz", "nf", "--d", "2",
                       "--expr", "s1 s1* + s2 s2*", "--json")
        report = json.loads(proc.stdout)
        assert report["normal_form"] == "1"
        assert report["exact"]

    @pytest.mark.parametrize("expr, fmt, stdout", [
        (MIXED_EXPR, "text", MIXED_FORM + "\n"),
        (MIXED_EXPR, "json",
         '{\n  "d": 2,\n  "normal_form": "' + MIXED_FORM + '",\n  "exact": true,\n'
         '  "terms": [\n'
         '    {\n      "mu": [1],\n      "nu": [1],\n      "re": "5/6",\n      "im": "0"\n    },\n'
         '    {\n      "mu": [1],\n      "nu": [2],\n      "re": "1/2",\n      "im": "0"\n    },\n'
         '    {\n      "mu": [2],\n      "nu": [],\n      "re": "0",\n      "im": "-2/3"\n    },\n'
         '    {\n      "mu": [2],\n      "nu": [2],\n      "re": "1/6",\n      "im": "0"\n    },\n'
         '    {\n      "mu": [1, 1],\n      "nu": [2],\n      "re": "1/3",\n'
         '      "im": "-7/4"\n    }\n  ]\n}\n'),
        (FLOAT_EXPR, "text", FLOAT_FORM + "\n"),
        (FLOAT_EXPR, "json",
         '{\n  "d": 2,\n  "normal_form": "' + FLOAT_FORM + '",\n  "exact": false,\n'
         '  "terms": [\n'
         '    {\n      "mu": [],\n      "nu": [2],\n      "re": 1.5,\n      "im": -0.25\n    },\n'
         '    {\n      "mu": [1],\n      "nu": [],\n      "re": 0.33333333333333331,\n'
         '      "im": 2.0\n    },\n'
         '    {\n      "mu": [1],\n      "nu": [1],\n      "re": 0.10000000000000001,\n'
         '      "im": 0.0\n    }\n  ]\n}\n'),
    ], ids=["exact-text", "exact-json", "float-text", "float-json"])
    def test_cuntz_nf_bytes_pinned(self, expr, fmt, stdout, capsys):
        # mixed denominators, purely imaginary and complex coefficients: a
        # change of coefficient representation must not move a byte
        args = ["cuntz", "nf", "--d", "2", "--expr", expr]
        assert cli.main(["--format", "text", *args] if fmt == "text"
                        else [*args, "--json"]) == 0
        out, err = capsys.readouterr()
        assert (out, err) == (stdout, "")

    def test_cuntz_bad_expression(self):
        proc = run_cli("cuntz", "nf", "--d", "2", "--expr", "s9 +")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_channels_invert(self, example_tree, tmp_path):
        d = example_tree / "moment_grid_12"
        design = tmp_path / "design.csv"
        proc = run_cli(
            "channels", "invert", "--channel", str(d / "channel.json"),
            "--probes", str(d / "probes.json"), "--data", str(d / "measured.json"),
            "--tol", "1e-6", "--design-csv", str(design),
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["unique"] and report["rank"] == 11
        truth = json.loads((d / "true_weights.json").read_text())["weights"]
        err = sum(abs(a - b) for a, b in zip(report["weights"], truth))
        assert err <= 1e-6
        assert design.read_text().startswith("probe,")

    def test_missing_file_exit_code(self):
        proc = run_cli("dhr", "check", "--net", "missing.json",
                       "--state", "x.json", "--vacuum", "y.json")
        assert proc.returncode == 2

    def test_malformed_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        proc = run_cli("dhr", "check", "--net", str(bad),
                       "--state", str(bad), "--vacuum", str(bad))
        assert proc.returncode == 2
        assert "line" in proc.stderr and "column" in proc.stderr


class TestExitCodes:
    def test_computation_failure_exits_3(self, example_tree, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise IsotypicError("unresolved")

        monkeypatch.setattr(sectors, "decompose_sectors", fail)
        d = example_tree / "z2_chain_2"
        code = cli.main(["sectors", "analyze", "--field", str(d / "field.json"),
                         "--group", str(d / "group.json"), "--rep", str(d / "rep.json")])
        assert code == cli.EXIT_COMPUTATION_FAILED == 3
        assert "computation failed" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [
        MemoryError("Unable to allocate 4.00 GiB"), MemoryError(),
        np.linalg.LinAlgError("SVD did not converge"),
    ], ids=["memory", "memory-bare", "linalg"])
    def test_resource_failure_exits_3(self, error, example_tree, monkeypatch, capsys):
        # a crash is never exit 1, the code of a rejected criterion; and
        # LinAlgError, a ValueError, is not an input error
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(sectors, "decompose_sectors", fail)
        d = example_tree / "z2_chain_2"
        code = cli.main(["sectors", "analyze", "--field", str(d / "field.json"),
                         "--group", str(d / "group.json"), "--rep", str(d / "rep.json")])
        assert code == cli.EXIT_COMPUTATION_FAILED
        err = capsys.readouterr().err
        assert err.startswith("error: computation failed: ")
        assert (str(error) or type(error).__name__) in err

    @pytest.mark.parametrize("flag", ["--tol.rank", "--tol.state", "--tol.gap",
                                      "--tol.criterion"])
    def test_removed_tolerance_flags_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([f"{flag}=1e-9", "cuntz", "nf", "--d", "2", "--expr", "s1"])
        assert exc.value.code == cli.EXIT_INPUT_ERROR == 2
        assert f"unrecognized arguments: {flag}=1e-9" in capsys.readouterr().err

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_cuntz_nf_dimension_below_one_exits_2(self, d, capsys):
        code = cli.main(["cuntz", "nf", "--d", d, "--expr", "2 + 1/2"])
        assert code == cli.EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dimension must be at least 1" in captured.err

    # a 201-digit float squares past the float range; a 401-digit one is
    # already infinite, and its product with a generator has a nan part
    @pytest.mark.parametrize("expr, value", [
        (f"({'1' * 201}.0 s1)({'1' * 201}.0 s1*)", "inf"),
        (f"{'1' * 401}.0 s1", "nan"),
    ], ids=["overflow", "infinite-literal"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_cuntz_nf_non_finite_coefficient_exits_2(self, expr, value, fmt, to_file,
                                                     tmp_path, capsys):
        target = tmp_path / "nf.txt"
        argv = ["--format", fmt] + (["--out", str(target)] if to_file else [])
        code = cli.main(argv + ["cuntz", "nf", "--d", "2", "--expr", expr])
        assert code == cli.EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: non-finite value {value} in report\n"
        assert not target.exists()

    @pytest.mark.parametrize("command, out", [
        ("cuntz nf", True), ("thermal estimate", False), ("channels invert", False),
    ], ids=["out", "csv", "design-csv"])
    def test_output_path_at_a_directory_exits_2(self, command, out, example_tree,
                                                tmp_path):
        # --out at a directory, or the command's CSV path at one
        argv = subcommands(example_tree, csv=tmp_path)[command]
        proc = run_cli(*(["--out", str(tmp_path)] if out else []), *argv)
        assert proc.returncode == cli.EXIT_INPUT_ERROR
        assert proc.stderr.startswith(f"error: {tmp_path}: ")
        assert "Traceback" not in proc.stderr

    def test_examples_dir_at_a_file_exits_2(self, tmp_path):
        target = tmp_path / "taken"
        target.write_text("")
        proc = run_cli("examples", "init", "--dir", str(target))
        assert proc.returncode == cli.EXIT_INPUT_ERROR
        assert proc.stderr.startswith(f"error: {target}")
        assert "Traceback" not in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_exits_2(self):
        proc = run_cli("--out", "/dev/full", "cuntz", "nf", "--d", "2", "--expr", "s1")
        assert proc.returncode == cli.EXIT_INPUT_ERROR
        assert proc.stderr.startswith("error: ") and "None" not in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_z3_clock_sectors(self, tmp_path):
        w = np.exp(2j * np.pi / 3)
        clock = np.diag([1, w, w * w])
        (tmp_path / "field.json").write_text(json.dumps({"full_dim": 3}))
        io.write_report(tmp_path / "rep.json", {
            "group": "cyclic:3",
            "matrices": [io.matrix_to_json(np.linalg.matrix_power(clock, k))
                         for k in range(3)],
        })
        proc = run_cli("sectors", "analyze", "--field", str(tmp_path / "field.json"),
                       "--group", "cyclic:3", "--rep", str(tmp_path / "rep.json"))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["center_dim"] == 3


def test_channels_invert_checks_separation_once(example_tree, monkeypatch, capsys):
    # the rank test behind separation_check, which invert_cq runs on its
    # own design matrix; a second separation_check would count here too
    calls = []
    original = channels._separation

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(channels, "_separation", counted)
    d = example_tree / "moment_grid_12"
    code = cli.main(["channels", "invert", "--channel", str(d / "channel.json"),
                     "--probes", str(d / "probes.json"),
                     "--data", str(d / "measured.json")])
    assert code == 0
    assert len(calls) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["rank"] == 11 and report["sigma_min"] > 0


def test_reports_print_the_solve_count(example_tree, capsys):
    # `iterations`, the least-squares solves of each inversion, in JSON and
    # text, equal to the count the library returns for the same inputs
    d = example_tree / "moment_grid_12"
    thermal_args = ["thermal", "estimate", "--system", str(d / "system.json"),
                    "--grid", str(d / "grid.json"), "--measured", str(d / "measured.json"),
                    "--hierarchy", str(d / "hierarchy.json")]
    invert_args = ["channels", "invert", "--channel", str(d / "channel.json"),
                   "--probes", str(d / "probes.json"), "--data", str(d / "measured.json")]
    measured = io.read(d / "measured.json", io.measured_from_json)
    report = thermal.hierarchy_report(
        measured, io.read(d / "hierarchy.json", io.hierarchy_from_json),
        build_thermal_channel(io.read(d / "system.json", io.system_from_json),
                              io.read(d / "grid.json", io.grid_from_json)))
    expected = [v.iterations for v in report.verdicts]
    probes = io.read(d / "probes.json", io.probes_from_json)
    inverted = channels.invert_cq(io.read(d / "channel.json", io.channel_from_json),
                                  [m for _, m in probes],
                                  np.array([measured[n] for n, _ in probes]))
    assert min(expected + [inverted.iterations]) > 0
    assert cli.main(thermal_args) == cli.EXIT_OK
    levels = json.loads(capsys.readouterr().out)["levels"]
    assert [lv["iterations"] for lv in levels] == expected
    assert cli.main(invert_args) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["iterations"] == inverted.iterations
    assert cli.main(["--format", "text", *thermal_args]) == cli.EXIT_OK
    text = capsys.readouterr().out.splitlines()
    assert [f"levels[{i}].iterations = {n}" for i, n in enumerate(expected)] == [
        line for line in text if ".iterations" in line]
    assert cli.main(["--format", "text", *invert_args]) == cli.EXIT_OK
    assert f"iterations = {inverted.iterations}" in capsys.readouterr().out.splitlines()


ENGINES = {"algebra", "channels", "groups", "sectors", "dhrnet", "thermal",
           "cuntz", "models"}

# child: run one command through cli.main, then list the sectorlab modules
# that the run loaded
LOADED_BY = """
import json, sys
from sectorlab import cli
code = cli.main(sys.argv[1:])
mods = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("sectorlab."))
print(json.dumps({"code": code, "modules": mods}), file=sys.stderr)
"""


@pytest.mark.parametrize("command, runs, unloaded", [
    ("cuntz nf", "cuntz", ENGINES - {"cuntz"}),
    ("thermal estimate", "thermal", {"groups", "sectors", "dhrnet", "cuntz", "models"}),
    ("channels invert", "channels", {"groups", "sectors", "dhrnet", "cuntz", "models"}),
    ("dhr check", "dhrnet", {"thermal", "cuntz", "models", "sectors", "channels"}),
    ("dhr invert", "dhrnet", {"thermal", "cuntz", "models", "sectors", "channels"}),
    ("sectors analyze", "sectors", {"thermal", "cuntz", "models"}),
    ("examples init", "models", {"sectors"}),
])
def test_subcommand_loads_only_its_engines(command, runs, unloaded, example_tree,
                                           tmp_path):
    argv = ["--out", str(tmp_path / "report.json"),
            *subcommands(example_tree, csv=tmp_path / "out.csv")[command]]
    proc = subprocess.run([sys.executable, "-c", LOADED_BY, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stderr.strip().splitlines()[-1])
    assert result["code"] == cli.EXIT_OK
    loaded = set(result["modules"])
    assert runs in loaded
    assert not loaded & unloaded, sorted(loaded & unloaded)


def test_sectors_analyze_leaves_numpy_ma_unloaded(example_tree, tmp_path):
    # numpy.ma costs about 9 ms to import; the Wedderburn split needs none of it
    argv = ["--out", str(tmp_path / "report.json"),
            *subcommands(example_tree, csv=tmp_path / "out.csv")["sectors analyze"]]
    child = ("import sys\nfrom sectorlab import cli\ncode = cli.main(sys.argv[1:])\n"
             "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", child, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(cli.EXIT_OK), "False"]


# every file argument of every subcommand: (command, option)
FILE_ARGS = [
    (command, argv[i])
    for command, argv in subcommands(Path("m"), csv=Path("c")).items()
    for i in range(len(argv) - 1)
    if argv[i].startswith("--") and argv[i + 1].endswith(".json")
]
WHOLE_FILE = [5, "x", [], None, {}]
FIELD_VALUES = [None, "x", [0], {"x": 0}]
DELETE = object()


def field_paths(obj, path=()):
    """Paths of the object members in ``obj``; a list is entered through its
    first element only."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield path + (key,)
            yield from field_paths(value, path + (key,))
    elif isinstance(obj, list) and obj:
        yield from field_paths(obj[0], path + (0,))


def mutated(obj, path, value):
    """A copy of ``obj`` with the member at ``path`` replaced, or deleted."""
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    *head, last = path
    parent = obj
    for key in head:
        parent = parent[key]
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return obj


def run_main(argv, capsys):
    code = cli.main(argv)
    _, err = capsys.readouterr()
    return code, err


def test_every_malformed_input_file_exits_2_naming_it(example_tree, tmp_path, capsys):
    # each file argument in turn: the whole file replaced, and each member
    # replaced by a value of another type or deleted.  A run ends with the
    # unmutated code (the member was optional or any string will do) or
    # with exit 2 and a message naming the file; an escaping exception, the
    # traceback of a real run, fails the test
    failures = []
    for command, option in FILE_ARGS:
        argv = ["--out", str(tmp_path / "report"),
                *subcommands(example_tree, csv=tmp_path / "out.csv")[command]]
        i = argv.index(option) + 1
        expected, _ = run_main(argv, capsys)
        original = json.loads(Path(argv[i]).read_text())
        bad = tmp_path / f"mutated_{Path(argv[i]).name}"
        cases = [((), v) for v in WHOLE_FILE] + [
            (path, v) for path in field_paths(original)
            for v in FIELD_VALUES + [DELETE]]
        for path, value in cases:
            bad.write_text(json.dumps(mutated(original, path, value)))
            try:
                code, err = run_main([*argv[:i], str(bad), *argv[i + 1:]], capsys)
            except Exception as exc:  # each escape is a finding
                code, err = None, repr(exc)
            last = err.strip().splitlines()[-1] if err.strip() else ""
            named = last.startswith("error:") and str(bad) in last
            if not (code == expected or (code == cli.EXIT_INPUT_ERROR and named)):
                failures.append(f"{command} {option} {path} <- {value!r}: {code} {last}")
    assert len(FILE_ARGS) == 18
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("command, option, path, value", [
    ("thermal estimate", "--system", (), 5),
    ("thermal estimate", "--grid", (), []),
    ("channels invert", "--channel", (), []),
    ("thermal estimate", "--measured", ("values", "unit"), None),
    ("thermal estimate", "--grid", ("points",), [{"beta": None}]),
    ("thermal estimate", "--hierarchy", ("levels", 0, "probes"), [5]),
    ("dhr check", "--net", ("group",), {"order": 2, "table": [[0, 1], [1, float("inf")]]}),
    ("sectors analyze", "--hamiltonian", ("rows",), "4"),
    ("sectors analyze", "--hamiltonian", ("re", 0), "-1.0"),
    ("sectors analyze", "--hamiltonian", ("re", 0), None),
    ("thermal estimate", "--measured", ("values", "unit"), True),
    ("thermal estimate", "--grid", ("points", 0, "beta"), "0.5"),
    ("dhr check", "--net", ("group",), {"table": [[0, 1.9], [1.2, 0]]}),
    ("dhr check", "--net", ("group",), {"table": [[0, "1"], ["1", 0]]}),
    ("dhr check", "--net", ("group",), {"table": [[0, True], [True, 0]]}),
    ("channels invert", "--channel", ("space", "labels", 0, 0), "4.0"),
    ("thermal estimate", "--hierarchy", ("levels",), []),
], ids=["system-5", "grid-list", "channel-list", "null-value", "null-beta",
        "probe-5", "infinite-table-entry", "string-count", "string-entry", "null-entry",
        "bool-value", "string-beta", "fractional-table", "string-table", "bool-table",
        "string-label", "no-level"])
def test_wrong_type_is_an_input_error(command, option, path, value, example_tree,
                                      tmp_path, capsys):
    # the first seven once escaped the loaders as a TypeError or
    # OverflowError: a traceback and exit 1, the code of a rejection.  The
    # strings, booleans and fractions were read as numbers and ran to exit
    # 0; the null entry, read as NaN, exited 2 naming no file; a hierarchy
    # with no level tested nothing and exited 1
    argv = subcommands(example_tree, csv=tmp_path / "out.csv")[command]
    i = argv.index(option) + 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutated(json.loads(Path(argv[i]).read_text()), path, value)))
    code, err = run_main([*argv[:i], str(bad), *argv[i + 1:]], capsys)
    assert code == cli.EXIT_INPUT_ERROR
    assert err.startswith(f"error: {bad}: ")


def test_group_table_above_the_cap_exits_2(example_tree, tmp_path, capsys):
    # the order is read off the table's length before numpy reads the
    # table, which would fail on these ragged rows
    d = example_tree / "z2_chain_2"
    bad = tmp_path / "group.json"
    bad.write_text(json.dumps({"table": [[0]] + [[0, 1]] * 256}))
    code, err = run_main(["sectors", "analyze", "--field", str(d / "field.json"),
                          "--group", str(bad), "--rep", str(d / "rep.json")], capsys)
    assert code == cli.EXIT_INPUT_ERROR
    assert err.startswith(f"error: {bad}: group order 257 exceeds the cap 256")


def test_input_files_are_read_only_through_serialize_read():
    # cli.py reads no JSON itself, and no loader catches its own errors:
    # serialize.read is the one boundary that names the file
    package = Path(cli.__file__).parent
    cli_hits = [
        node.lineno for node in ast.walk(ast.parse((package / "cli.py").read_text()))
        if (isinstance(node, ast.Name) and node.id == "load_json")
        or (isinstance(node, ast.Attribute) and node.attr == "load_json")
    ]
    assert not cli_hits, f"cli.py uses load_json at lines {cli_hits}"
    loader_hits = [
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(ast.parse((package / "serialize.py").read_text()))
        if isinstance(fn, ast.FunctionDef) and fn.name.endswith("_from_json")
        for node in ast.walk(fn) if isinstance(node, ast.Try)
    ]
    assert not loader_hits, f"loaders with a try statement: {loader_hits}"


def test_numbers_are_read_only_through_one_helper():
    # float() reads "4" and True as numbers, and dtype=int reads 1.9 as 1:
    # a loader takes every number through serialize._number instead
    hits = [
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(ast.parse(Path(io.__file__).read_text()))
        if isinstance(fn, ast.FunctionDef) and fn.name.endswith("_from_json")
        for node in ast.walk(fn)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "int"))
        or (isinstance(node, ast.keyword) and node.arg == "dtype")
    ]
    assert not hits, f"loaders that convert numbers themselves: {hits}"
