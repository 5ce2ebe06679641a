import hashlib

import pytest

from coarselab import a1, cli, geodesics, graphs
from coarselab.a1 import ClaimViolation
from coarselab.cli import main, parse_space
from coarselab.graphs import load_graph, store_graph
from coarselab.spaces import broom_tree


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpaceSpecs:
    def test_known_kinds(self):
        assert parse_space("broom:4").graph.vertex_count == 11
        assert parse_space("tree:3,2").graph.vertex_count == 10
        assert parse_space("grid:3").graph.vertex_count == 9
        assert parse_space("farey:3").labels[0] == "1/0"

    def test_file_kind(self, tmp_path):
        g = broom_tree(3).graph
        path = tmp_path / "g.txt"
        path.write_text(store_graph(g))
        sp = parse_space(f"file:{path}")
        assert sp.graph == g

    def test_bad_specs_exit_2(self, capsys):
        for spec in ("nope:3", "broom", "broom:x"):
            code, _, err = run_cli(capsys, "gen", "--space", spec)
            assert code == 2
            assert "error" in err


class TestGen:
    def test_output_loads_back(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--space", "broom:5")
        assert code == 0
        g = load_graph(out)
        assert g == broom_tree(5).graph

    def test_labels_flag(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--space", "broom:2", "--labels")
        assert code == 0
        assert "# label 0 x0" in out

    def test_farey_note_present(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--space", "farey:4")
        assert code == 0
        assert "safe core" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run_cli(capsys, "gen", "--space", "grid:2", "--out", str(target))
        assert code == 0
        assert out == ""
        assert load_graph(target.read_text()).vertex_count == 4


class TestDelta:
    def test_tree_delta_zero(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "--space", "broom:10")
        assert code == 0
        assert "delta=0" in out

    def test_byte_deterministic(self, capsys):
        args = ("delta", "--space", "grid:4", "--family", "canonical", "--budget", "300", "--seed", "5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestPropb:
    def test_broom_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "propb", "--space", "broom:20", "--ell", "0", "--k", "0",
            "--rmax", "3", "--pair-budget", "60",
        )
        assert code == 0
        assert "observed_D=1" in out
        assert "violations_total=0" in out

    def test_grid_example_flags_violations(self, capsys):
        # k = 0 pins |G(a,b;r) ∩ N(c;0)| <= 1, so observed_D is 1 even on a
        # grid: the refutation shows up in the violation count instead
        code, out, _ = run_cli(
            capsys, "propb", "--space", "grid:8", "--ell", "0", "--k", "0",
            "--rmax", "3", "--pair-budget", "80",
        )
        assert code == 0
        assert "observed_D=1" in out
        assert "violations_total=0" not in out

    def test_default_k_uses_delta(self, capsys):
        code, out, _ = run_cli(
            capsys, "propb", "--space", "broom:15", "--rmax", "2", "--pair-budget", "40"
        )
        assert code == 0
        assert "delta_source=tree" in out
        assert "k_source=2*delta=0" in out


class TestCover:
    def test_broom_cover_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "cover", "--space", "broom:120", "--r", "1", "--ell", "0",
            "--d-constant", "1",
        )
        assert code == 0
        assert "diam_pass=yes" in out
        assert "mult_pass=yes" in out
        assert "asdim_upper=1" in out

    def test_dump_serialization(self, capsys):
        code, out, _ = run_cli(
            capsys, "cover", "--space", "broom:30", "--r", "1", "--ell", "0", "--dump"
        )
        assert code == 0
        assert "cover r=1 ell=0 base=0" in out
        assert "set n=1 anchor=- :" in out

    def test_ell_violation_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "cover", "--space", "grid:4", "--r", "1", "--ell", "0", "--delta", "2"
        )
        assert code == 2
        assert "ell" in err


class TestA1:
    def test_scope_too_small_exit_3(self, capsys):
        code, out, _ = run_cli(capsys, "a1", "--space", "broom:40", "--r", "1")
        assert code == 3
        assert "scope too small" in out

    def test_small_pipeline_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "a1", "--space", "broom:130", "--r", "1", "--pair-budget", "12"
        )
        assert code == 0
        assert "verdict=pass" in out

    def test_byte_deterministic(self, capsys):
        args = ("a1", "--space", "broom:130", "--r", "1", "--pair-budget", "10", "--seed", "3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_claim_violation_exits_1(self, capsys, monkeypatch):
        def failing_phi(g, fc, x):
            raise ClaimViolation(f"Lebesgue consequence failed at vertex {x}")

        monkeypatch.setattr(cli, "phi", failing_phi)
        code, _, err = run_cli(capsys, "a1", "--space", "broom:130", "--r", "1", "--pair-budget", "12")
        assert code == 1
        assert "THEOREM ALARM: Lebesgue consequence failed" in err

    def test_total_below_r_in_the_integer_loop_exits_1(self, capsys, monkeypatch):
        real = a1._depth_profile

        def first_set_at_depth_1(fc, x):
            return {i: 1 for i in list(real(fc, x))[:1]}

        monkeypatch.setattr(a1, "_depth_profile", first_set_at_depth_1)
        code, _, err = run_cli(capsys, "a1", "--space", "broom:250", "--r", "2", "--pair-budget", "4")
        assert code == 1
        assert "THEOREM ALARM: Lebesgue consequence failed at vertex" in err
        assert "sum 1 < r = 2" in err

    # sha256 of stdout, recorded before the per-vertex checks moved from
    # Fractions to integer numerators
    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("a1 --space broom:160 --r 1 --dump-maps", "20fac7ff7985ef7267f75c60456bb737095d6a0700f1cf3b3ce249175b32c51b"),
            ("a1 --space broom:300 --r 2", "f45de95eda9e93365303ad515b75fbf1f7f970eb7a6446f63c8f4f2172335345"),
        ],
    )
    def test_reports_are_pinned(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def forced_backends(monkeypatch):
    """Send every full-graph BFS through numpy, every non-tree propb through
    the envelope backend, and every canonical thin_delta side through
    canonical_geodesic instead of the distance-table walk."""
    monkeypatch.setattr(graphs, "_NP_BFS_MIN", 0)
    monkeypatch.setattr(geodesics, "_SMALL_GRAPH_MAX", 0)


class TestBackendsAgree:
    """Reports from the large-graph backends equal the default ones."""

    @pytest.mark.parametrize("space", ["farey:8", "farey:10", "grid:6"])
    @pytest.mark.parametrize("family", ["all", "canonical"])
    def test_delta(self, capsys, monkeypatch, space, family):
        args = ("delta", "--space", space, "--family", family, "--budget", "300")
        default = run_cli(capsys, *args)
        forced_backends(monkeypatch)
        assert run_cli(capsys, *args) == default
        assert default[0] == 0

    @pytest.mark.parametrize("space", ["farey:8", "farey:10", "grid:6"])
    @pytest.mark.parametrize("family", ["all", "canonical"])
    @pytest.mark.parametrize("k", ["0", "2"])
    def test_propb(self, capsys, monkeypatch, space, family, k):
        args = ("propb", "--space", space, "--family", family, "--k", k, "--ell", "1", "--pair-budget", "60")
        default = run_cli(capsys, *args)
        forced_backends(monkeypatch)
        assert run_cli(capsys, *args) == default
        assert "qualifying_found=yes" in default[1]

    @pytest.mark.parametrize("space", ["farey:8", "farey:10", "grid:6"])
    def test_propb_sigma_overflow(self, capsys, monkeypatch, space):
        args = ("propb", "--space", space, "--family", "all", "--k", "0", "--ell", "1", "--pair-budget", "60")
        default = run_cli(capsys, *args)
        # every path count now counts as too large for int64 products, so
        # k = 0 takes the exact per-instance fallback
        monkeypatch.setattr(geodesics, "_SIGMA_VECTOR_MAX", 1)
        assert run_cli(capsys, *args) == default
        assert "violations_total=0" not in default[1]

    @pytest.mark.parametrize("space", ["broom:10", "tree:3,4"])
    @pytest.mark.parametrize(
        "args",
        [
            ("delta", "--family", "canonical", "--budget", "300"),
            ("delta", "--family", "all", "--budget", "300"),
            ("propb", "--family", "all", "--k", "0", "--ell", "1", "--pair-budget", "60"),
            ("propb", "--family", "canonical", "--k", "2", "--ell", "1", "--pair-budget", "60"),
        ],
    )
    def test_tree_against_table(self, capsys, monkeypatch, space, args):
        argv = (args[0], "--space", space, *args[1:])
        default = run_cli(capsys, *argv)
        # a tree seen as a general graph takes the full-table backends
        monkeypatch.setattr(graphs.MetricGraph, "is_tree", property(lambda self: False))
        assert run_cli(capsys, *argv) == default
        assert default[0] == 0

    @pytest.mark.parametrize("family", ["all", "canonical"])
    def test_cover_numpy_bfs(self, capsys, monkeypatch, family):
        args = ("cover", "--space", "broom:20", "--r", "1", "--family", family, "--radius", "1", "--dump")
        default = run_cli(capsys, *args)
        monkeypatch.setattr(graphs, "_NP_BFS_MIN", 0)
        assert run_cli(capsys, *args) == default
        assert default[0] == 0


class TestProbe:
    def test_capacity_line_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe", "capacity", "--space", "farey:20", "--d", "2", "--radius", "2"
        )
        assert code == 0
        assert any(
            line.startswith("capacity D=2 param=farey:20 card=") for line in out.splitlines()
        )

    def test_growth_format_and_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe", "growth", "--generator", "farey", "--params", "10,20,40",
            "--d", "2", "--radius", "2",
        )
        assert code == 0
        assert "capacity D=2 param=10 card=" in out
        assert "verdict=UNBOUNDED-TREND" in out

    def test_growth_tree_bounded(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe", "growth", "--generator", "tree4", "--params", "4,5,6",
            "--d", "2", "--radius", "3",
        )
        assert code == 0
        assert "verdict=BOUNDED" in out


class TestAsdim:
    def test_surface_format(self, capsys):
        code, out, _ = run_cli(capsys, "asdim", "--surface", "0,6")
        assert code == 0
        assert "asdim Mod(S_{0,6}) : lower=3 upper=3 exact=y" in out

    def test_unknown_upper(self, capsys):
        code, out, _ = run_cli(capsys, "asdim", "--surface", "3,0")
        assert code == 0
        assert "lower=7 upper=unknown exact=n" in out

    def test_braid(self, capsys):
        code, out, _ = run_cli(capsys, "asdim", "--braid", "10")
        assert code == 0
        assert "upper=8" in out

    def test_artin(self, capsys):
        code, out, _ = run_cli(capsys, "asdim", "--artin", "affine-A,4")
        assert code == 0
        assert "lower=3 upper=3 exact=y" in out

    def test_farey(self, capsys):
        code, out, _ = run_cli(capsys, "asdim", "--farey")
        assert code == 0
        assert "exact=1" in out

    def test_guard_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "asdim", "--braid", "2")
        assert code == 2

    def test_no_selector_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "asdim")
        assert code == 2
