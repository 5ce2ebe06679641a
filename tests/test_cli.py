import hashlib

import numpy as np
import pytest

from coarselab import a1, cli, geodesics, graphs, spaces
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

    def test_builders_are_looked_up_in_the_table(self, monkeypatch):
        # a wrapper put in place of a builder (as perfbench's tracer does)
        # sees the spaces parse_space builds
        built = []
        for kind, build in cli._SPACES.items():
            monkeypatch.setitem(cli._SPACES, kind, lambda *a, build=build: built.append(a) or build(*a))
        for spec in ("broom:4", "tree:3,2", "farey:3", "grid:3"):
            parse_space(spec)
        assert built == [(4,), (3, 2), (3,), (3,)]

    def test_bad_specs_exit_2(self, capsys):
        for spec in ("nope:3", "broom", "broom:x"):
            code, _, err = run_cli(capsys, "gen", "--space", spec)
            assert code == 2
            assert "error" in err

    @pytest.mark.parametrize(
        "spec, form",
        [("broom:x", "broom:m"), ("tree:3", "tree:v,d"), ("farey:", "farey:qmax"), ("grid:4,4", "grid:n")],
    )
    def test_malformed_parameters_name_the_form(self, capsys, spec, form):
        assert run_cli(capsys, "gen", "--space", spec) == (2, "", f"error: bad space spec '{spec}': expected {form}\n")


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

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        code, out, err = run_cli(capsys, "gen", "--space", "grid:3", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err


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

    def test_report_prints_every_kept_violation(self, capsys):
        # thousands of violations: the report lists the ones the checker
        # keeps, no more and no fewer
        argv = ("--space", "grid:8", "--family", "canonical", "--k", "1", "--rmax", "2")
        code, out, _ = run_cli(capsys, "propb", *argv)
        assert code == 0
        g = parse_space("grid:8").graph
        rep = geodesics.check_property_b(
            geodesics.GeodesicFamily(g, "canonical"), ell=0, k=1, r_max=2, pair_budget=1000, c_budget=64
        )
        assert rep.violations_total == 3226 and 0 < len(rep.intersection_violations) < rep.violations_total
        kept = [
            f"violation a={v.a} b={v.b} r={v.r} c={v.c} path={'-'.join(map(str, v.geodesic.vertices))}"
            for v in rep.intersection_violations
        ]
        assert [line for line in out.splitlines() if line.startswith("violation ")] == kept

    def test_shallow_tree_centre_is_a_theorem_alarm(self, capsys, monkeypatch):
        # check_property_b reads a pair's depths first, to pick its centres
        # at each radius; there every centre reads one step deeper than it
        # is, so a centre within r of an end reaches the tree lemma, whose
        # premise failure is an internal error (exit 1), not bad input
        real = geodesics._TreePairChecker.depths

        def deeper_at_first(checker, cs):
            lie = not hasattr(checker, "lied")
            checker.lied = True
            return real(checker, cs) + lie

        monkeypatch.setattr(geodesics._TreePairChecker, "depths", deeper_at_first)
        code, out, err = run_cli(capsys, "propb", "--space", "broom:10", "--k", "0", "--rmax", "2", "--pair-budget", "20")
        assert (code, out) == (1, "")
        assert err.startswith("THEOREM ALARM: a centre lies within 1 of an end of its pair")

    def test_violation_without_a_witness_is_a_theorem_alarm(self, capsys, monkeypatch):
        # the level pass finds violations on farey:8; if no cell then gave
        # a geodesic avoiding the centre, the witness search is at fault
        # (exit 1), not the input
        monkeypatch.setattr(geodesics._PairChecker, "_avoiding_geodesic", lambda *args: None)
        code, out, err = run_cli(capsys, "propb", "--space", "farey:8", "--ell", "0", "--k", "0")
        assert (code, out) == (1, "")
        assert err.startswith("THEOREM ALARM: centre ") and "violates at radius" in err
        assert "no geodesic avoids it" in err

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

    @pytest.mark.parametrize("family", ["all", "canonical"])
    def test_cover_reads_only_the_arrays(self, capsys, monkeypatch, family):
        # the frozenset view of the cover is built on demand, never by the
        # subcommand itself, its dump included
        real, built = cli.build_cover, []
        monkeypatch.setattr(cli, "build_cover", lambda *args: built.append(real(*args)) or built[-1])
        argv = f"cover --space broom:60 --r 1 --d-constant 1 --dump --family {family}"
        code, _, err = run_cli(capsys, *argv.split())
        assert (code, err) == (0, "") and len(built) == 1
        assert "sets" not in vars(built[0])

    @pytest.mark.parametrize(
        "argv, ecc",
        [
            ("cover --space grid:6 --r 1 --delta 0 --d-constant 1", 10),
            ("cover --space broom:5 --r 1 --ell 0 --d-constant 1", 5),
        ],
    )
    def test_no_complete_annulus_exits_3(self, capsys, argv, ecc):
        # with nothing to check, no check may read as passed
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, err) == (3, "")
        lines = out.splitlines()
        assert lines[-2:] == [
            "complete=-",
            "# scope: no complete annulus; one needs the basepoint's eccentricity to reach "
            f"band + r + ell = 11 (band = 10(r+ell) = 10), and it is {ecc}",
        ]
        assert not any(line.startswith(("max_diam", "diam_pass", "max_mult", "mult_pass", "asdim_upper")) for line in lines)

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

    def test_pipeline_reads_only_the_arrays(self):
        # the frozenset and dict views of the fat cover are built on demand,
        # never by the pipeline itself
        result = cli.pipeline_a1(broom_tree(130), r=1, pair_budget=12)
        assert result.exit_code == 0
        assert {"sets", "sets_of"}.isdisjoint(vars(result.fat))
        assert "sets" not in vars(result.fat.base)

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
        real = a1._depth_profiles

        def first_set_at_depth_1(fc):
            p = real(fc)
            first = np.arange(p.set_id.shape[1]) == 0
            return p._replace(
                set_id=np.where(first, p.set_id, -1),
                depth=np.where(first, np.ones_like(p.depth), 0),
                anchor=np.where(first, p.anchor, -1),
            )

        monkeypatch.setattr(a1, "_depth_profiles", first_set_at_depth_1)
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


@pytest.mark.parametrize(
    "argv",
    [
        "cover --space broom:60 --r 1 --ell 0 --d-constant 1",
        "a1 --space broom:130 --r 1",
        "a1 --space broom:130 --r 1 --dump-maps",
    ],
)
def test_tree_runs_never_build_the_adjacency_tuples(monkeypatch, capsys, argv):
    # Below _NP_BFS_MIN the full rows come from the list BFS, which reads
    # the tuples; with every row on the numpy branch, nothing else does.
    built = []
    real = graphs._adjacency_tuples

    def spy(indptr, indices):
        built.append(indptr.size - 1)
        return real(indptr, indices)

    monkeypatch.setattr(graphs, "_adjacency_tuples", spy)
    code, listed, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "") and built
    built.clear()
    monkeypatch.setattr(graphs, "_NP_BFS_MIN", 0)
    assert run_cli(capsys, *argv.split()) == (0, listed, "")
    assert not built


@pytest.fixture
def labels_computed(monkeypatch):
    """The vertex ids whose label any space built from now on computes."""
    computed = []
    real = spaces.VertexLabels.__init__

    def spy(self, n, label, parse):
        def counted(v):
            computed.append(v)
            return label(v)

        real(self, n, counted, parse)

    monkeypatch.setattr(spaces.VertexLabels, "__init__", spy)
    return computed


@pytest.mark.parametrize(
    "argv",
    [
        "cover --space broom:60 --r 1 --ell 0 --d-constant 1",
        "cover --space grid:8 --r 1 --delta 0 --d-constant 20",
        "a1 --space broom:130 --r 1",
        "delta --space broom:10 --budget 200",
        "delta --space farey:8 --budget 200",
        "delta --space grid:6 --family all --budget 200",
        "propb --space broom:10 --k 1 --pair-budget 20",
        "propb --space farey:8 --ell 1 --k 0 --pair-budget 20",
        "propb --space grid:6 --family canonical --k 1 --pair-budget 20",
        "probe growth --generator broom --params 4,8 --d 2 --radius 2",
        "probe growth --generator farey --params 4,8 --d 2 --radius 2",
        "probe growth --generator grid --params 4,8 --d 2 --radius 2",
        "probe capacity --space farey:12 --d 2 --radius 2",
    ],
)
def test_runs_compute_no_label(labels_computed, capsys, argv):
    code, _, err = run_cli(capsys, *argv.split())
    assert code in (0, 1) and err == ""
    assert labels_computed == []


def test_one_center_label_computes_one_label(labels_computed, capsys):
    argv = "probe capacity --space broom:40 --d 2 --radius 2 --center-label 7.3"
    assert run_cli(capsys, *argv.split())[0] == 0
    assert labels_computed == [24]
    labels_computed.clear()
    sp = parse_space("farey:12")
    assert sp.vertex_of("-5/7") == labels_computed[0] and len(labels_computed) == 1


# sha256 of stdout, recorded before the delta and propb distance rows moved
# into one memoised store. At rmax 1 the grid:10 envelopes are smaller than
# the graph.
@pytest.mark.parametrize(
    "argv, digest",
    [
        ("delta --space farey:30 --budget 2000", "f9980b4f182d09ddd34a522c54fdd6da0c7fbbd09185ae653061fb03f7e5636c"),
        ("delta --space grid:8 --family all --budget 2000", "2ed03c0ff3363d66985841f41fe38c4761cc4ff12061327e783654cd13135c67"),
        ("propb --space farey:30 --ell 2 --k 2 --pair-budget 100", "da1c422eec846d290c0b5f06ebcb6494cda2fa7b8eb4e4ecf57300da9e373ca1"),
        ("propb --space farey:12 --ell 0 --k 0 --pair-budget 300", "89894d848e66c8ee298b0aa7d30d9f075259ecc9439d2842c865a5b8229706dc"),
        ("propb --space grid:10 --rmax 1 --k 1 --pair-budget 200", "aeca216b517e6709973cc20e0066acc47bfa6ff33755daa831d9e0e6c5ad2a9c"),
        ("propb --space grid:8 --family canonical --k 0 --rmax 2", "fc3bb35966026bd4aae84a6cdff86a8c22954e72867f42de6ae8d416652c8ebd"),
        # cover dumps, recorded while the cover still held its sets as frozensets
        ("cover --space broom:60 --r 1 --dump --family all", "d61a58ee56bf026ac5c20bdf1ff79ede7cc117b37e1bac47ba1ec02f71e1e89a"),
        ("cover --space broom:60 --r 1 --dump --family canonical", "56ae12d50d3f2f0f6f860bcfa06e211c2d9dfe81f50f22473b449c2155d71efa"),
        ("cover --space grid:30 --r 1 --delta 0 --dump --family all", "0b5fee7f4194d6f3c7ad3e9ee4295bf1931f016b21dbc821fc4372f95baef2a6"),
        ("cover --space grid:30 --r 1 --delta 0 --dump --family canonical", "2256588bc6b940ac6ed63b0a5a5613b5f3bc8d7e15bc8e613d578bd8758f827a"),
        (
            "cover --space grid:30 --r 1 --delta 0 --radius 2 --d-constant 40 --dump --family all",
            "80c35bc65b97b5e3e3ff151a500acc3ce55fd62be7eb1210a29059d82555a141",
        ),
        (
            "cover --space broom:260 --r 1 --ell 0 --d-constant 1 --radius 1 --dump",
            "6d1b4ac04deccf8fe38fc60fe904233f1c26341ebd843929a62d165fa85a6297",
        ),
        # delta reports, recorded while every side was a Python walk and every
        # defect a search per side vertex: the canonical grid (delta=6), a tree,
        # a sampled larger grid (delta=9), a budget cut inside one all-family
        # triple's product, and an exhaustive run
        ("delta --space grid:8 --budget 2000 --seed 3", "42a51cee86d1a8d1a366c1265b49afe464d17b9a53f2d80beae5830574290011"),
        ("delta --space broom:10 --budget 500 --seed 1", "de0eb696ef32ff11d0de7b11169e04683204a2b6f7970250d7cb23dadf77e83a"),
        ("delta --space grid:12 --budget 5000 --seed 2", "656c4146ddfc90b031133ff09175f0107323e48a1fbe5e187efcd433b9109b00"),
        (
            "delta --space farey:12 --family all --budget 700 --seed 4",
            "95c0b80af401b89b6739ae8d450ab14499b9663ce46a7166d5c713d09e341440",
        ),
        ("delta --space grid:4 --budget 1000", "e781ef21a82682f9e5d3a9cf3403512213e809c68eaeeb1140865317aac7381e"),
        # recorded while balls, pair neighbourhoods and probe conflicts came
        # from a bounded multi-source dict search: canonical witnesses around
        # N(c;1), a greedy and an exact capacity, and a bounded growth trend
        ("propb --space grid:8 --family canonical --k 1 --rmax 2", "a1cfa8e995b0774d9a74f786c519b8d0914ed727d6b18caaa7c2e6933d8112da"),
        ("probe capacity --space farey:30 --d 2 --radius 2", "a50d5a21f5b074bd227d1e42a399e78460d83b8e2b39d1232264976b9e1b3084"),
        ("probe capacity --space grid:12 --d 3 --radius 4", "5faed21850977c9839a8f18ee59f1c62bad8b319eb7bc21604fb81c63f2ac282"),
        (
            "probe growth --generator grid --params 4,6,8 --d 2 --radius 3",
            "d8dac874b9bd27ef1d7db7a27df74022fd3403cfe7c83bbe70ea8cdd9993f553",
        ),
        # recorded while the anchored annuli came from anchor ids carried
        # along each vertex's steps: a base cover with four annuli, canonical
        # cones on a tree, and a larger cover
        ("a1 --space broom:800 --r 2", "aa79341bd35a248b2825fdf12957308fff5213250f8117b9f96ed4af56aa8272"),
        (
            "cover --space broom:300 --r 1 --ell 0 --d-constant 1 --family canonical --dump",
            "e389ecc13fc6fd9ab9e96a303d9c5ea60881c05b1df26e805ebd0d7f69d608ad",
        ),
        (
            "cover --space broom:1000 --r 1 --ell 0 --d-constant 1",
            "acc03d444e9db2da72bfc5090476a199a2bf71c44d15d461cad54155bfb720d0",
        ),
        # recorded while every (pair, radius) ran its own σ product and each
        # pair loaded its own neighbourhood rows: σ witnesses at several
        # radii (33,463 and 1,549 violations) and canonical k = 2 rows that
        # span several runs of pairs
        ("propb --space grid:8 --family all --k 0 --rmax 3", "7469f087969b9a2ce7038e8e099728761452227a7fc35351ff29baf765b4d22a"),
        (
            "propb --space farey:12 --ell 0 --k 0 --pair-budget 300 --seed 7",
            "654517e32fa834f6e4f2eb99720a18c9be947c4f9bb304df3216bdf83185188c",
        ),
        (
            "propb --space farey:30 --ell 2 --k 2 --family canonical --pair-budget 100 --seed 2",
            "82109172c6cf042c6f21f72333a2498630a11602c17e117835229657c4bc0ea9",
        ),
        # recorded while every generator built its labels one string at a
        # time and --center-label scanned them: every label kind, and a
        # centre found by label on a broom and on a Farey window
        ("gen --space broom:6 --labels", "b9c573a0af1bb426a7ff07fe72b8e6b9a137401cc349cc48553e9284996d0cf1"),
        ("gen --space tree:3,3 --labels", "06db4674adf7814d96cdfd9cdc4bbdae26d2ca8815e2d1ddf019cb968bd7b6b5"),
        ("gen --space farey:6 --labels", "9c398e843e008aa1ba7cb8836083b1d30e128125eb60558d28c41c56e6f913a5"),
        ("gen --space grid:4 --labels", "e5863535a59f8f0888c1beed44946dd2fdb322a25dded591c6f9fdad7829eaa8"),
        (
            "probe capacity --space broom:40 --d 2 --radius 2 --center-label 7.3",
            "6f1a0a23aa1862f4f0aba3a0fe9ebbba62ffaf4fa3a33f0633e974d0698d42e5",
        ),
        (
            "probe capacity --space farey:12 --d 2 --radius 2 --center-label=-5/7",
            "6e3460b20a17112c410b2a4d72faeb1912b66dc3e60b85d702c51fe2f5ea6387",
        ),
        # recorded while a row set larger than the row store was read one
        # row at a time: the Property B call of a1 --space farey:40 --delta 0
        (
            "propb --space farey:40 --ell 0 --k 0 --rmax 5 --pair-budget 24 --c-budget 48",
            "e651d2209383362427b3586dcb9864821c0072de82df5e315797eb7b922ba004",
        ),
        # recorded while a tree pair took one distance cube over its
        # endpoint balls for every neighbourhood vertex: k = 2 beside a
        # broom's 300-ray root, and k = 1 on a ternary tree
        (
            "propb --space broom:300 --ell 0 --k 2 --rmax 5 --pair-budget 200 --seed 3",
            "f3e0c7d7636600a1e72ec5685eb4f233a89ce40d1ebc1cbf82183a924fb4bede",
        ),
        (
            "propb --space tree:3,9 --ell 1 --k 1 --pair-budget 500",
            "d35d074fa2b16e13c609e921e5fc36db97b65e1fecda18b1f7b063b6f8890d63",
        ),
        # perfbench's reference digests of three benchmark ops
        (
            "cover --space broom:260 --r 1 --ell 0 --d-constant 1",
            "ebaf5ffb633d3e66df2a9d39c68c56a48ba75209688c24838cbd324466d5e07c",
        ),
        ("delta --space farey:30 --budget 500 --seed 0", "ae8b1e7a7418789337adccce50ef75c5831b5476232e8497af3b6639745b22e4"),
        # recorded while the triple draw called random.sample once per
        # attempt: its pool draw (16 vertices), and a draw that stops at
        # the attempt cap with 552 of its 559 triples
        ("delta --space grid:4 --budget 100 --seed 5", "4b84355e9680b5030be85e7a6a6bfa2d425eb72edfaec4f8668110bf636284b8"),
        ("delta --space grid:4 --budget 559", "890d0962a50fe74c95d8747469739df4e35e6ebc318c11ae429681a142dde89f"),
        (
            "probe growth --generator farey --params 25,50,100 --d 2 --radius 2",
            "832bd2a7ac8848d5cb626444c2cbe52d914a8ed65cb291eeedb88b54e0e0844a",
        ),
    ],
)
def test_reports_are_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_unknown_center_label_is_pinned(capsys):
    argv = "probe capacity --space broom:10 --d 2 --radius 2 --center-label 9.10"
    assert run_cli(capsys, *argv.split()) == (2, "", "error: bad --center-label: no vertex labeled '9.10'\n")


def forced_backends(monkeypatch):
    """Send every full-graph BFS through numpy and shrink each row store to
    one source's rows, so nearly every row is searched afresh on each
    request."""
    monkeypatch.setattr(graphs, "_NP_BFS_MIN", 0)
    monkeypatch.setattr(graphs, "_ROW_CELLS", 0)


class TestBackendsAgree:
    """Reports with every full-graph BFS through numpy and row stores of one
    source's distance and path-count rows (``forced_backends``) equal the
    default ones. Both runs take the same delta and propb algorithms; what
    differs is the BFS kernel and whether rows come from the memo or are
    recomputed."""

    @pytest.mark.parametrize("space", ["farey:8", "farey:10", "grid:6"])
    @pytest.mark.parametrize("family", ["all", "canonical"])
    def test_delta(self, capsys, monkeypatch, space, family):
        args = ("delta", "--space", space, "--family", family, "--budget", "300")
        default = run_cli(capsys, *args)
        forced_backends(monkeypatch)
        assert run_cli(capsys, *args) == default
        assert default[0] == 0

    @pytest.mark.parametrize("family", ["all", "canonical"])
    def test_delta_farey30(self, capsys, monkeypatch, family):
        # large enough that the default run loads its rows in kernel blocks
        args = ("delta", "--space", "farey:30", "--family", family, "--budget", "500")
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
        # a tree seen as a general graph takes the distance-row backends
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

    def test_unknown_center_label_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "probe", "capacity", "--space", "grid:4", "--d", "2", "--radius", "1",
            "--center-label", "nope",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'nope'" in err

    def test_growth_format_and_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe", "growth", "--generator", "farey", "--params", "10,20,40",
            "--d", "2", "--radius", "2",
        )
        assert code == 0
        assert "capacity D=2 param=10 card=" in out
        assert "verdict=UNBOUNDED-TREND" in out

    def test_growth_malformed_params_names_the_flag(self, capsys):
        argv = ("probe", "growth", "--generator", "grid", "--params", "4,,6", "--d", "2", "--radius", "3")
        assert run_cli(capsys, *argv) == (2, "", "error: bad --params '4,,6': expected comma-separated integers\n")

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

    @pytest.mark.parametrize(
        "flag, value, form",
        [("--surface", "1", "g,p"), ("--artin", "A", "FAMILY,n"), ("--hyperbolic", "2", "s,delta")],
    )
    def test_malformed_comma_list_names_the_flag(self, capsys, flag, value, form):
        assert run_cli(capsys, "asdim", flag, value) == (2, "", f"error: bad {flag} '{value}': expected {form}\n")
