import pytest

from coarselab.calculator import (
    Bound,
    Surface,
    artin_bound,
    asdim_mod,
    asdim_pi1,
    asdim_upper_from_D,
    braid_bound,
    complexity,
    euler,
    farey_asdim,
    hyperbolic_group_asdim_upper,
    torelli,
    vcd_mod,
)


class TestBasics:
    def test_complexity(self):
        assert complexity(Surface(1, 1)) == 1
        assert complexity(Surface(0, 5)) == 2

    def test_euler(self):
        assert euler(Surface(0, 5)) == -3
        assert euler(Surface(2, 0)) == -2

    def test_surface_guards(self):
        with pytest.raises(ValueError):
            Surface(-1, 0)


class TestVcd:
    def test_examples(self):
        assert vcd_mod(Surface(0, 7)) == 4
        assert vcd_mod(Surface(1, 0)) == 1
        assert vcd_mod(Surface(2, 0)) == 3

    def test_genus_zero_row(self):
        for p in range(0, 4):
            assert vcd_mod(Surface(0, p)) == 0
        for p in range(3, 9):
            assert vcd_mod(Surface(0, p)) == max(0, p - 3)

    def test_genus_one_row(self):
        assert vcd_mod(Surface(1, 0)) == 1
        for p in range(1, 7):
            assert vcd_mod(Surface(1, p)) == p

    def test_higher_genus_rows(self):
        for g in (2, 3):
            assert vcd_mod(Surface(g, 0)) == 4 * g - 5
            for p in range(1, 7):
                assert vcd_mod(Surface(g, p)) == 4 * g - 4 + p


class TestPi1:
    def test_examples(self):
        assert asdim_pi1(Surface(1, 0)) == 2
        assert asdim_pi1(Surface(3, 2)) == 1
        assert asdim_pi1(Surface(0, 1)) == 0

    def test_genus_zero_extension(self):
        assert asdim_pi1(Surface(0, 0)) == 0
        assert asdim_pi1(Surface(0, 2)) == 1
        assert asdim_pi1(Surface(0, 5)) == 1

    def test_closed_higher_genus(self):
        for g in (2, 3, 4):
            assert asdim_pi1(Surface(g, 0)) == 2


class TestAsdimMod:
    def test_sphere_six_punctures(self):
        b = asdim_mod(Surface(0, 6))
        assert b.exact and b.lower == b.upper == 3

    def test_genus_two_punctured(self):
        b = asdim_mod(Surface(2, 3))
        assert b.exact and b.upper == 7

    def test_genus_three_closed_open(self):
        b = asdim_mod(Surface(3, 0))
        assert b.lower == 7  # vcd 4g-5
        assert b.upper is None
        assert not b.exact

    def test_specials(self):
        assert asdim_mod(Surface(0, 4)).upper == 1
        assert asdim_mod(Surface(0, 4)).exact
        assert asdim_mod(Surface(1, 1)).upper == 1
        assert asdim_mod(Surface(1, 1)).exact

    def test_sphere_family(self):
        for p in range(4, 12):
            b = asdim_mod(Surface(0, p))
            assert b.exact and b.upper == p - 3

    def test_torus_family(self):
        for p in range(1, 10):
            b = asdim_mod(Surface(1, p))
            assert b.exact and b.upper == p

    def test_genus_two_family(self):
        assert asdim_mod(Surface(2, 0)).upper == 3
        for p in range(1, 8):
            b = asdim_mod(Surface(2, p))
            assert b.exact and b.upper == p + 4

    def test_degenerate_cases_flagged(self):
        for s in (Surface(0, 0), Surface(0, 3), Surface(1, 0)):
            b = asdim_mod(s)
            assert not b.exact
            assert b.upper is None
            assert any("scope" in step for step, _ in b.provenance)


class TestConsistencyInvariants:
    def test_lower_le_exact_and_vcd(self):
        for g in range(0, 3):
            for p in range(0, 9):
                s = Surface(g, p)
                b = asdim_mod(s)
                if b.exact:
                    assert b.lower == b.upper
                    assert b.lower >= complexity(s)
                    if euler(s) < 0:
                        assert vcd_mod(s) <= b.upper

    def test_puncture_recursion_coherence(self):
        # exact genus-2 values against the recursion through the closed case
        closed = asdim_mod(Surface(2, 0)).upper
        for p in range(1, 9):
            exact = asdim_mod(Surface(2, p)).upper
            assert exact <= closed + p + 1

    def test_provenance_always_present(self):
        for g in range(0, 4):
            for p in range(0, 6):
                assert asdim_mod(Surface(g, p)).provenance


class TestBoundType:
    def test_exact_requires_equality(self):
        with pytest.raises(ValueError):
            Bound(1, 2, True, (("s", "c"),))

    def test_ordered(self):
        with pytest.raises(ValueError):
            Bound(5, 2, False, (("s", "c"),))

    def test_provenance_required(self):
        with pytest.raises(ValueError):
            Bound(1, 1, True, ())


class TestBraid:
    def test_examples(self):
        assert braid_bound(3).upper == 1
        assert braid_bound(10).upper == 8
        assert braid_bound(3).lower is None

    def test_guard(self):
        with pytest.raises(ValueError):
            braid_bound(2)


class TestArtin:
    def test_finite_type(self):
        b = artin_bound("A", 4)
        assert b.upper == 4 and not b.exact

    def test_affine_type(self):
        b = artin_bound("affine-A", 4)
        assert b.exact and b.upper == 3

    def test_guards(self):
        with pytest.raises(ValueError):
            artin_bound("A", 2)
        with pytest.raises(ValueError):
            artin_bound("E", 5)


class TestTorelli:
    def test_genus_two(self):
        b = torelli(2)
        assert b.exact and b.upper == 1

    def test_low_genus_trivial(self):
        assert torelli(0).upper == 0
        assert torelli(1).upper == 0

    def test_high_genus_conditional(self):
        b = torelli(3)
        assert b.upper is None and not b.exact


class TestClosedForms:
    def test_farey(self):
        assert farey_asdim() == 1

    def test_from_boundedness_constant(self):
        assert asdim_upper_from_D(1) == 1
        assert asdim_upper_from_D(3) == 5

    def test_hyperbolic_group(self):
        assert hyperbolic_group_asdim_upper(2, 1) == 9  # |N(c;2)| <= 5 on 2 generators
        assert hyperbolic_group_asdim_upper(4, 0) == 1

    def test_guards(self):
        with pytest.raises(ValueError):
            hyperbolic_group_asdim_upper(0, 1)
        with pytest.raises(ValueError):
            hyperbolic_group_asdim_upper(2, -1)
