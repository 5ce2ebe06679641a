"""Asymptotic-dimension calculator for mapping class groups and relatives.

Pure integer arithmetic over the published formula corpus: Harer/Ivanov
virtual cohomological dimensions, the Dehn-twist lower bound, exact values
for genus at most 2, braid and Artin group bounds, and Torelli groups.
Every returned bound carries provenance steps naming the classical results
it leans on. Unknown upper bounds are a distinguished value (``None``),
never a large number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import asdim_upper_from_D

__all__ = [
    "Surface",
    "Bound",
    "complexity",
    "euler",
    "vcd_mod",
    "asdim_pi1",
    "asdim_mod",
    "braid_bound",
    "artin_bound",
    "torelli",
    "farey_asdim",
    "asdim_upper_from_D",
    "hyperbolic_group_asdim_upper",
]

ARTIN_FAMILIES = ("A", "B", "affine-A", "affine-C")


@dataclass(frozen=True)
class Surface:
    """Compact orientable surface of genus g with p punctures."""

    g: int
    p: int

    def __post_init__(self):
        if self.g < 0 or self.p < 0:
            raise ValueError("genus and puncture count must be nonnegative")

    def __str__(self) -> str:
        return f"S_{{{self.g},{self.p}}}"


@dataclass(frozen=True)
class Bound:
    """An asymptotic-dimension interval with per-step provenance.

    ``upper is None`` means unknown/unbounded-by-current-results; ``exact``
    asserts lower == upper.
    """

    lower: int | None
    upper: int | None
    exact: bool
    provenance: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if self.exact and (self.lower is None or self.lower != self.upper):
            raise ValueError("exact bound requires lower == upper")
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")
        if not self.provenance:
            raise ValueError("every bound carries at least one provenance step")


def complexity(s: Surface) -> int:
    """3g - 3 + p, the number of curves in a pants decomposition."""
    return 3 * s.g - 3 + s.p


def euler(s: Surface) -> int:
    """Euler characteristic 2 - 2g - p."""
    return 2 - 2 * s.g - s.p


def vcd_mod(s: Surface) -> int:
    """Virtual cohomological dimension of the mapping class group
    (Harer's computation, as tabulated by Ivanov).

    Genus 0: 0 for p <= 3 and p - 3 for p >= 3 (the two clauses agree at
    p = 3). Genus 1: 1 when closed, p otherwise. Genus >= 2: 4g - 5 when
    closed, 4g - 4 + p with punctures.
    """
    g, p = s.g, s.p
    if g == 0:
        return max(0, p - 3)
    if g == 1:
        return 1 if p == 0 else p
    return 4 * g - 5 if p == 0 else 4 * g - 4 + p


def asdim_pi1(s: Surface) -> int:
    """Asymptotic dimension of the surface group pi_1(S_{g,p}).

    For g >= 1: free (dimension 1) with punctures, quasi-isometric to the
    hyperbolic or Euclidean plane (dimension 2) when closed. The g = 0
    row extends the same reasoning: trivial group for p <= 1, free
    (nontrivial) for p >= 2.
    """
    if s.g >= 1:
        return 1 if s.p > 0 else 2
    return 0 if s.p <= 1 else 1


def _twist_lower(s: Surface) -> tuple[int, list[tuple[str, str]]]:
    steps: list[tuple[str, str]] = []
    lower = 0
    c = complexity(s)
    if c > 0:
        lower = c
        steps.append(
            (
                f"{c} disjoint curves give commuting Dehn twists, a Z^{c} subgroup",
                "Dranishnikov-Keesling-Uspenskij: asdim Z^k = k",
            )
        )
    if euler(s) < 0:
        v = vcd_mod(s)
        if v > lower:
            lower = v
            steps.append(
                (f"vcd Mod({s}) = {v} bounds asdim from below (VFP group)", "Dranishnikov: vcd <= asdim"),
            )
        elif v > 0:
            steps.append(
                (f"vcd Mod({s}) = {v} also bounds asdim from below", "Dranishnikov: vcd <= asdim"),
            )
    return lower, steps


def asdim_mod(s: Surface) -> Bound:
    """Bound (exact where known) for asdim of the mapping class group.

    Exact values: genus 0 with p >= 4 gives p - 3; genus 1 with p >= 1
    gives p; genus 2 gives 3 when closed and p + 4 with punctures. For
    genus >= 3 only the lower bound is known; the puncture recursion is
    recorded as conditional provenance since finiteness of the closed case
    is open.
    """
    g, p = s.g, s.p
    lower, steps = _twist_lower(s)

    if g == 0 and p >= 4:
        value = p - 3
        steps.append(
            (
                f"asdim Mod({s}) = {value}: commensurable reductions to PSL(2,Z) at p = 4 "
                "and the puncture recursion upward",
                "Ivanov 9.2; Bell-Dranishnikov extension theorem",
            )
        )
        return Bound(value, value, True, tuple(steps))
    if g == 1 and p >= 1:
        value = p
        steps.append(
            (
                f"asdim Mod({s}) = {value}: Mod(S_{{1,1}}) ~ SL(2,Z) is virtually free, "
                "then the puncture recursion",
                "Ivanov 9.2; Bell-Dranishnikov extension theorem",
            )
        )
        return Bound(value, value, True, tuple(steps))
    if g == 2:
        value = 3 if p == 0 else p + 4
        if p == 0:
            steps.append(
                (
                    "asdim Mod(S_{2,0}) <= 3 via the hyperelliptic central extension onto "
                    "Mod(S_{0,6}), whose asdim is 6 - 3 = 3; the vcd matches from below",
                    "Birman-Hilden; Bell-Dranishnikov extension theorem",
                )
            )
        else:
            steps.append(
                (
                    f"asdim Mod({s}) = p + 4: closed genus-2 value 3 plus the puncture "
                    "recursion p + 1; the vcd 4g - 4 + p matches from below",
                    "Bell-Dranishnikov extension theorem; Harer/Ivanov vcd",
                )
            )
        return Bound(value, value, True, tuple(steps))
    if g >= 3:
        if p == 0:
            steps.append(
                (
                    f"upper bound unknown: finiteness of asdim Mod(S_{{{g},0}}) is an open question",
                    "open",
                )
            )
        else:
            steps.append(
                (
                    f"upper bound unknown: finiteness of asdim Mod(S_{{{g},0}}) is open; "
                    f"if finite, asdim Mod({s}) <= asdim Mod(S_{{{g},0}}) + {p} + 1",
                    "conditional puncture recursion (Bell-Dranishnikov extension)",
                )
            )
        return Bound(lower, None, False, tuple(steps))
    # leftover small cases: complexity <= 1 and not one of the listed specials
    steps.append(
        (
            f"{s} has complexity {complexity(s)} <= 1: outside the calculator's scope",
            "sporadic low-complexity case",
        )
    )
    return Bound(lower, None, False, tuple(steps))


def braid_bound(n: int) -> Bound:
    """asdim of the braid group on n strands is at most n - 2 (n >= 3),
    via the embedding into the mapping class group of the punctured sphere."""
    if n < 3:
        raise ValueError("braid bound needs n >= 3")
    upper = n - 2
    prov = (
        (
            f"B_{n} embeds in Mod(S_{{0,{n + 1}}}), whose asdim is {n + 1} - 3 = {n - 2}",
            "asdim is monotone under subgroups",
        ),
    )
    return Bound(None, upper, False, prov)


def artin_bound(family: str, n: int) -> Bound:
    """Artin groups over the four Charney-Crisp families (n >= 3).

    Finite types A_n and B_n: asdim at most n (central extension by Z of a
    finite-index subgroup of Mod(S_{0,n+2})). Affine types over A_{n-1}
    and C_{n-1}: exactly n - 1 (trivial center, finite index).
    """
    if family not in ARTIN_FAMILIES:
        raise ValueError(f"unknown Artin family {family!r}; pick one of {ARTIN_FAMILIES}")
    if n < 3:
        raise ValueError("Artin bound needs n >= 3")
    sphere_value = n - 1  # asdim Mod(S_{0,n+2}) = (n+2) - 3
    if family in ("A", "B"):
        prov = (
            (
                f"finite-type {family}_{n}: central Z extension of a finite-index subgroup "
                f"of Mod(S_{{0,{n + 2}}}); asdim <= {sphere_value} + 1 = {n}",
                "Charney-Crisp; Bell-Dranishnikov extension theorem",
            ),
        )
        return Bound(None, n, False, prov)
    prov = (
        (
            f"affine type over index {n - 1}: trivial center, finite index in "
            f"Mod(S_{{0,{n + 2}}}), so asdim = {sphere_value}",
            "Charney-Crisp",
        ),
    )
    return Bound(sphere_value, sphere_value, True, prov)


def torelli(g: int) -> Bound:
    """Torelli group bounds: trivial below genus 2, exactly 1 at genus 2
    (an infinitely generated free group containing a bi-infinite geodesic),
    and tied to the closed mapping class group above."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if g <= 1:
        prov = ((f"the Torelli group is trivial for genus {g}", "classical"),)
        return Bound(0, 0, True, prov)
    if g == 2:
        prov = (
            (
                "genus-2 Torelli group is free (Mess) so asdim <= 1; it contains a "
                "bi-infinite geodesic, so asdim >= 1",
                "Mess",
            ),
        )
        return Bound(1, 1, True, prov)
    prov = (
        (
            "finite asdim for the Torelli group is equivalent to finite asdim of the "
            "closed mapping class group (arithmetic quotient has finite asdim)",
            "Ji: arithmetic groups; conditional",
        ),
    )
    return Bound(None, None, False, prov)


def farey_asdim() -> int:
    """The Farey graph is quasi-isometric to an infinite-valence tree, and
    trees have asymptotic dimension exactly 1."""
    return 1


def hyperbolic_group_asdim_upper(generators: int, delta: int) -> int:
    """For a delta-thin Cayley graph on s symmetric generators, all
    geodesics form a bounded family with D at most |N(c; 2 delta)|, since
    |G(a,b;r) ∩ N(c;2 delta)| <= |N(c;2 delta)|. A ball of radius m in a
    graph of degree s holds at most 1 + s·Σ_{i<m} (s-1)^i vertices (the
    ball of the s-regular tree), which gives the upper bound 2D - 1."""
    if generators < 1:
        raise ValueError("need at least one generator")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    ball = 1 + generators * sum((generators - 1) ** i for i in range(2 * delta))
    return 2 * ball - 1
