"""The benchmark's workloads: the CLI ops each one runs, and the report
fields every op must show at any seed.

An op is one ``coarselab`` command line. Its ``kind`` names the
``verdict_s.<kind>`` metric its time is summed into. Ops that sample take
the workload seed as ``--seed``; the program sees only the generated argv.
``SMOKE`` shrinks every space so that a whole pass takes well under a
second; it is used by the self-tests, never for measurements.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    expect: tuple[tuple[str, str], ...] = ()  # report fields that must read exactly so

    @property
    def key(self) -> str:
        return " ".join(self.argv)


KINDS = ("delta", "propb", "probe", "cover", "a1", "a1_dump")

FULL = {
    "cover_broom": 260,
    "a1_broom": 300,
    "a1_r": 2,
    "dump_broom": 160,
    "delta_budget": 500,
    "grid": 8,
    "grid_budget": 2000,
    "farey": 30,
    "farey_budget": 500,
    "propb_pairs": 100,
    "sigma_farey": 12,
    "sigma_pairs": 300,
    "probe_params": "25,50,100",
}

SMOKE = {
    "cover_broom": 60,
    "a1_broom": 120,
    "a1_r": 1,
    "dump_broom": 120,
    "delta_budget": 100,
    "grid": 4,
    "grid_budget": 200,
    "farey": 8,
    "farey_budget": 100,
    "propb_pairs": 20,
    "sigma_farey": 8,
    "sigma_pairs": 50,
    "probe_params": "6,12",
}

WORKLOADS = ("cover-tree", "a1-pipeline", "geodesic-survey")

_COVER_OK = (("diam_pass", "yes"), ("mult_pass", "yes"))
_A1_OK = (("verdict", "pass"),)


def ops(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The ops of one pass of ``workload`` at ``seed``, in run order."""
    s = SMOKE if smoke else FULL
    seeded = ("--seed", str(seed))
    if workload == "cover-tree":
        return [
            Op("cover", ("cover", "--space", f"broom:{s['cover_broom']}", "--r", "1", "--ell", "0", "--d-constant", "1"), _COVER_OK),
        ]
    if workload == "a1-pipeline":
        return [
            Op("a1", ("a1", "--space", f"broom:{s['a1_broom']}", "--r", str(s["a1_r"]), *seeded), _A1_OK),
            Op("a1_dump", ("a1", "--space", f"broom:{s['dump_broom']}", "--r", "1", "--dump-maps", *seeded), _A1_OK),
        ]
    if workload == "geodesic-survey":
        farey = f"farey:{s['farey']}"
        return [
            Op("delta", ("delta", "--space", "broom:10", "--budget", str(s["delta_budget"]), *seeded), (("delta", "0"),)),
            # The sampled delta of a grid differs by seed, so only its exit code is checked.
            Op("delta", ("delta", "--space", f"grid:{s['grid']}", "--budget", str(s["grid_budget"]), *seeded)),
            Op("delta", ("delta", "--space", farey, "--budget", str(s["farey_budget"]), *seeded)),
            Op(
                "propb",
                ("propb", "--space", farey, "--ell", "2", "--k", "2", "--pair-budget", str(s["propb_pairs"]), *seeded),
                (("violations_total", "0"), ("qualifying_found", "yes")),
            ),
            Op(
                "propb",
                ("propb", "--space", f"farey:{s['sigma_farey']}", "--ell", "0", "--k", "0",
                 "--pair-budget", str(s["sigma_pairs"]), *seeded),
            ),
            Op(
                "probe",
                ("probe", "growth", "--generator", "farey", "--params", s["probe_params"], "--d", "2", "--radius", "2"),
                (("verdict", "UNBOUNDED-TREND"),),
            ),
        ]
    raise KeyError(f"unknown workload {workload!r}; pick one of {', '.join(WORKLOADS)}")
