"""One pass of a workload in a fresh interpreter.

Run by ``run.py`` as ``worker.py WORKLOAD SEED MODE`` (MODE is ``setup``,
``plain`` or ``traced``, optionally ``+smoke``) with ``src`` on
``PYTHONPATH``. It imports coarselab, generates the workload's argv list,
prints ``READY`` (the parent times set-up up to that line), then calls
``coarselab.cli.main`` on each op back to back with its report captured,
and prints one JSON line: per op the exit code, time to verdict, report
digest and size, and the report's ``key=value`` fields; the host-speed
samples; the peak RSS of the process; and in traced mode each op's spans.

A host-speed sample is the time of a fixed pure-Python kernel
(``reference_s``), taken before the first op and after every op. The
kernel is the benchmark's own code, so a change to coarselab never moves
it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time

REFERENCE_VERTICES = 4000
REFERENCE_SOURCES = 6  # BFS runs per sample: 5-10 ms on a shared 2.1 GHz Xeon vCPU
REFERENCE_REPS = 3


def reference_graph(n: int = REFERENCE_VERTICES) -> list[list[int]]:
    """A fixed sparse graph: a cycle with one chord per vertex."""
    return [[(v + 1) % n, (v - 1) % n, (v * 7 + 3) % n] for v in range(n)]


def reference_kernel(adj: list[list[int]]) -> int:
    """Pure-Python BFS from a few fixed sources plus a dict tally of the
    levels: the same interpreter work (lists, dicts, small ints) as
    coarselab's loops."""
    tally: dict[int, int] = {}
    for source in range(REFERENCE_SOURCES):
        dist = [-1] * len(adj)
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                du = dist[u] + 1
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = du
                        nxt.append(w)
            frontier = nxt
        for d in dist:
            tally[d] = tally.get(d, 0) + 1
    return len(tally)


def reference_s(adj: list[list[int]]) -> float:
    """Median time of ``REFERENCE_REPS`` runs of the reference kernel."""
    samples = []
    gc.disable()  # the kernel makes no cycles; keep the program's heap out of its time
    try:
        for _ in range(REFERENCE_REPS):
            t0 = time.perf_counter()
            reference_kernel(adj)
            samples.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(samples)


def report_fields(text: str) -> dict[str, str]:
    """``key=value`` report lines whose key is one token; map lines count
    as ``a1_map_lines``."""
    fields: dict[str, str] = {}
    maps = 0
    for line in text.splitlines():
        if line.startswith("a x="):
            maps += 1
            continue
        key, sep, value = line.partition("=")
        if sep and key and not key.startswith("#") and " " not in key:
            fields[key] = value
    fields["a1_map_lines"] = str(maps)
    return fields


def run_cli(main, argv: list[str]) -> tuple[int | str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: int | str = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a failed pass
            code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    smoke = mode.endswith("+smoke")
    mode = mode.removesuffix("+smoke")

    from coarselab import cli

    import workloads

    ops = workloads.ops(workload, seed, smoke)
    print("READY", flush=True)
    if mode == "setup":
        return 0

    tracer = None
    if mode == "traced":
        import layers

        tracer = layers.make_tracer()
        tracer.install(layers.namespaces())
    adj = reference_graph()
    refs = [reference_s(adj)]
    results = []
    try:
        for op in ops:
            argv = list(op.argv)
            trace = None
            if tracer is None:
                t0 = time.perf_counter()
                code, text, err = run_cli(cli.main, argv)
                wall = time.perf_counter() - t0
            else:
                (code, text, err), trace = tracer.run_op(lambda: run_cli(cli.main, argv))
                wall = trace["wall_s"]
            refs.append(reference_s(adj))
            data = text.encode("utf-8")
            results.append(
                {
                    "key": op.key,
                    "kind": op.kind,
                    "code": code,
                    "wall_s": wall,
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "bytes": len(data),
                    "fields": report_fields(text),
                    "stderr": err[-2000:],
                    "trace": trace,
                }
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"ops": results, "ref_s": refs, "peak_rss_mb": rss_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
