"""One round of a workload, in a fresh process; `run.py` starts it.

    python3 bench/round.py RESULT.json SPAWNED OUT_DIR MODE RECIPE:WORKERS ...

SPAWNED is the `time.monotonic()` reading taken by the parent just before
this process was started (CLOCK_MONOTONIC is shared by all processes on
Linux). Set-up ends when catms is imported and every recipe has passed
`load_spec` and `estimate_resources`; OUT_DIR "-" stops there. Otherwise the
recipes go through `catms.cli.run` one after another, and the wall time and
CPU time (this process and its reaped pool workers) of each, and the peak
resident set, are written to RESULT.json. MODE "spans" adds the
per-layer metrics of tracer.py and cli.compute_record.peak_mb, the growth of
the peak resident set over the set-up's peak while the grid points run.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    result_path, spawned, out_dir, mode = argv[0], float(argv[1]), argv[2], argv[3]
    recipes = [(p, int(w)) for p, w in (a.rsplit(":", 1) for a in argv[4:])]

    import catms
    from catms import cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(catms.__file__).resolve().parents:
        print(f"catms was imported from {catms.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if mode != "plain":
        import tracer as tracing

        tracer = tracing.Tracer(catms)
        tracer.install()
    for path, _ in recipes:
        cli.estimate_resources(cli.load_spec(path))
    result = {"setup_s": time.monotonic() - spawned}
    if out_dir != "-":
        baseline = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        codes, walls, cpus = [], [], []
        for path, workers in recipes:
            cpu0 = _cpu_seconds()
            t0 = time.monotonic()
            codes.append(cli.run(path, out_dir, workers))
            walls.append(time.monotonic() - t0)
            cpus.append(_cpu_seconds() - cpu0)
        # ru_maxrss is in KiB on Linux; for children it is the largest reaped one
        peak = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        result.update({
            "recipe_wall_s": walls,
            "recipe_cpu_s": cpus,
            "wall_s": sum(walls),
            "peak_rss_mb": peak / 1024.0,
            "exit_codes": codes,
        })
        if tracer is not None:
            tracer.spans.add("cli.compute_record", "peak_mb", (peak - baseline) / 1024.0)
            result["layers"] = {k: v for k, (v, _) in tracer.metrics().items()}
    Path(result_path).write_text(json.dumps(result))
    return 0


def _cpu_seconds() -> float:
    """User plus system time of this process and of its reaped children."""
    return sum(r.ru_utime + r.ru_stime for r in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
