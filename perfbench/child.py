"""One benchmark operation in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json

The job file names the ris_pls sources, the scenario file and either a
command line for ``ris_pls.cli.main`` ("cli") or a list of placement pairs
for the greedy/exhaustive audit ("audit"). The child records its set-up
time (interpreter start, measured from the parent's spawn timestamp,
through ``import ris_pls`` to the scenario being loaded), times each
operation with ``CLOCK_MONOTONIC``, and writes a result file. With
``trace`` set it also installs the span tracer and writes the spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_cli(cli, argv, tracer):
    ctx = tracer.operation(0) if tracer else nullcontext()
    error = None
    t0 = now()
    try:
        with ctx:
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code, error = None, traceback.format_exc()
    return [{"label": None, "seconds": now() - t0, "exit": code, "error": error}]


def run_audit(ris_pls, scenario, job, tracer):
    """algorithm1 (repeated) then exhaustive_oracle for each pair."""
    ops, pairs = [], []
    op_id = 0

    def timed(label, fn):
        nonlocal op_id
        ctx = tracer.operation(op_id) if tracer else nullcontext()
        op_id += 1
        t0 = now()
        with ctx:
            out = fn()
        ops.append({"label": label, "seconds": now() - t0, "exit": 0, "error": None})
        return out

    tx = scenario.tx_signal()
    for lu, ed in job["pairs"]:
        with tracer.operation(-1) if tracer else nullcontext():
            channels = scenario.channels_for(scenario.placement(lu), scenario.placement(ed), tx.freqs)
        greedy = [
            timed("greedy_s", lambda: ris_pls.algorithm1(channels, scenario.element_model, tx, scenario.ris))
            for _ in range(job["greedy_repeats"])
        ]
        config, value = timed(
            "oracle_s",
            lambda: ris_pls.exhaustive_oracle(channels, scenario.element_model, tx, "ratio", scenario.ris),
        )
        pairs.append(
            {
                "lu_deg": lu,
                "ed_deg": ed,
                "greedy": sorted({(t.final_config.to_bitstring(), t.final_objective) for t in greedy}),
                "oracle": [config.to_bitstring(), value],
            }
        )
    return ops, pairs


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import ris_pls
    from ris_pls import cli, experiments

    scenario = experiments.load_scenario(job["scenario"])
    result = {"setup_s": now() - job["spawned"], "module": ris_pls.__file__}

    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    if job["kind"] == "cli":
        result["ops"] = run_cli(cli, job["argv"], tracer)
    else:
        try:
            result["ops"], result["pairs"] = run_audit(ris_pls, scenario, job, tracer)
        except Exception:
            result["ops"] = [{"label": None, "seconds": 0.0, "exit": None, "error": traceback.format_exc()}]
    result["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.dump(job["spans"])
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
