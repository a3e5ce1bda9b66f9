"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {paper,serve,churn} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` it prints the end-to-end metrics of the workload;
with ``--trace 1`` it also replays and traces every layer and prints
the per-layer metrics instead.  Every metric is printed as a
``name value unit`` line; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The command
exits non-zero when an answer is wrong or a request went unanswered.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    # Measure this checkout's code or nothing, never an installed copy.
    sys.exit(f"perfbench: no src/repro next to {HERE}")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
sys.dont_write_bytecode = True

from perfbench import churn, paper, serve  # noqa: E402
from perfbench.common import END_TO_END, PER_LAYER, Metrics, log  # noqa: E402
from perfbench.driver import Spans  # noqa: E402

WORKLOADS = {"paper": paper.run, "serve": serve.run, "churn": churn.run}

#: Scratch space (artifacts, journals, span dumps) inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench")


def self_times(spans: Spans, layers: Metrics) -> None:
    """Mean self time per span name, as ``<name>.self_ms``."""
    counts = {}
    for r in spans.records():
        counts[r["name"]] = counts.get(r["name"], 0) + 1
    for name, seconds in spans.self_times().items():
        layers.put(f"{name}.self_ms", seconds / counts[name] * 1e3, "ms")


def declared(measured: Metrics, names: dict, trace: bool) -> Metrics:
    """The metrics of the result line: exactly ``names``, in their order.

    A per-layer metric the workload did not measure is 0: the workload
    does not run that layer.  Every end-to-end metric must be measured.
    """
    unknown = sorted(set(measured.values) - set(names))
    missing = [] if trace else sorted(set(names) - set(measured.values))
    if unknown or missing:
        raise RuntimeError(f"metrics undeclared {unknown}, unmeasured {missing}")
    out = Metrics()
    for name, unit in names.items():
        value, got = measured.values.get(name, (0.0, unit))
        if got != unit:
            raise RuntimeError(f"{name} measured in {got}, declared in {unit}")
        out.put(name, value, unit)
    return out


def verdict(attempted: int, failed: int, wrong: int) -> bool:
    """A run is correct when it did work, every request was answered and
    every checked answer was right."""
    return attempted > 0 and failed == 0 and wrong == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    metrics, info, layers, spans = Metrics(), Metrics(), Metrics(), Spans()
    try:
        attempted, failed, wrong = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), workdir, metrics, info, layers, spans
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        self_times(spans, layers)
        dump = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
        with open(dump, "w") as f:
            json.dump(spans.records(), f)
        log(f"spans written to {dump}")
    if args.trace:
        layers.values.update(info.values)
        shown = declared(layers, PER_LAYER, True)
    else:
        shown = declared(metrics, END_TO_END, False)
    correct = verdict(attempted, failed, wrong)
    for name, (value, unit) in shown.values.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in info.values.items():
            print(f"{name} {value:.6g} {unit} (not gated)")
    print(f"fail_ratio {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} failed, {wrong} wrong)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": shown.doc(),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
