"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload city --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

``--trace 0`` times requests for ``--seconds`` with no instrumentation and
reports the end-to-end metrics from the run's fastest tenth of requests,
in units of a reference kernel timed between them
(``perfbench/reference.py``); ``--trace 1`` runs a warm-up request and then a
fixed number of untraced and traced requests in turn, and reports the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every correctness gate passed.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("city", "service", "train", "sweep")
SETUP_REPEATS = 2
"""Extra set-ups, each in a fresh interpreter, behind the setup_s median."""

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_ref", "1/ref"),
    ("latency_ref", "ref"),
)
"""``ref`` is the reference kernel's time in the same run
(``perfbench/reference.py``): throughput is work per kernel time, latency
a multiple of it."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside a
    git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fresh_setup_s(args) -> float:
    """Set-up time of one fresh interpreter (imports + set-up)."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def run_requests(workload, seconds: float) -> tuple[list, list[float]]:
    """Requests for ``seconds``, and at least ``min_requests``, with the
    reference kernel timed between them: the kernel timings."""
    from perfbench import reference

    requests = []
    kernel = [reference.time_kernel() for _ in range(reference.WARM_UP)]
    busy = 0.0
    began = time.perf_counter()
    while (
        len(requests) < workload.min_requests
        or time.perf_counter() - began < seconds
    ):
        while sum(kernel) < reference.SHARE * busy:
            kernel.append(reference.time_kernel())
        requests.append(workload.request(len(requests)))
        busy += requests[-1].wall_s
    return requests, kernel


def run_untraced(workload, args, import_s: float, setup_s: float):
    from perfbench import reference
    from perfbench.stats import reportable
    from perfbench.workloads import fastest

    requests, kernel = run_requests(workload, args.seconds)
    gate = workload.gate(requests)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = sorted([setup_s] + [fresh_setup_s(args) for _ in range(SETUP_REPEATS)])
    ref_s = reference.floor_s(kernel)
    throughput = workload.throughput_per_s(requests)
    latency = workload.latency(requests)
    values = {
        "setup_s": setups[len(setups) // 2],
        "peak_rss_mb": peak_rss_mb,
        "throughput_per_ref": throughput * ref_s,
        "latency_ref": latency.ms / 1e3 / ref_s,
    }
    print(f"  setup_s = {values['setup_s']:.4f} s  (median of {len(setups)} "
          f"set-ups; imports {import_s:.3f} s in this one)")
    print(f"  peak_rss_mb = {peak_rss_mb:.1f} MB")
    print(f"  ref = {1e3 * ref_s:.4f} ms  (reference kernel; fastest tenth "
          f"of {len(kernel)} runs)")
    print(f"  throughput_per_ref = {values['throughput_per_ref']:.4f} 1/ref  "
          f"(= {throughput:.2f} 1/s wall-clock; {workload.item}; fastest "
          f"{len(fastest(requests))} of {len(requests)} requests)")
    print(f"  latency_ref = {values['latency_ref']:.4f} ref  "
          f"(= {latency.ms:.4f} ms wall-clock; {latency.what}; "
          f"n={latency.samples})")
    for name, extra in workload.extra_latencies(requests).items():
        short = "" if reportable(extra.samples, extra.q) else (
            "; under 10 samples beyond this percentile")
        print(f"  {name} = {extra.ms:.4f} ms  ({extra.what}; "
              f"n={extra.samples}{short})")
    return gate, [(name, unit, values[name]) for name, unit in END_TO_END]


def run_traced(workload, args, import_s: float):
    from perfbench.layers import PER_LAYER, layer_metrics
    from perfbench.spans import Tracer

    tracer = Tracer()
    tracer.install()
    workload.setup()
    tracer.uninstall()
    header(workload, args)
    setup_counts = tracer.counts.copy()
    untraced, traced, traced_ids = [], [], set()
    # One warm-up request first (the first call into a layer pays one-time
    # costs), then untraced and traced requests alternate: both halves do
    # the same work under the same conditions.
    warm_up = workload.request(0)
    for k in range(workload.traced_requests):
        untraced.append(workload.request(2 * k + 1))
        tracer.run_id = f"request-{k}"
        traced_ids.add(tracer.run_id)
        tracer.install()
        try:
            traced.append(workload.request(2 * k + 2))
        finally:
            tracer.uninstall()
    gate = workload.gate([warm_up, *untraced, *traced])
    values = layer_metrics(
        tracer.spans, tracer.counts, setup_counts,
        import_s=import_s, main_thread=threading.get_ident(),
        untraced=untraced, traced=traced, traced_ids=traced_ids,
    )
    if tracer.missing:
        print(f"  warning: hooks not found (their metrics read 0): "
              f"{', '.join(tracer.missing)}", file=sys.stderr)
    print(f"  {len(tracer.spans)} spans over {workload.traced_requests} traced "
          "requests + set-up")
    for name, unit in PER_LAYER:
        print(f"  {name} = {values[name]:.6g} {unit}")
    return gate, [(name, unit, values[name]) for name, unit in PER_LAYER], tracer


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter; non-zero if any fails."""
    status = 0
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
        )
        status = status or completed.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program's source tree {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # Import the benchmark package and the program from this checkout.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import make

    work_dir = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    workload = make(args.workload, args.seed, work_dir)
    try:
        began = time.perf_counter()
        workload.import_program()
        import_s = time.perf_counter() - began
        if args.trace:
            gate, metrics, tracer = run_traced(workload, args, import_s)
            # Spans are kept in memory and written once, here at exit.
            tracer.write(ROOT / ".perfbench" / "traces"
                         / f"{workload.name}-seed{args.seed}.jsonl")
            return finish(gate, metrics)
        workload.setup()
        setup_s = time.perf_counter() - STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        header(workload, args)
        return finish(*run_untraced(workload, args, import_s, setup_s))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def header(workload, args) -> None:
    import numpy

    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sizes": dataclasses.asdict(workload.size),
        "inputs_sha256": workload.digest(),
    }
    print(f"perfbench {json.dumps(meta, sort_keys=True)}")


def finish(gate, metrics) -> int:
    correct = gate.failed == 0
    for note in gate.notes:
        print(f"  gate: {note}")
    print(f"  gate: {'PASS' if correct else 'FAIL'} "
          f"({gate.failed} failed of {gate.attempted} attempted)")
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, unit, value in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
