"""rbon benchmark: one workload, one seed, one JSON result on the last line.

    python3 rbonbench/run.py --workload sweep|serve|forecast --seed N \
        --seconds S --trace 0|1

Run from the repository root; rbon is imported from ./src. With
--trace 0 the end-to-end metrics are printed; with --trace 1 the same
operations run once untraced and once traced, outputs must match bit for
bit, and the per-layer metrics are printed. The line before the result
holds provenance and the accuracy of the outputs. See README.md here.
"""

import os

# One BLAS thread: the work is small matrices and elementwise numpy, and a
# second thread on a shared two-core machine mostly adds run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "serve", "forecast"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: seconds-long runs for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def clear_program_caches(keep_setup):
    """Drop every functools cache in rbon, except set-up's solved fields if asked.

    No operation may be served by state an earlier operation left behind;
    the only state allowed to persist is the set-up in rbon.benchmarks.
    """
    for name, module in list(sys.modules.items()):
        if not name.startswith("rbon.") or (keep_setup and name == "rbon.benchmarks"):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


@dataclasses.dataclass
class Record:
    """One operation: its spec, seconds taken, output, and error if it failed."""

    spec: object
    seconds: float = 0.0
    output: object = None
    error: str = None


def setup_once(workload, tracer=None):
    """Set up from cold caches; return its seconds and, if its checks failed, a failed record."""
    clear_program_caches(keep_setup=False)
    start = time.perf_counter()
    if tracer is None:
        workload.setup()
    else:
        with tracer.installed(), tracer.span("setup"):
            workload.setup()
    seconds = time.perf_counter() - start
    try:
        workload.after_setup()
    except Exception:
        error = traceback.format_exc(limit=3)
        print(f"set-up check failed:\n{error}", file=sys.stderr)
        return seconds, [Record("setup", error=error)]
    return seconds, []


def run_ops(workload, specs, tracer=None, seconds=None, setups=None):
    """Issue operations in order; stop when specs end or at the round boundary
    nearest to `seconds` of operation time, after at least one round. Checks
    run untimed and untraced.

    Given a list of set-up times, repeat set-up whenever another
    1/workload.setup_repeats of `seconds` has passed, so that the repeats
    sample the machine at different moments: on a shared host its speed
    moves between phases up to 2x apart that last seconds to minutes.
    """
    records = []
    busy = 0.0
    specs = iter(specs)
    for index in itertools.count():
        rounds = index // workload.ops_per_round
        if seconds is not None and rounds and index % workload.ops_per_round == 0 \
                and busy * (1 + 0.5 / rounds) >= seconds:
            break
        if setups is not None and busy >= len(setups) * seconds / workload.setup_repeats:
            took, failed = setup_once(workload)
            setups.append(took)
            records += failed
        spec = next(specs, None)
        if spec is None:
            break
        clear_program_caches(keep_setup=True)
        record = Record(spec)
        start = time.perf_counter()
        try:
            if tracer is None:
                record.output = workload.run(spec)
            else:
                with tracer.installed(), tracer.span("op"):
                    record.output = workload.run(spec)
            record.seconds = time.perf_counter() - start
            workload.check(spec, record.output)
        except Exception:  # an operation that fails is counted, and the run goes on
            record.seconds = record.seconds or time.perf_counter() - start
            record.error = traceback.format_exc(limit=3)
            print(f"operation {index} {spec!r:.80} failed:\n{record.error}", file=sys.stderr)
        busy += record.seconds
        records.append(record)
    return records


def percentile(values, q):
    """q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, setups, records):
    """Times are best of repeats: set-up over its repeats, and each operation
    over the run's operations of its class (workload.op_class), the timeit
    convention. The host's speed switches between phases up to 2x apart, so
    slower repeats measure the other tenants; the percentiles are then taken
    over every operation of the run, each at its class's best time.
    """
    ok = [r for r in records if r.error is None]
    best = {}
    for r in ok:
        key = workload.op_class(r.spec)
        best[key] = min(best.get(key, r.seconds), r.seconds)
    seconds = [best[workload.op_class(r.spec)] for r in ok] or [0.0]
    produced = sum(workload.outputs(r.spec, r.output) for r in ok if r.output is not None)
    return {
        "setup_s": (min(setups), "s"),
        "op_ms_p50": (percentile(seconds, 50) * 1e3, "ms"),
        "op_ms_p90": (percentile(seconds, 90) * 1e3, "ms"),
        "outputs_per_s": (produced / sum(seconds) if sum(seconds) else 0.0, "1/s"),
        "ok_frac": (sum(r.error is None for r in records) / len(records), "ratio"),
    }


def traced_comparison(workload, spans):
    """Same operations untraced, then traced; outputs must agree bit for bit."""
    tracer = spans.Tracer()
    _, setup_records = setup_once(workload, tracer)
    specs = list(itertools.islice(workload.specs(), workload.traced_ops))
    plain = run_ops(workload, specs)
    traced = run_ops(workload, specs, tracer)
    for index, (a, b) in enumerate(zip(plain, traced)):
        if a.error is None and b.error is None and \
                workload.output_digest(a.output) != workload.output_digest(b.output):
            b.error = "traced output differs from untraced"
            print(f"operation {index}: {b.error}", file=sys.stderr)
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    for name, (calls, total, own) in sorted(tracer.summary().items()):
        print(f"span {name:32s} calls={calls:7d} total_s={total:10.4f} self_s={own:10.4f}",
              file=sys.stderr)
    return metrics, setup_records + plain + traced


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(p for p in libraries if ".so" in p):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def git_sha():
    """Commit of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def provenance(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "rbon" / "__init__.py").is_file():
        print(f"rbon sources not found under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    rbon = importlib.import_module("rbon")
    if Path(rbon.__file__).resolve().parent != ROOT / "src" / "rbon":
        print(f"imported rbon from {rbon.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.size == "tiny")
    if args.trace:
        metrics, records = traced_comparison(workload, spans)
    else:
        setups = []
        records = run_ops(workload, workload.specs(), seconds=args.seconds, setups=setups)
        while len(setups) < workload.setup_repeats:
            took, failed = setup_once(workload)
            setups.append(took)
            records += failed
        metrics = end_to_end(workload, setups, records)
    accuracy = workload.accuracy.summary()
    if args.trace:
        metrics["metrics.id_rel_l2"] = (accuracy["id"], "ratio")
        metrics["metrics.ood_rel_l2"] = (accuracy["ood"], "ratio")
    failed = sum(record.error is not None for record in records)
    print(json.dumps({"provenance": provenance(args), "accuracy": accuracy}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
