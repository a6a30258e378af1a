"""rcgraph benchmark: run one workload closed-loop and print its metrics.

    python3 perfbench/run.py --workload sweep_coloring --seed 0 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics. With
``--trace 1`` it measures untraced for half the time, then runs the same
items again with the layer hooks of ``layers.py`` installed, and reports
the per-layer metrics. Every item's output is checked outside the timed
region: against the recorded digests of ``reference.json`` for the
default seed, against invariants for any other seed. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Times are reported at a reference machine speed. On a shared machine the
speed of one vCPU drifts by a factor of up to 1.8 over tens of seconds,
the same for every workload, which no run length averages away. So a
fixed calibration kernel (``kernel_ms``, no rcgraph code) is timed
before and after every item and every set-up, and each measured time is
divided by the ``slowness`` the kernel timings around it show. The
measured times are printed too, and written with ``--out``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
KERNEL_REF_MS = (3.0, 2.0)  # the kernel's two parts when the machine that recorded the baselines ran fast
SPEED_WINDOW = 3  # kernel timings on either side of an item that set its speed
TAIL_BEYOND = 10
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("sweep_coloring", "rainbow_k2", "connectivity_k3", "sweep_growth_diameter")


def cap_blas_threads() -> dict:
    """Set every BLAS thread-count variable before numpy loads: the
    requested OPENBLAS_NUM_THREADS capped at nproc, or 1 by default.

    One thread is the default because on a 2-vCPU machine two OpenBLAS
    threads made the n = 1000 sweep slower (364 vs 316 ms per call) and
    made the first passes of a run two to three times slower for a
    varying time, which dominated the spread between runs.
    """
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS")
    try:
        threads = max(1, min(int(requested), nproc))
    except (TypeError, ValueError):
        threads = 1
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return {"nproc": nproc, "blas_threads": threads,
            "blas_threads_requested": requested or "default"}


def environment(seed: int) -> dict:
    import numpy as np

    env = {"python": platform.python_version(), "numpy": np.__version__, "seed": seed}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        env["blas"] = "unknown"
    env["cpu"] = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    env["commit"] = git_commit()
    return env


def git_commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


@functools.cache
def _kernel_inputs():
    """A fixed pseudo-random graph (64-bit LCG) as adjacency lists and as a
    0/1 float32 matrix. Built on first use, after BLAS threads are capped."""
    import numpy as np

    n, x = 320, 12345
    adj: list[list[int]] = [[] for _ in range(n)]
    matrix = np.zeros((n, n), dtype=np.float32)
    for u in range(n):
        for _ in range(8):
            x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
            w = (x >> 33) % n
            if w != u and not matrix[u, w]:
                adj[u].append(w)
                adj[w].append(u)
                matrix[u, w] = matrix[w, u] = 1.0
    return adj, matrix


def kernel_ms() -> tuple[float, float]:
    """Time the two parts of the calibration kernel, in ms, without any
    rcgraph code: breadth-first searches in pure Python, like the
    library's interpreted loops, and a chain of float32 products, like
    its matrix routes."""
    import numpy as np

    adj, matrix = _kernel_inputs()
    t0 = time.perf_counter()
    for s in range(0, len(adj), 20):
        depth = {s: 0}
        frontier = [s]
        while frontier:
            following = []
            for u in frontier:
                du = depth[u] + 1
                for w in adj[u]:
                    if w not in depth:
                        depth[w] = du
                        following.append(w)
            frontier = following
    t1 = time.perf_counter()
    reach = matrix
    for _ in range(3):
        reach = np.minimum(reach @ matrix, 1.0)
    t2 = time.perf_counter()
    return (t1 - t0) * 1e3, (t2 - t1) * 1e3


def slowness(kernels: list[tuple[float, float]], interpreted_share: float) -> float:
    """How much slower than at reference speed the machine ran: the median
    timing of each kernel part over its reference, weighted by the share of
    the workload's time spent in interpreted code."""
    interpreted = statistics.median(k[0] for k in kernels) / KERNEL_REF_MS[0]
    blas = statistics.median(k[1] for k in kernels) / KERNEL_REF_MS[1]
    return interpreted_share * interpreted + (1 - interpreted_share) * blas


class Phase:
    """Timings and output summaries of consecutive items 0, 1, 2, ...,
    with the kernel timed before the first item and after every item."""

    def __init__(self, interpreted_share: float) -> None:
        self.interpreted_share = interpreted_share
        self.times: list[float] = []
        self.kernel_ms = [kernel_ms()]  # entry j is timed just before item j
        self.units = 0
        self.summaries: list[tuple[int, object]] = []  # (index, Summary or error text)

    @property
    def seconds(self) -> float:
        return sum(self.times)

    def adjusted(self) -> list[float]:
        """Item times at reference speed, each set by the kernel timings
        of the SPEED_WINDOW gaps before and after it."""
        return [t / slowness(self.kernel_ms[max(0, j - SPEED_WINDOW + 1):j + SPEED_WINDOW + 1],
                             self.interpreted_share)
                for j, t in enumerate(self.times)]


def run_one(wl, inputs, i: int):
    """Run item i; returns (seconds, Summary or error text)."""
    t0 = time.perf_counter()
    try:
        out = wl.run_item(inputs, i)
    except Exception as exc:  # a raised error, BudgetExceeded included, fails the item
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return elapsed, wl.summarize(out, i)


def measure(wl, inputs, seconds: float | None = None, items: int | None = None) -> Phase:
    """Closed loop over whole passes, until ``seconds`` of timed work or
    exactly ``items`` items."""
    phase = Phase(wl.interpreted_share)
    i = 0
    while True:
        for _ in range(wl.pass_len):
            elapsed, summary = run_one(wl, inputs, i)
            phase.times.append(elapsed)
            phase.kernel_ms.append(kernel_ms())
            phase.summaries.append((i, summary))
            if not isinstance(summary, str):
                phase.units += summary.units
            i += 1
            if items is not None and i >= items:
                return phase
        if items is None and phase.seconds >= seconds:
            return phase


def load_reference(name: str) -> list[str] | None:
    try:
        return json.loads((HERE / "reference.json").read_text())["digests"][name]
    except (OSError, KeyError, ValueError):
        return None


def check(wl, inputs, seed: int, summaries, reference) -> tuple[int, list[str]]:
    """Count failed items; each distinct item index is checked once. At
    the default seed every item fails when the reference digests are
    missing or do not cover the workload's inputs one to one."""
    from workloads import DEFAULT_SEED

    use_reference = seed == DEFAULT_SEED
    no_reference = None
    if use_reference and reference is None:
        no_reference = "reference.json holds no digests for this workload"
    elif use_reference and len(reference) != wl.cycle:
        no_reference = (f"reference.json holds {len(reference)} digests for "
                        f"{wl.cycle} inputs; re-record it")
    verdict: dict[int, str | None] = {}
    first: dict[int, object] = {}
    for i, summary in summaries:
        if isinstance(summary, str):
            verdict[i] = summary
            continue
        if i in first:
            if first[i].digest != summary.digest:
                verdict[i] = f"item {i} gave two different outputs"
            continue
        first[i] = summary
    for i, summary in first.items():
        if verdict.get(i):
            continue
        if no_reference:
            problems = [no_reference]
        elif use_reference:
            expected = reference[i % wl.cycle]
            problems = [] if summary.digest == expected else [
                f"digest {summary.digest} differs from reference {expected}"]
        else:
            problems = wl.check(inputs, i, summary.info)
        verdict[i] = "; ".join(problems) or None
    failed = sum(1 for i, _ in summaries if verdict.get(i))
    messages = [f"item {i}: {msg}" for i, msg in sorted(verdict.items()) if msg]
    return failed, messages


def tail(times: list[float]) -> tuple[float, float]:
    """The sample with exactly TAIL_BEYOND samples above it, and its
    percentile; the largest sample when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def setup(wl, seed: int):
    """Build the inputs from the seed, reset lazy library caches and run
    one untimed warm-up item. Returns (inputs, warm-up summary)."""
    from rcgraph import graphs

    cache = getattr(graphs, "_pair_indices", None)
    if hasattr(cache, "cache_clear"):
        cache.cache_clear()
    inputs = wl.build(seed)
    _, summary = run_one(wl, inputs, 0)
    return inputs, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result as JSON here")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63 or args.seconds <= 0:
        parser.error("--seed must be in [0, 2**63) and --seconds positive")

    threads = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import rcgraph  # noqa: F401
        import workloads
        import layers
    except ImportError as exc:
        print(f"perfbench: cannot import rcgraph from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    imported_s = time.perf_counter() - _STARTED

    wl = workloads.WORKLOADS[args.workload]
    env = {**threads, **environment(args.seed)}
    print("env " + json.dumps(env, sort_keys=True))

    setups: list[float] = []
    setup_kernels = [kernel_ms()]
    warmups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs, warm = setup(wl, args.seed)
        setups.append(time.perf_counter() - t0)
        setup_kernels.append(kernel_ms())
        warmups.append((0, warm))

    metrics: dict[str, dict] = {}
    extra: dict = {}
    if not args.trace:
        phase = measure(wl, inputs, seconds=args.seconds)
        summaries = phase.summaries
        adjusted = phase.adjusted()
        tail_s, tail_pct = tail(adjusted)
        setup_measured = imported_s + statistics.median(setups)
        metrics = {
            "work_per_s": {"value": phase.units / sum(adjusted), "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(adjusted) * 1e3, "unit": "ms"},
            "item_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
            "setup_s": {"value": setup_measured / slowness(setup_kernels, wl.interpreted_share),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        measured = {"work_per_s": phase.units / phase.seconds,
                    "item_p50_ms": statistics.median(phase.times) * 1e3,
                    "item_tail_ms": tail(phase.times)[0] * 1e3, "setup_s": setup_measured}
        extra = {"items": len(phase.times), "work_units": phase.units,
                 "timed_s": phase.seconds, "tail_percentile": tail_pct,
                 "tail_beyond": min(TAIL_BEYOND, len(phase.times) - 1),
                 "import_s": imported_s, "setup_repeats_s": setups, "measured": measured,
                 "kernel_ms": phase.kernel_ms, "setup_kernel_ms": setup_kernels}
        print(f"timed {len(phase.times)} items, {phase.units} work units in {phase.seconds:.3f} s; "
              f"item_tail_ms is p{tail_pct:.1f} of {len(phase.times)} items "
              f"({extra['tail_beyond']} beyond)")
        print(f"slowness {slowness(phase.kernel_ms, wl.interpreted_share):.4f} against the "
              f"kernel's reference {KERNEL_REF_MS} ms; as measured: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in measured.items()))
    else:
        plain = measure(wl, inputs, seconds=args.seconds / 2)
        tracer = layers.Tracer()
        with layers.installed(tracer) as missing:
            traced = measure(wl, inputs, items=len(plain.times))
        summaries = plain.summaries + traced.summaries
        # The untraced time, at the speed the machine ran the traced phase.
        plain_s = sum(plain.adjusted()) * traced.seconds / sum(traced.adjusted())
        for name, (value, unit) in layers.layer_metrics(
                tracer, len(traced.times), traced.seconds, plain_s).items():
            metrics[name] = {"value": value, "unit": unit}
        extra = {"items": len(traced.times), "untraced_s": plain.seconds,
                 "traced_s": traced.seconds, "absent_hooks": missing,
                 "spans": {k: {"calls": tracer.calls[k], "self_ms": tracer.self_s[k] * 1e3}
                           for k in sorted(tracer.calls)}}
        print(f"traced {len(traced.times)} items: {traced.seconds:.3f} s traced, "
              f"{plain.seconds:.3f} s untraced; absent hooks: {missing or 'none'}")

    failed, messages = check(wl, inputs, args.seed, warmups + summaries,
                             load_reference(args.workload))
    attempted = len(warmups) + len(summaries)
    for msg in messages[:20]:
        print("FAILED " + msg)
    print(f"fail_frac = {failed / attempted:.6g} ({failed} failed of {attempted} attempted, "
          f"warm-up items included)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.out:
        full = {"workload": args.workload, "trace": args.trace, "env": env, **extra, **result}
        args.out.write_text(json.dumps(full, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
