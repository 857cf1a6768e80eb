"""blockmoment benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload pointwise --seed 1 --seconds 20 --trace 0

Run from the repository root (the script finds ``src/`` and ``tests/``
beside its own directory).  One caller makes library calls in a closed
loop: the next call starts when the previous one returns.  BLAS is pinned
to one thread here and in every subprocess.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
library's public functions, runs the same loop traced, replays the same
calls untraced to measure the tracing overhead, and prints the per-layer
metrics.  Spans are written to ``bench/out/``.  The last line of stdout is
the JSON result; lines before it are the same numbers for people.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse                                          # noqa: E402
import gc                                                # noqa: E402
import json                                              # noqa: E402
import platform                                          # noqa: E402
import statistics                                        # noqa: E402
import subprocess                                        # noqa: E402
import sys                                               # noqa: E402
from pathlib import Path                                 # noqa: E402
from time import perf_counter                            # noqa: E402

import numpy as np                                       # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import blockmoment; "
                "print(time.perf_counter() - t)")


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def import_seconds() -> float:
    """Time of `import blockmoment` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(done.stderr.strip())
    return float(done.stdout.strip().splitlines()[-1])


def run_round(calls, tracer=None):
    """Make the calls one after another; returns (records, wall seconds).

    A record is (class, kind, latency seconds, Outcome).
    """
    from workloads import Outcome
    records = []
    if tracer:
        call_span = tracer.name_id("bench.call")
        root = tracer.open(tracer.name_id("bench"))
    start = perf_counter()
    for call in calls:
        if tracer:
            tracer.call_id += 1
            span = tracer.open(call_span)
        t0 = perf_counter()
        try:
            out = call.fn()
            raised = None
        except Exception as e:   # a failed call is counted, not fatal
            raised = e
        t1 = perf_counter()
        if tracer:
            tracer.close(span)
        if raised is None:
            try:
                outcome = call.check(out)
            except Exception as e:   # a malformed output fails the call
                raised = e
        if raised is not None:
            outcome = Outcome(False)
        if not outcome.ok:
            detail = repr(raised) if raised is not None else outcome
            print(f"# FAILED {call.cls} {call.kind}: {detail}",
                  file=sys.stderr)
        records.append((call.cls, call.kind, t1 - t0, outcome))
    wall = perf_counter() - start
    if tracer:
        tracer.close(root)
    return records, wall


def run_untraced(workload, seconds):
    """Rounds until ``seconds`` pass; returns (records, rounds)."""
    records = []
    start = perf_counter()
    for n, calls in enumerate(workload.rounds(), start=1):
        records += run_round(calls)[0]
        if perf_counter() - start >= seconds:
            return records, n


def run_traced(workload, seconds, tracer, install):
    """Each round runs traced, then again untraced, until ``seconds`` pass.

    Alternating the two keeps slow phases of the host from landing on one
    side of the overhead comparison.  Returns (records of the traced
    passes, rounds, traced wall seconds, untraced wall seconds).
    """
    records = []
    walls = [0.0, 0.0]
    start = perf_counter()
    for n, calls in enumerate(workload.rounds(in_process=True), start=1):
        install()
        try:
            done, wall = run_round(calls, tracer)
        finally:
            tracer.uninstall()
        records += done
        walls[0] += wall
        walls[1] += run_round(calls)[1]
        if perf_counter() - start >= seconds:
            return records, n, walls[0], walls[1]


def accuracy(records):
    """p1/pn worst relative error, failed fraction, per-key maxima."""
    worst = {"p1": 0.0, "pn": 0.0}
    stats: dict[str, list] = {}
    failed = 0
    for cls, _, _, outcome in records:
        if not outcome.ok:
            failed += 1
        if outcome.err is not None:
            worst[cls] = max(worst[cls], outcome.err)
        for key, value in outcome.stats.items():
            stats.setdefault(key, []).append(value)
    return worst, failed, stats


# Gated end-to-end metrics; the others are printed but not gated.  On a
# shared 2-core host, call latencies switch between a fast and a slow mode
# for seconds at a time, and the share of each mode drifts from run to run.
# A percentile inside a call kind's latency range mixes the two modes and
# moves with that share; the 99th percentile sits in the slow mode of the
# costliest kind.  See bench/README.md.
GATED = ("setup_s", "p1_call_ms_p99", "pn_call_ms_p99")


def end_to_end(records, setup_s):
    """All end-to-end metrics as name -> (value, unit, sample count)."""
    worst, failed, _ = accuracy(records)
    metrics = {"setup_s": (setup_s, "s", SETUP_REPS)}
    for cls in ("p1", "pn"):
        lat = [r[2] for r in records if r[0] == cls]
        n = len(lat)
        metrics[f"{cls}_calls_per_s"] = (n / sum(lat), "1/s", n)
        qs = (50, 90, 95, 99)
        for q, ms in zip(qs, 1e3 * np.percentile(lat, qs)):
            metrics[f"{cls}_call_ms_p{q}"] = (float(ms), "ms", n)
        metrics[f"{cls}_max_rel_err"] = (worst[cls], "ratio", n)
    metrics["failed_frac"] = (failed / len(records), "ratio", len(records))
    return metrics


# per-layer accuracy figures, filled in by the workloads' checks
ACCURACY = {"nevanlinna.quartet.max_rel_err": "ratio",
            "nevanlinna.transform_extremal.max_rel_err": "ratio",
            "nevanlinna.transform_from_V.max_rel_err": "ratio",
            "moments.oracle_err": "ratio",
            "moments.roundtrip_err": "ratio",
            "spectral.gauss_quadrature.exactness_err": "ratio"}
COUNTED = ("jacobi.prefix", "numpy.linalg.inv", "matkernel.as_complex_matrix",
           "spectral.estimate_H", "polys.expand")


def per_layer(tracer, records, traced_wall, untraced_wall, import_s,
              ref_err):
    from spans import LAYERS, layer_of, layer_self_times
    layer_s = layer_self_times(tracer.self_times())
    out = {}
    for layer in LAYERS:
        names = [n for n in tracer.calls if layer_of(n) == layer]
        out[f"{layer}.self_s"] = (layer_s[layer], "s")
        out[f"{layer}.calls"] = (sum(tracer.calls[n] for n in names), "count")
        out[f"{layer}.errors"] = (sum(tracer.errors[n] for n in names),
                                  "count")
    for name in COUNTED:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
    c = tracer.counts

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    worst, failed, stats = accuracy(records)
    for key, unit in ACCURACY.items():
        out[key] = (max(stats.get(key, [0.0])), unit)
    classify_ok = stats.get("spectral.classify.correct", [])
    src_lines = sum(len(f.read_text().splitlines())
                    for f in (SRC / "blockmoment").glob("*.py"))
    out.update({
        "numpy.self_s": (layer_s["numpy"], "s"),
        "bench.self_s": (layer_s["bench"], "s"),
        "jacobi.prefix.blocks": (c.get("prefix.blocks", 0), "count"),
        "nevanlinna.extension_bracket.points": (c.get("bracket.points", 0),
                                                "count"),
        "nevanlinna.extension_bracket.single_point_calls": (
            c.get("bracket.single_point_calls", 0), "count"),
        "nevanlinna.extension_spectrum.points_per_root": (
            ratio("bracket.points", "extension_spectrum.roots"), "ratio"),
        "nevanlinna.quartet.n_used_mean": (
            ratio("quartet.n_used", "quartet.values"), "terms"),
        "nevanlinna.quartet.converged_frac": (
            ratio("quartet.converged", "quartet.values"), "ratio"),
        "polys.first_kind_values.point_steps": (c.get("point_steps", 0),
                                                "count"),
        "spectral.classify.correct_frac": (
            sum(classify_ok) / len(classify_ok) if classify_ok else 0.0,
            "ratio"),
        "cli.import_s": (import_s, "s"),
        "p1_max_rel_err": (worst["p1"], "ratio"),
        "pn_max_rel_err": (worst["pn"], "ratio"),
        "failed_frac": (failed / len(records), "ratio"),
        "reference.max_err_est": (ref_err, "ratio"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        "trace.accounted_frac": (sum(layer_s.values()) / traced_wall,
                                 "ratio"),
        "src_lines": (src_lines, "lines"),
    })
    return out


def trace_hooks():
    def prefix(tr, args, kwargs):
        tr.count("prefix.blocks", args[1] if len(args) > 1 else kwargs["n"])

    def point_steps(tr, args, kwargs):
        zs = args[1] if len(args) > 1 else kwargs["zs"]
        n = args[2] if len(args) > 2 else kwargs["n"]
        tr.count("point_steps", len(zs) * n)

    def bracket(tr, args, kwargs):
        lams = args[2] if len(args) > 2 else kwargs["lams"]
        n = len(lams)
        tr.count("bracket.points", n)
        tr.count("bracket.single_point_calls", int(n == 1))

    def spectrum(tr, result):
        tr.count("extension_spectrum.roots", len(result))

    def quartet(tr, result):
        tr.count("quartet.values")
        tr.count("quartet.n_used", result.n_used)
        tr.count("quartet.converged", int(result.converged))

    return {"jacobi.prefix": (prefix, None),
            "polys.first_kind_values": (point_steps, None),
            "nevanlinna.extension_bracket": (bracket, None),
            "nevanlinna.extension_spectrum": (None, spectrum),
            "nevanlinna.quartet": (None, quartet)}


def machine_info():
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        b = cfg["Build Dependencies"]["blas"]
        blas = f"{b.get('name')} {b.get('version')}"
    except Exception:   # the build-info layout differs across numpy versions
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas!r} {threads}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "blockmoment" / "__init__.py").is_file():
        fail(f"library sources not found under {SRC}")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import workloads as wl
    except ImportError as e:
        fail(f"cannot import the library: {e}")
    if args.workload not in wl.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(wl.WORKLOADS)}", 1)
    print(f"# {machine_info()}")

    workload = wl.WORKLOADS[args.workload](args.seed, ROOT)
    setups, imports = [], []
    try:
        for _ in range(SETUP_REPS):
            imports.append(import_seconds())
            t0 = perf_counter()
            workload.setup()
            setups.append(imports[-1] + perf_counter() - t0)
        t0 = perf_counter()
        ref_err = workload.references()
        ref_s = perf_counter() - t0
    except (wl.SetupFailed, FileNotFoundError, RuntimeError) as e:
        fail(f"set-up failed for seed {args.seed}: {e}", 3)
    setup_s = statistics.median(setups)
    # the inputs and references stay alive for the whole run; keep the
    # collector from walking them again on every full collection
    gc.collect()
    gc.freeze()
    print(f"# setup reps {[round(s, 4) for s in setups]}; references "
          f"{ref_s:.2f} s, own error estimate {ref_err:.2e}")

    if args.trace:
        from spans import Tracer
        import blockmoment
        tracer = Tracer()
        hooks = trace_hooks()
        records, n_rounds, traced_wall, untraced_wall = run_traced(
            workload, args.seconds, tracer,
            lambda: tracer.install(blockmoment, hooks))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}-s{args.seed}.npz")
        metrics = per_layer(tracer, records, traced_wall, untraced_wall,
                            statistics.median(imports), ref_err)
        shown = {k: (v, u, None) for k, (v, u) in metrics.items()}
    else:
        records, n_rounds = run_untraced(workload, args.seconds)
        shown = end_to_end(records, setup_s)
        metrics = {k: shown[k][:2] for k in GATED}

    for name, (value, unit, n) in shown.items():
        samples = f"  (n={n})" if n is not None else ""
        print(f"# {name} = {value:.6g} {unit}{samples}")
    failed = sum(1 for r in records if not r[3].ok)
    print(f"# {len(records)} calls in {n_rounds} rounds, {failed} failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
