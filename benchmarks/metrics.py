"""Turn session records into the metrics declared in BENCHMARK.json.

Units and directions live in BENCHMARK.json only; this module computes the
values under the declared names, and ``run.py`` refuses to print a name
that BENCHMARK.json does not declare.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics

from tracer import RUN, SETUP, TEARDOWN


def environment() -> dict:
    """What the measurements depend on, read inside the measured process."""
    import numpy as np

    try:
        from lexigan import _kernels
        kernel_path = "numba" if getattr(_kernels, "HAVE_NUMBA", False) else "numpy"
    except ImportError:
        kernel_path = "numpy (no _kernels module)"
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "kernel_path": kernel_path,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps", "r", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


SECTIONS = ("measured", "setup", "teardown")


def _merge_times(dst: dict, src: dict) -> None:
    for name, (self_s, calls) in src.items():
        cur = dst.setdefault(name, [0.0, 0])
        cur[0] += self_s
        cur[1] += calls


def _merge_counts(dst: dict, src: dict) -> None:
    for name, value in src.items():
        dst[name] = dst.get(name, 0.0) + value


def summarize(tracer, warmup: int) -> dict:
    """Per-layer totals of one traced session, split by where the work happened.

    ``measured`` covers the units of work the end-to-end time is taken over
    (training cycles after warm-up, or the probe run after its set-up);
    ``setup`` and ``teardown`` cover what comes before and after them.
    """
    out = {key: {"time": {}, "count": {}} for key in SECTIONS}
    if tracer.cycles:
        measured = set(range(warmup, len(tracer.cycles)))
    else:
        measured = {RUN}
    units = set(tracer.self_time) | set(tracer.counts)
    for unit in units:
        key = ("measured" if unit in measured else
               "setup" if unit == SETUP else "teardown" if unit == TEARDOWN else None)
        if key is None:
            continue  # warm-up cycles
        _merge_times(out[key]["time"], tracer.self_time.get(unit, {}))
        _merge_counts(out[key]["count"], tracer.counts.get(unit, {}))
    phases = {"critic": 0.0, "gen_adv": 0.0, "info": 0.0}
    for k in sorted(u for u in measured if isinstance(u, int)):
        start, end = tracer.cycles[k]
        marks = tracer.cycle_marks[k]
        d_ends = [t for name, t in marks if name == "adam_d"]
        g_ends = [t for name, t in marks if name == "adam_g"]
        if d_ends and g_ends:
            phases["critic"] += d_ends[-1] - start
            phases["gen_adv"] += g_ends[0] - d_ends[-1]
            phases["info"] += end - g_ends[0]
    out["phases"] = phases
    out["gp_inclusive_s"] = sum(
        end - start for name, start, end, _, unit in tracer.spans()
        if name == "training.gradient_penalty" and unit in measured)
    out["units"] = len(measured)
    out["spans"] = sum(1 for u in tracer.span_unit if u in measured)
    return out


def median(values):
    return statistics.median(values) if values else None


def p75(values):
    """Upper quartile, within the range of the values (one value is its own)."""
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def end_to_end(workload, full: list, setup_only: list) -> dict:
    """The end-to-end metrics of one untraced run, from its sessions."""
    units = unit_samples_ms(workload, full)
    setups = [s["setup_end"] - s["spawn"] for s in full + setup_only
              if s.get("setup_end") is not None]
    rss = [s["peak_rss_mb"] for s in full if s.get("peak_rss_mb")]
    return {"unit_ms_p75": p75(units), "setup_s": median(setups),
            "peak_rss_mb": median(rss)}


# A descent is taken at the pace of its slowest tenth of slices once it has
# ten slices beyond that decile; a shorter one (a fit that stops after a few
# iterations) counts as timed.
MIN_DESCENT_BLOCKS = 100


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def descent_excess_s(descent) -> float:
    """Seconds to add to a descent's wall time to take it at the 90th-percentile
    pace of its equal slices instead of their mean pace.

    The slices are equal work, so their times differ only by how fast the
    host ran while each was timed. The shared hosts this runs on alternate
    between a common slow state and bursts 1.6-2x faster that can fill
    half of a ten-second fit, in a proportion that changes from run to run;
    the slowest tenth of slices stays in the common state.
    """
    wall, blocks = descent
    if len(blocks) < MIN_DESCENT_BLOCKS:
        return 0.0
    return wall * (p90(blocks) / statistics.fmean(blocks) - 1.0)


def unit_samples_ms(workload, sessions, paced: bool = True) -> list:
    """Wall ms of each unit of work: a training cycle after warm-up, or one
    class code at one value of a probe run (probe wall after set-up / codes x
    values, with each long regression descent taken at its 90th-percentile
    pace unless `paced` is false)."""
    out = []
    for s in sessions:
        if s.get("rc") != 0:
            continue
        if workload.kind == "train":
            out.extend(s["cycles_ms"][workload.warmup:])
        elif s.get("setup_end") is not None:
            wall = s["end"] - s["setup_end"]
            if paced:
                wall += sum(map(descent_excess_s, s.get("descents", [])))
            out.append(wall * 1e3 / workload.probe_units)
    return out


def merge(summaries: list) -> dict:
    """Add up the per-layer summaries of several traced sessions."""
    out = {key: {"time": {}, "count": {}} for key in SECTIONS}
    out.update(phases={"critic": 0.0, "gen_adv": 0.0, "info": 0.0}, gp_inclusive_s=0.0,
               units=0, spans=0, sessions=len(summaries))
    for s in summaries:
        for key in SECTIONS:
            _merge_times(out[key]["time"], s[key]["time"])
            _merge_counts(out[key]["count"], s[key]["count"])
        for phase, v in s["phases"].items():
            out["phases"][phase] += v
        for key in ("gp_inclusive_s", "units", "spans"):
            out[key] += s[key]
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(workload, untraced: list, traced: list) -> dict:
    """Per-layer metrics of the traced sessions, plus the tracing overhead.

    Work inside the measured units is given per unit (per cycle, or per
    probe run); set-up and checkpoint writes are given per session.
    """
    lay = merge([s["layers"] for s in traced])
    n, runs = lay["units"], lay["sessions"]
    t, c = lay["measured"]["time"], lay["measured"]["count"]
    st = lay["setup"]["time"]
    tt, tc = lay["teardown"]["time"], lay["teardown"]["count"]

    def ms(times, name, per):
        return _ratio(times.get(name, [0.0])[0] * 1e3, per)

    m = {}
    for op in ("conv1d", "conv1d_transpose", "phase_shuffle", "dense", "activation", "misc"):
        m[f"autodiff.{op}.fwd_ms"] = ms(t, f"autodiff.{op}.fwd", n)
        m[f"autodiff.{op}.bwd_ms"] = ms(t, f"autodiff.{op}.bwd", n)
    m["autodiff.conv1d.jvp_ms"] = ms(t, "autodiff.conv1d.jvp", n)
    for op in ("conv1d", "conv1d_transpose"):
        calls = c.get(f"autodiff.{op}.calls", 0.0)
        m[f"autodiff.{op}.calls"] = _ratio(calls, n)
        m[f"autodiff.{op}.macs_per_call"] = _ratio(c.get(f"autodiff.{op}.macs", 0.0), calls)
        m[f"autodiff.{op}.bytes_per_call"] = _ratio(c.get(f"autodiff.{op}.bytes", 0.0), calls)
    m["autodiff.backward.self_ms"] = ms(t, "autodiff.backward", n)
    for kernel in ("overlap_add", "shuffle_gather", "shuffle_scatter"):
        name = f"kernels.{kernel}"
        calls = c.get(f"{name}.calls", 0.0)
        m[f"{name}.ms"] = ms(t, name, n)
        m[f"{name}.calls"] = _ratio(calls, n)
        m[f"{name}.bytes_per_call"] = _ratio(c.get(f"{name}.bytes", 0.0), calls)
        if kernel != "shuffle_gather":  # a gather adds nothing
            m[f"{name}.adds_per_call"] = _ratio(c.get(f"{name}.adds", 0.0), calls)
    for fn in ("generator_forward", "critic_forward", "critic_jvp"):
        m[f"models.{fn}.ms"] = ms(t, f"models.{fn}", n)
    for phase in ("critic", "gen_adv", "info"):
        m[f"training.{phase}_phase_ms"] = _ratio(lay["phases"][phase] * 1e3, n)
    m["training.gp_ms"] = _ratio(lay["gp_inclusive_s"] * 1e3, n)
    m["training.save_checkpoint.ms"] = ms(tt, "training.save_checkpoint", runs)
    m["training.save_checkpoint.bytes"] = _ratio(tc.get("training.save_checkpoint.bytes", 0.0),
                                                 runs)
    m["training.init_state.ms"] = ms(st, "training.init_state", runs)
    m["training.load_checkpoint.ms"] = ms(st, "training.load_checkpoint", runs)
    for opt in ("adam_d", "adam_g", "rmsprop_q"):
        m[f"optim.{opt}.step_ms"] = ms(t, f"optim.{opt}.step", n)
    m["optim.bytes_touched"] = _ratio(c.get("optim.bytes_touched", 0.0), n)
    m["corpus.load_corpus_dir.ms"] = ms(st, "corpus.load_corpus_dir", runs)
    m["probe.build_templates.ms"] = ms(st, "probe.build_templates", runs)
    m["probe.classify_batch.ms"] = ms(t, "probe.classify_batch", n)
    m["probe.classify_batch.clips"] = _ratio(c.get("probe.classify_batch.clips", 0.0), n)
    m["probe.retrieval_accuracy.ms"] = ms(t, "probe.retrieval_accuracy", n)
    generated = c.get("probe.generated_clips", 0.0)
    m["probe.generated_clips"] = _ratio(generated, n)
    m["probe.gen_useful_ratio"] = _ratio(c.get("probe.distinct_clips", 0.0), generated)
    fits = c.get("regression.fits", 0.0)
    m["regression.fit_multinomial.ms"] = ms(t, "regression.fit_multinomial", n)
    m["regression.fit_multinomial.iterations"] = _ratio(c.get("regression.iterations", 0.0), fits)
    m["regression.converged_frac"] = _ratio(c.get("regression.converged", 0.0), fits)
    traced_ms = p75(unit_samples_ms(workload, traced)) or 0.0
    untraced_ms = p75(unit_samples_ms(workload, untraced)) or 0.0
    # shares are of the mean timed wall of what the per-layer figures are
    # normalised by: one cycle, or one whole probe run after its set-up
    timed_ms = statistics.fmean(unit_samples_ms(workload, traced, paced=False) or [0.0])
    unit_wall = timed_ms if workload.kind == "train" else timed_ms * workload.probe_units
    opt_ms = sum(m[f"optim.{opt}.step_ms"] for opt in ("adam_d", "adam_g", "rmsprop_q"))
    m["optim.share"] = _ratio(opt_ms, unit_wall)
    m["regression.share"] = _ratio(m["regression.fit_multinomial.ms"], unit_wall)
    m["trace.unit_ms_p75"] = traced_ms
    m["trace.overhead_ms"] = traced_ms - untraced_ms
    m["trace.spans_per_unit"] = _ratio(lay["spans"], n)
    return m
