"""Benchmark for lexigan's train and probe commands.

Usage, from the repository root:

    python3 benchmarks/run.py --workload train-desk --seed 1 --seconds 10 --trace 0

Workloads: train-desk, probe-fit, probe-sweep (see
workloads.py and BENCHMARK.json for why each exists). The inputs are made
from --seed. Every session of the program runs in its own child process
(session.py) that calls ``lexigan.cli.main`` with BLAS pinned to one
thread; sessions repeat until --seconds have passed, then set-up-only
sessions top the set-up samples up to five.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced sessions and prints the per-layer metrics, including the tracing
overhead (traced minus untraced time per unit of work).

Every output the program writes is checked; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results, with the environment they were measured in, also go to
``.bench_results/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_LIMIT_S = 170.0      # a run must end within 180 s
SETUP_SAMPLES = 5
LOSS_HEADER = "step,v_wgan,gp,d_loss,g_loss,info_loss"

sys.path.insert(0, SRC)
sys.path.insert(0, HERE)
import metrics  # noqa: E402
import workloads  # noqa: E402


def git_sha() -> str:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


class Runner:
    """Runs sessions of one workload and keeps their records."""

    def __init__(self, workload, inputs, work, seed, deadline):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.seed = seed
        self.deadline = deadline
        self.sessions = []

    def session(self, mode: str, trace: bool) -> dict:
        i = len(self.sessions)
        out = os.path.join(self.work, f"out{i}")
        spec = {
            "src": SRC, "kind": self.workload.kind, "mode": mode, "trace": trace,
            "warmup": self.workload.warmup,
            "argv": workloads.cli_args(self.workload, self.inputs, out, self.seed),
            "ckpt": os.path.join(out, "ckpt.fwgn"),
            "result": os.path.join(self.work, f"session{i}.json"),
            "spans": os.path.join(self.work, f"spans{i}.jsonl"),
        }
        spec_path = os.path.join(self.work, f"spec{i}.json")
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump(spec, f)
        log_path = os.path.join(self.work, f"session{i}.log")
        rec = {"mode": mode, "trace": trace, "out": out, "log": log_path,
               "spans_path": spec["spans"]}
        timeout = self.deadline - time.monotonic()
        rec["spawn"] = time.monotonic()
        try:
            if timeout <= 0:
                raise subprocess.TimeoutExpired("session", 0)
            with open(log_path, "w", encoding="utf-8") as log:
                proc = subprocess.run([sys.executable, os.path.join(HERE, "session.py"),
                                       spec_path], stdout=log, stderr=subprocess.STDOUT,
                                      cwd=ROOT, timeout=timeout)
            rec["exit"] = proc.returncode
        except subprocess.TimeoutExpired:
            rec["exit"] = "timeout"
        if os.path.exists(spec["result"]):
            with open(spec["result"], "r", encoding="utf-8") as f:
                rec.update(json.load(f))
        if rec["exit"] != 0 or rec.get("rc") != 0:
            with open(log_path, "r", encoding="utf-8", errors="replace") as f:
                rec["log_tail"] = f.read()[-2000:]
        self.sessions.append(rec)
        return rec

    def measure(self, seconds: int, trace: bool) -> None:
        """Full sessions until `seconds` have passed; then, untraced, set-up-only
        sessions until there are SETUP_SAMPLES set-up times."""
        start = time.monotonic()
        while True:
            # a traced run alternates untraced and traced sessions, so the
            # overhead compares like with like
            rec = self.session("full", False)
            if trace and rec.get("rc") == 0:
                rec = self.session("full", True)
            if rec.get("rc") != 0 or time.monotonic() - start >= seconds:
                break
        while not trace and len(self.sessions) < SETUP_SAMPLES:
            self.session("setup", False)


# -- output checks ----------------------------------------------------------


def _session_problems(rec) -> list:
    problems = []
    if rec.get("exit") != 0 or rec.get("rc") != 0:
        problems.append(f"session exit {rec.get('exit')} rc {rec.get('rc')}: "
                        f"{(rec.get('error') or '').strip().splitlines()[-1:]}")
    if not rec.get("restored", False):
        problems.append("tracer did not restore every rebound function")
    return problems


def check_train(workload, rec) -> tuple[int, list]:
    """(cycles that failed, problems) of one training session."""
    problems = _session_problems(rec)
    if rec["mode"] == "setup":
        return (1 if problems else 0), problems
    good = 0
    try:
        with open(os.path.join(rec["out"], "loss.csv"), "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return workload.steps, problems + [f"loss.csv unreadable: {e}"]
    if not lines or lines[0] != LOSS_HEADER:
        problems.append("loss.csv header differs from the documented one")
    for n, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        try:
            ok = int(fields[0]) == n and all(math.isfinite(float(v)) for v in fields[1:])
        except ValueError:
            ok = False
        good += ok and len(fields) == 6
    if len(lines) - 1 != workload.steps:
        problems.append(f"loss.csv has {len(lines) - 1} rows for {workload.steps} cycles")
    if good != len(lines) - 1:
        problems.append(f"{len(lines) - 1 - good} loss.csv rows are malformed or non-finite")
    if not rec.get("reload_bit_identical") or not rec.get("reload_step_ok"):
        problems.append("reloaded checkpoint does not generate bit for bit what training held")
    return (max(1, workload.steps - good) if problems else 0), problems


def check_probe(workload, rec) -> tuple[int, list]:
    """(probe runs that failed, problems) of one probe session."""
    problems = _session_problems(rec)
    if rec["mode"] == "setup" or problems:
        return (1 if problems else 0), problems
    out = rec["out"]
    try:
        for tag in workload.values.split(","):
            with open(os.path.join(out, f"probe_v{tag}.csv"), "r", encoding="utf-8") as f:
                header, *rows = f.read().splitlines()
            n_counts = header.split(",").index("modal_class") - 2
            if len(rows) != workload.codes:
                problems.append(f"probe_v{tag}.csv has {len(rows)} rows for "
                                f"{workload.codes} codes")
            for row in rows:
                counts = [int(v) for v in row.split(",")[2:2 + n_counts]]
                if sum(counts) != workload.per_code:
                    problems.append(f"probe_v{tag}.csv row counts sum to {sum(counts)}, "
                                    f"not {workload.per_code}")
        with open(os.path.join(out, "regression.json"), "r", encoding="utf-8") as f:
            regression = json.load(f)
        for tag, fits in regression.items():
            for model in ("full", "empty"):
                fit = fits[model]
                if fit["aic"] != 2 * fit["k"] - 2 * fit["log_likelihood"]:
                    problems.append(f"regression {tag} {model}: aic != 2k - 2 logL")
        with open(os.path.join(out, "retrieval.json"), "r", encoding="utf-8") as f:
            retrieval = json.load(f)
        if sorted(retrieval) != sorted(regression) or len(retrieval) != len(
                workload.values.split(",")):
            problems.append("retrieval.json/regression.json do not cover every value")
        for tag, acc in retrieval.items():
            if not 0.0 <= acc <= 1.0:
                problems.append(f"retrieval accuracy {acc} at value {tag} outside [0, 1]")
    except (OSError, ValueError, KeyError) as e:
        problems.append(f"probe outputs unreadable: {e!r}")
    return (1 if problems else 0), problems


def check(workload, rec):
    return (check_train if workload.kind == "train" else check_probe)(workload, rec)


def attempts(workload, rec) -> int:
    if workload.kind == "train" and rec["mode"] == "full":
        return workload.steps
    return 1


# -- the run -------------------------------------------------------------------


def declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        return {m["name"]: m for m in json.load(f)[section]}


def run(workload, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    tag = f"{workload.name}-s{seed}-t{int(trace)}"
    work = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        inputs = workloads.prepare(workload, os.path.join(work, "inputs"), seed)
        runner = Runner(workload, inputs, work, seed, started + RUN_LIMIT_S)
        runner.measure(seconds, trace)
        failed, problems = 0, []
        for rec in runner.sessions:
            f, p = check(workload, rec)
            failed += f
            problems += p
        attempted = sum(attempts(workload, rec) for rec in runner.sessions)
        full = [r for r in runner.sessions if r["mode"] == "full"]
        traced = [r for r in full if r["trace"] and r.get("layers")]
        if trace:
            values = (metrics.per_layer(workload, [r for r in full if not r["trace"]], traced)
                      if traced else {})
            section = "per_layer"
        else:
            values = metrics.end_to_end(workload, full,
                                        [r for r in runner.sessions if r["mode"] == "setup"])
            section = "end_to_end"
        decl = declared(section)
        if set(values) != set(decl) or any(v is None for v in values.values()):
            problems.append(f"metrics computed {sorted(values)} differ from the "
                            f"{section} metrics BENCHMARK.json declares")
            values = {k: v for k, v in values.items() if k in decl and v is not None}
        result = {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": decl[k]["unit"]}
                        for k, v in sorted(values.items())},
        }
        report = {
            "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": git_sha(), "env": next((r["env"] for r in full if "env" in r), None),
            "problems": problems, "result": result,
            "sessions": [{k: v for k, v in r.items() if k not in ("env", "layers", "descents")}
                         for r in runner.sessions],
            "unit_samples_ms": metrics.unit_samples_ms(
                workload, [r for r in full if not r["trace"]]),
            "timed_samples_ms": metrics.unit_samples_ms(
                workload, [r for r in full if not r["trace"]], paced=False),
        }
        if traced:
            report["expectations"] = expectations(workload, values)
            report["layers"] = metrics.merge([r["layers"] for r in traced])
        save_report(report, tag, runner if trace else None)
        print_summary(report)
        print(json.dumps(result))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


# What each workload was chosen to exercise, checked on its traced run.
EXPECT = {
    "train-desk": ("optim.share", "<=", 0.02),
    "probe-fit": ("regression.share", ">=", 0.80),
    "probe-sweep": ("regression.share", "<=", 0.05),
}


def expectations(workload, values) -> list:
    name, op, limit = EXPECT[workload.name]
    v = values[name]
    ok = v >= limit if op == ">=" else v <= limit
    return [{"metric": name, "value": v, "expect": f"{op} {limit}", "met": ok}]


def save_report(report, tag, runner) -> None:
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    if runner is not None:
        traced = [r for r in runner.sessions if r["trace"]]
        if traced and os.path.exists(traced[-1]["spans_path"]):
            shutil.copyfile(traced[-1]["spans_path"],
                            os.path.join(out_dir, f"{tag}-spans.jsonl"))


def print_summary(report) -> None:
    """Human-readable lines: `metric` for the declared metrics, `also` for the
    same figures under the names users know them by."""
    w = report["workload"]
    env = report["env"] or {}
    print(f"workload {w} seed {report['seed']} trace {int(report['trace'])} "
          f"git {report['git_sha']} numpy {env.get('numpy')} python {env.get('python')} "
          f"kernels {env.get('kernel_path')} blas_threads {env.get('blas_threads')} "
          f"nproc {env.get('nproc')}")
    for name, m in report["result"]["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    res = report["result"]
    print(f"also failed_frac = {res['failed'] / max(res['attempted'], 1):.6g} ratio "
          f"({res['failed']} of {res['attempted']} attempted)")
    samples = report["unit_samples_ms"]
    if not report["trace"] and samples:
        if w.startswith("train"):
            print(f"also cycle_ms_p50 = {metrics.median(samples):.6g} ms "
                  f"({len(samples)} cycles after warm-up)")
            print(f"also cycle_ms_p75 = {metrics.p75(samples):.6g} ms "
                  f"({len(samples)} cycles after warm-up)")
            if len(samples) >= 100:  # p90 needs ten samples beyond it
                p90 = sorted(samples)[len(samples) - 11]
                print(f"also cycle_ms_p90 = {p90:.6g} ms ({len(samples)} cycles)")
            else:
                print(f"also cycle_ms_p90 = n/a: {len(samples)} cycles, fewer than 100")
        else:
            timed = report["timed_samples_ms"]  # as timed, descents not paced
            print(f"also probe_s_per_code = {metrics.median(timed) / 1e3:.6g} s "
                  f"({len(samples)} probe runs)")
    for e in report.get("expectations", []):
        print(f"expect {w}: {e['metric']} = {e['value']:.4g} {e['expect']}: "
              f"{'met' if e['met'] else 'NOT MET'}")
    for p in report["problems"]:
        print(f"check failed: {p}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "lexigan", "cli.py")):
        print(f"benchmark: no lexigan sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
