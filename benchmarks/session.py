"""One program session in a fresh process.

Usage: python3 benchmarks/session.py SPEC.json

The spec names the lexigan CLI arguments to run, whether to trace every
layer, and whether to stop at the end of set-up. The session installs the
tracer, calls ``lexigan.cli.main`` exactly as the ``lexigan`` script does,
restores every rebound function, and writes a JSON summary to the spec's
``result`` path. After a training run it also checks the README promise
that the written checkpoint reloads and generates bit for bit what the
in-memory generator produces.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _restored(saved) -> bool:
    for owner, attr, orig in saved:
        now = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
        if now is not orig:
            return False
    return True


def _check_reload(holder: list, ckpt_path) -> dict:
    """Generate from the in-memory state and from the reloaded checkpoint.

    The state arrives in a one-item list so that dropping it here frees the
    trained networks before the reload allocates a second copy.
    """
    import numpy as np

    from lexigan import autodiff as ad
    from lexigan.models import LatentVector, encode_class, generate
    from lexigan.training import load_checkpoint

    state = holder.pop()
    lat = state.gen.cfg
    rng = np.random.default_rng(20260)
    codes = np.stack([encode_class(lat, c, 1.0) for c in range(lat.class_count)])
    noise = rng.uniform(-1.0, 1.0, (codes.shape[0], lat.num_noise))
    latents = LatentVector(code=codes, noise=noise)
    with ad.no_grad():
        before = generate(state.gen, latents).data.copy()
    step = state.step
    del state
    gc.collect()
    reloaded = load_checkpoint(ckpt_path)
    with ad.no_grad():
        after = generate(reloaded.gen, latents).data
    return {"reload_step_ok": reloaded.step == step,
            "reload_bit_identical": (before.dtype == after.dtype and before.shape == after.shape
                                     and before.tobytes() == after.tobytes())}


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, HERE)
    import metrics
    from tracer import SetupDone, Tracer

    import lexigan.cli as cli

    tracer = Tracer(full=spec["trace"], stop_after_setup=spec["mode"] == "setup").install()
    saved = tracer.rebound()
    out = {"error": None}
    try:
        out["rc"] = cli.main(list(spec["argv"]))
    except SetupDone:
        out["rc"] = 0
    except Exception:  # a fault in the program is a failed session, reported not raised
        out["rc"] = None
        out["error"] = traceback.format_exc()
    out["end"] = time.monotonic()
    tracer.restore()
    out["restored"] = _restored(saved)
    out["peak_rss_mb"] = _peak_rss_mb()
    out["setup_end"] = tracer.setup_end
    out["cycles_ms"] = [(b - a) * 1e3 for a, b in tracer.cycles]
    out["descents"] = tracer.descents
    out["env"] = metrics.environment()
    if spec["trace"]:
        out["layers"] = metrics.summarize(tracer, spec["warmup"])
        with open(spec["spans"], "w", encoding="utf-8") as f:
            for span in tracer.spans():
                f.write(json.dumps(span) + "\n")
    holder = [tracer.state]
    tracer.state = None
    if spec["kind"] == "train" and spec["mode"] == "full" and out["rc"] == 0 and holder[0] is not None:
        try:
            out.update(_check_reload(holder, spec["ckpt"]))
        except Exception:  # reported as a failed output check
            out["error"] = traceback.format_exc()
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
