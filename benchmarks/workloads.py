"""The three benchmark workloads and the inputs each makes from its seed.

Training corpora are word-like clips (tone and noise segments) that this
file synthesizes and writes as 16-bit WAVs, so the program receives them
exactly as a user's ``--data`` directory. The probe workloads probe a desk
checkpoint that ``lexigan train --steps 0`` builds from the seed; probe-fit
labels against clips ``lexigan generate`` makes from that same checkpoint,
plus one word the generator never makes, drawn until the probe's labels
include else.
The same seed always gives byte-identical inputs.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import wave
from dataclasses import dataclass

import numpy as np

RATE = 16000
DESK_SLOT = 1024

# Word shapes: a segment is ("tone", Hz) or ("noise", 0). Every word differs
# from the others in at least one segment.
WORDS = {
    "bam": [("tone", 400.0), ("noise", 0), ("tone", 400.0), ("noise", 0)],
    "dil": [("tone", 900.0), ("tone", 900.0), ("noise", 0), ("noise", 0)],
    "fup": [("noise", 0), ("tone", 1500.0), ("noise", 0), ("tone", 1500.0)],
    "kez": [("tone", 2400.0), ("noise", 0), ("noise", 0), ("tone", 600.0)],
    # a word no desk generator makes; the name sorts among lexigan generate's
    # code directories (0_0 0_1 0_tone 1_0 1_1), so its class is never the last
    "0_tone": [("tone", 5200.0)] * 4,
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "train" or "probe"
    why: str
    flags: tuple = ()    # train: lexigan train flags besides data, steps, seed and out
    steps: int = 0       # train: cycles per session, warm-up included
    warmup: int = 0      # train: leading cycles of a session left out of the timing
    values: str = ""     # probe: --values
    per_code: int = 0    # probe: --per-code
    codes: int = 0       # probe: class codes the checkpoint has

    @property
    def probe_units(self) -> int:
        """(class code, value) pairs one probe run covers."""
        return self.codes * len(self.values.split(","))


WORKLOADS = {w.name: w for w in (
    Workload("train-desk", "train", steps=7, warmup=1,
             flags=("--arch", "fiw", "--features", "2", "--preset", "desk", "--batch", "32"),
             why="desk fiw-2 batch 32, the acceptance-run shape: small tensors, so per-op "
                 "overhead, im2col copies, overlap-add and phase shuffle dominate"),
    Workload("probe-fit", "probe", values="1", per_code=50, codes=4,
             why="probe of a seed-built desk checkpoint against clips it made plus a word it "
                 "never makes: labels mix, one outcome stays empty, so both fits run to the "
                 "iteration cap"),
    Workload("probe-sweep", "probe", values="1,2,4", per_code=25, codes=4,
             why="same probe path against a word corpus: every label is else, fits stop "
                 "after one iteration, so generation, STFT oracle and retrieval dominate"),
)}


def write_wav(path, samples: np.ndarray) -> None:
    ints = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(RATE)
        w.writeframes(ints.tobytes())


def synth_words(out_dir, rng: np.random.Generator, words: list, per_word: int,
                slot_len: int) -> None:
    """`per_word` jittered clips of each word, written as out_dir/<word>/<i>.wav."""
    for word in words:
        os.makedirs(os.path.join(out_dir, word))
        segs = WORDS[word]
        for i in range(per_word):
            parts = []
            for kind, hz in segs:
                dur = int(slot_len / len(segs) * rng.uniform(0.75, 0.95))
                amp = rng.uniform(0.8, 1.0)
                t = np.arange(dur) / RATE
                if kind == "tone":
                    parts.append(amp * np.sin(2 * np.pi * hz * rng.uniform(0.97, 1.03) * t))
                else:
                    parts.append(amp * rng.uniform(-1.0, 1.0, dur))
            clip = np.zeros(slot_len)
            token = np.concatenate(parts)
            clip[:token.shape[0]] = token * (0.9 / np.abs(token).max())
            write_wav(os.path.join(out_dir, word, f"{i}.wav"), clip)


def _cli(argv) -> None:
    from lexigan import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"lexigan {argv[0]} exited {rc} while preparing inputs")


def prepare(workload: Workload, root: str, seed: int) -> dict:
    """Write the inputs of one run under `root`; returns their paths."""
    rng = np.random.default_rng([seed, 1])
    words = os.path.join(root, "words")
    if workload.name == "train-desk":
        synth_words(words, rng, ["bam", "dil", "fup", "kez"], 16, DESK_SLOT)
        return {"data": words}
    synth_words(words, rng, ["bam", "dil", "fup", "kez"], 12, DESK_SLOT)
    ckpt_dir = os.path.join(root, "ckpt")
    _cli(["train", "--arch", "fiw", "--features", "2", "--preset", "desk", "--data", words,
          "--batch", "32", "--steps", "0", "--seed", str(seed), "--out", ckpt_dir])
    ckpt = os.path.join(ckpt_dir, "ckpt.fwgn")
    if workload.name == "probe-sweep":
        return {"data": words, "ckpt": ckpt}
    clips = os.path.join(root, "generated")
    for draw in range(CORPUS_DRAWS):
        shutil.rmtree(clips, ignore_errors=True)
        # one class per code; the generate seed keeps this noise apart from the probe's
        for cls in range(workload.codes):
            _cli(["generate", "--ckpt", ckpt, "--class", str(cls), "--value", "1",
                  "--count", "25", "--seed", str(seed + 100003 * (draw + 1)), "--out", clips])
        # plus a word the generator never makes: an outcome no probed clip takes,
        # so on every seed both fits chase an unbounded coefficient to the cap
        synth_words(clips, rng, ["0_tone"], 25, DESK_SLOT)
        if _probe_labels_else(workload, ckpt, clips, seed):
            return {"data": clips, "ckpt": ckpt}
    raise RuntimeError(f"no corpus in {CORPUS_DRAWS} draws gives an else label at seed {seed}")


# Whether any probed clip is labelled else (beyond every template's radius)
# varies with the seed, and with it the number of outcomes the fits model: 6
# with an else label, 5 without, and runs that fit 5 read 5-10 % lower.
# probe-fit keeps the first corpus draw whose probe labels include else, so
# every seed fits 6 outcomes. About half of the draws do.
CORPUS_DRAWS = 30


def _probe_labels_else(workload: Workload, ckpt: str, data: str, seed: int) -> bool:
    """Label the clips the probe will generate, as the probe does, and say
    whether any is else."""
    from lexigan.corpus import load_corpus_dir
    from lexigan.models import PRESETS
    from lexigan.probe import build_templates, sweep_codes
    from lexigan.training import load_checkpoint

    state = load_checkpoint(ckpt)
    bank = build_templates(load_corpus_dir(data, PRESETS[state.cfg.preset]["slot_len"]))
    report = sweep_codes(state.gen, bank, float(workload.values), workload.per_code, seed)
    return any(row.counts[-1] for row in report.rows)


def cli_args(workload: Workload, inputs: dict, out: str, seed: int) -> list:
    """The lexigan command line one session runs."""
    if workload.kind == "train":
        return ["train", *workload.flags, "--data", inputs["data"],
                "--steps", str(workload.steps), "--seed", str(seed), "--out", out]
    return ["probe", "--ckpt", inputs["ckpt"], "--data", inputs["data"],
            "--values", workload.values, "--per-code", str(workload.per_code),
            "--seed", str(seed), "--out", out]
