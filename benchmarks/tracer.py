"""Spans around lexigan's public functions, recorded from outside the package.

Nothing under ``src/`` knows about tracing. The tracer rebinds each hooked
function in the namespace its caller looks it up in (``lexigan.autodiff.conv1d``
for the models, ``lexigan.training.critic_forward`` for the training loop, the
class attribute ``lexigan.optim.Adam.step`` for optimizer instances) and wraps
each autodiff op's backward closure on the tensor the op returns. ``restore()``
puts every original back.

Two levels exist. ``Tracer(full=False)`` installs only the boundary hooks the
end-to-end metrics need (one per training cycle, one at the end of probe
set-up, and a counter on the objective of each regression descent that
stamps the time every DESCENT_BLOCK evaluations), which cost a few
microseconds per cycle and 0.16-0.19 microseconds per objective evaluation
(measured on a 2-vCPU VM, where one evaluation in probe-fit takes about 60).
``Tracer(full=True)`` adds
the per-layer hooks. Spans are kept in memory; each carries its name, start,
end, parent span and the unit of work (cycle or probe run) it belongs to.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import defaultdict

DESCENT_BLOCK = 1000  # objective evaluations per timed slice of a regression descent
SETUP = "setup"      # unit label before the first unit of work
RUN = "run"          # unit label of a probe run after its set-up
TEARDOWN = "teardown"


class SetupDone(BaseException):
    """Raised at the end of set-up in a set-up-only session.

    Derives from BaseException so that the CLI's error handlers, which catch
    LexiganError/OSError, let it through to the session runner.
    """


class Tracer:
    def __init__(self, full: bool, stop_after_setup: bool = False):
        self.full = full
        self.stop_after_setup = stop_after_setup
        self.clock = time.perf_counter
        self._saved = []          # (owner, attr, original) in install order
        self.unit = SETUP
        # boundary records
        self.setup_end = None     # time.monotonic() stamp, comparable across processes
        self.cycles = []          # (start, end) perf_counter pairs of train_cycle
        self.cycle_marks = []     # per cycle: list of (optimizer name, step end time)
        self.state = None         # last TrainState seen by train_cycle
        self.descents = []        # per regression descent: (wall s, [s per DESCENT_BLOCK evals])
        # spans: parallel lists, index = span id
        self.span_name = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self.span_unit = []
        self._stack = []          # [span id, start, child time]
        # per unit label: name -> [self seconds, calls]
        self.self_time = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        # per unit label: counter name -> value
        self.counts = defaultdict(lambda: defaultdict(float))
        self._jvp_depth = 0
        self._opt_names = {}
        self._latent_keys = set()

    # -- installation ------------------------------------------------------

    def _rebind(self, owner, attr, make):
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            return False  # absent in this version of the program: nothing to hook
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))
        return True

    def install(self):
        import lexigan.probe as probe
        import lexigan.regression as regression
        import lexigan.training as training

        self._rebind(training, "train_cycle", self._wrap_train_cycle)
        self._rebind(probe, "build_templates", self._wrap_setup_end)
        self._rebind(regression, "_descend", self._wrap_descend)
        if self.full:
            self._install_layers()
        return self

    def restore(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def rebound(self):
        """(owner, attribute, original) of every function currently rebound."""
        return list(self._saved)

    def _install_layers(self):
        import lexigan.autodiff as ad
        import lexigan.corpus as corpus
        import lexigan.models as models
        import lexigan.optim as optim
        import lexigan.probe as probe
        import lexigan.training as training

        shapes = {"conv1d": conv1d_work, "conv1d_transpose": conv1d_transpose_work}
        for op in ("conv1d", "conv1d_transpose", "phase_shuffle", "dense", "activation"):
            self._rebind(ad, op, lambda f, op=op: self._wrap_op(f, op, shapes.get(op)))
        for op in MISC_OPS:
            self._rebind(ad, op, lambda f: self._wrap_op(f, "misc", None))
        self._rebind(ad, "backward", lambda f: self._wrap_span(f, "autodiff.backward"))
        for kernel, work in KERNEL_WORK.items():
            self._rebind(ad, kernel, lambda f, k=kernel, w=work: self._wrap_kernel(f, k, w))
        # forward passes, where each caller looks them up
        for owner in (models, training):
            self._rebind(owner, "generator_forward",
                         lambda f: self._wrap_span(f, "models.generator_forward"))
            self._rebind(owner, "critic_forward",
                         lambda f: self._wrap_span(f, "models.critic_forward"))
        self._rebind(training, "critic_jvp", self._wrap_jvp)
        self._rebind(training, "gradient_penalty",
                     lambda f: self._wrap_span(f, "training.gradient_penalty"))
        self._rebind(training, "init_state", self._wrap_init_state)
        self._rebind(training, "load_checkpoint", self._wrap_init_state)
        self._rebind(training, "save_checkpoint", self._wrap_save)
        for cls in (getattr(optim, "Adam", None), getattr(optim, "RMSProp", None)):
            if cls is not None:
                self._rebind(cls, "step", self._wrap_opt_step)
        self._rebind(corpus, "load_corpus_dir",
                     lambda f: self._wrap_span(f, "corpus.load_corpus_dir"))
        self._rebind(probe, "classify_batch", self._wrap_classify)
        self._rebind(probe, "retrieval_accuracy",
                     lambda f: self._wrap_span(f, "probe.retrieval_accuracy"))
        self._rebind(probe, "generate", self._wrap_probe_generate)
        self._rebind(probe, "fit_multinomial", self._wrap_fit)

    # -- spans -------------------------------------------------------------

    def open(self, name):
        sid = len(self.span_name)
        self.span_name.append(name)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_unit.append(self.unit)
        start = self.clock()
        self.span_start.append(start)
        self.span_end.append(None)
        self._stack.append([sid, start, 0.0])
        return sid

    def close(self):
        end = self.clock()
        sid, start, child = self._stack.pop()
        self.span_end[sid] = end
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        rec = self.self_time[self.span_unit[sid]][self.span_name[sid]]
        rec[0] += dur - child
        rec[1] += 1

    def count(self, name, value):
        self.counts[self.unit][name] += value

    def _wrap_span(self, fn, name):
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return wrapper

    # -- boundary hooks ----------------------------------------------------

    def _mark_setup_end(self):
        self.setup_end = time.monotonic()
        if self.stop_after_setup:
            raise SetupDone()

    def _wrap_train_cycle(self, fn):
        def train_cycle(state, *args, **kwargs):
            if self.setup_end is None:
                self._mark_setup_end()
            self.state = state
            k = len(self.cycles)
            self.unit = k
            self.cycle_marks.append([])
            start = self.clock()
            try:
                return fn(state, *args, **kwargs)
            finally:
                self.cycles.append((start, self.clock()))
                self.unit = TEARDOWN
        return train_cycle

    def _wrap_descend(self, fn):
        """Time a regression descent and every DESCENT_BLOCK evaluations of its
        objective, so a long fit gives many equal slices of work, not one."""
        def _descend(nll_grad, w0, *args, **kwargs):
            clock = self.clock
            stamps = []
            calls = [0]

            def counted(w):
                calls[0] += 1
                if calls[0] % DESCENT_BLOCK == 0:
                    stamps.append(clock())
                return nll_grad(w)
            if hasattr(nll_grad, "accuracy"):
                counted.accuracy = nll_grad.accuracy
            start = clock()
            try:
                return fn(counted, w0, *args, **kwargs)
            finally:
                end = clock()
                edges = [start] + stamps
                self.descents.append((end - start, [b - a for a, b in zip(edges, edges[1:])]))
        return _descend

    def _wrap_setup_end(self, fn):
        inner = self._wrap_span(fn, "probe.build_templates") if self.full else fn

        def build_templates(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.unit = RUN
            self._mark_setup_end()
            return out
        return build_templates

    # -- layer hooks -------------------------------------------------------

    def _wrap_op(self, fn, op, work):
        fwd = self._wrap_span(fn, f"autodiff.{op}.fwd")
        jvp = self._wrap_span(fn, f"autodiff.{op}.jvp") if op == "conv1d" else fwd
        bwd_name = f"autodiff.{op}.bwd"

        def op_wrapper(*args, **kwargs):
            if work is not None:
                macs, nbytes = work(*args, **kwargs)
                self.count(f"autodiff.{op}.calls", 1)
                self.count(f"autodiff.{op}.macs", macs)
                self.count(f"autodiff.{op}.bytes", nbytes)
            out = (jvp if self._jvp_depth else fwd)(*args, **kwargs)
            bwd = getattr(out, "_backward", None)
            if bwd is not None:
                out._backward = self._wrap_span(bwd, bwd_name)
            return out
        return op_wrapper

    def _wrap_kernel(self, fn, kernel, work):
        name = f"kernels.{kernel}"
        inner = self._wrap_span(fn, name)

        def kernel_wrapper(*args, **kwargs):
            adds, nbytes = work(*args, **kwargs)
            self.count(f"{name}.calls", 1)
            self.count(f"{name}.adds", adds)
            self.count(f"{name}.bytes", nbytes)
            return inner(*args, **kwargs)
        return kernel_wrapper

    def _wrap_jvp(self, fn):
        inner = self._wrap_span(fn, "models.critic_jvp")

        def critic_jvp(*args, **kwargs):
            self._jvp_depth += 1  # conv1d calls in here are the tangent pass
            try:
                return inner(*args, **kwargs)
            finally:
                self._jvp_depth -= 1
        return critic_jvp

    def _wrap_init_state(self, fn):
        """init_state and load_checkpoint: both return the TrainState whose
        optimizers the step spans are named after."""
        inner = self._wrap_span(fn, f"training.{fn.__name__}")

        def wrapper(*args, **kwargs):
            state = inner(*args, **kwargs)
            self._name_optimizers(state)
            return state
        return wrapper

    def _name_optimizers(self, state):
        for attr, name in (("opt_d", "adam_d"), ("opt_g", "adam_g"), ("opt_q", "rmsprop_q")):
            opt = getattr(state, attr, None)
            if opt is not None:
                self._opt_names[id(opt)] = name

    def _wrap_save(self, fn):
        inner = self._wrap_span(fn, "training.save_checkpoint")

        def save_checkpoint(state, path, *args, **kwargs):
            out = inner(state, path, *args, **kwargs)
            self.count("training.save_checkpoint.bytes", os.path.getsize(path))
            return out
        return save_checkpoint

    def _wrap_opt_step(self, fn):
        def step(opt, *args, **kwargs):
            name = self._opt_names.get(id(opt), type(opt).__name__.lower())
            out = self._wrap_span(fn, f"optim.{name}.step")(opt, *args, **kwargs)
            if self.cycle_marks and self.unit != TEARDOWN:
                self.cycle_marks[-1].append((name, self.clock()))
            arrays = [p.data for p in getattr(opt, "params", {}).values()]
            # Adam reads p, g, m, v and writes m, v, p; RMSProp keeps no m
            touches = 7 if hasattr(opt, "m") else 5
            self.count("optim.bytes_touched", touches * sum(a.nbytes for a in arrays))
            return out
        return step

    def _wrap_classify(self, fn):
        inner = self._wrap_span(fn, "probe.classify_batch")

        def classify_batch(clips, *args, **kwargs):
            self.count("probe.classify_batch.clips", len(clips))
            return inner(clips, *args, **kwargs)
        return classify_batch

    def _wrap_probe_generate(self, fn):
        def generate(gen, latents, *args, **kwargs):
            code = latents.code
            noise = latents.noise
            self.count("probe.generated_clips", code.shape[0])
            for i in range(code.shape[0]):
                key = hashlib.blake2b(code[i].tobytes() + noise[i].tobytes(),
                                      digest_size=16).digest()
                self._latent_keys.add(key)
            self.counts[self.unit]["probe.distinct_clips"] = len(self._latent_keys)
            return fn(gen, latents, *args, **kwargs)
        return generate

    def _wrap_fit(self, fn):
        inner = self._wrap_span(fn, "regression.fit_multinomial")

        def fit_multinomial(*args, **kwargs):
            fit = inner(*args, **kwargs)
            self.count("regression.fits", 1)
            self.count("regression.iterations", getattr(fit, "iterations", 0))
            self.count("regression.converged", 1 if getattr(fit, "converged", False) else 0)
            return fit
        return fit_multinomial

    # -- export ------------------------------------------------------------

    def spans(self):
        """Every span as (name, start, end, parent id, unit label)."""
        return list(zip(self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_unit))


MISC_OPS = ("add", "sub", "mul", "neg", "sum_all", "mean_all", "reshape", "mean_rows",
            "add_channel_bias", "activation_slope", "softmax_cross_entropy",
            "sigmoid_cross_entropy")


# -- work computed from shapes ---------------------------------------------
#
# Multiply-adds are those of the mathematical operation; bytes are the
# compulsory traffic: every operand read once and every result written once.
# Neither depends on how the program implements the operation, so a kernel
# change shows as a time per multiply-add, not as a different count.


def _arr(x):
    return getattr(x, "data", x)


def conv1d_work(x, k, stride=1, padding=(0, 0)):
    xd, kd = _arr(x), _arr(k)
    B, C, L = xd.shape
    F, _, K = kd.shape
    T = (L + padding[0] + padding[1] - K) // stride + 1
    macs = B * T * F * C * K
    nbytes = (xd.size + kd.size + B * F * T) * xd.itemsize
    return macs, nbytes


def conv1d_transpose_work(x, k, stride=1, crop=(0, 0)):
    xd, kd = _arr(x), _arr(k)
    B, C, L = xd.shape
    _, F, K = kd.shape
    out_len = (L - 1) * stride + K - crop[0] - crop[1]
    macs = B * L * C * F * K
    nbytes = (xd.size + kd.size + B * F * out_len) * xd.itemsize
    return macs, nbytes


def _overlap_add_work(tmp, stride, out_len):
    B, T, C, K = tmp.shape
    return tmp.size, (tmp.size + B * C * out_len) * tmp.itemsize


def _gather_work(x, shifts):
    return 0, 2 * x.size * x.itemsize + shifts.size * 8


def _scatter_work(g, shifts):
    return g.size, 2 * g.size * g.itemsize + shifts.size * 8


KERNEL_WORK = {
    "overlap_add": _overlap_add_work,
    "shuffle_gather": _gather_work,
    "shuffle_scatter": _scatter_work,
}
