"""The benchmark's workloads and the layer rows measured beside them.

Both workloads are closed loops with one caller: each training step starts
when the previous one ends, and each repetition of the workload body
(pretrain, then the frozen 5-fold probe) starts when the previous one has its
result. Untimed and timed alike, nothing inside ``src/wsp`` is instrumented:
untraced repetitions call ``pretrain()`` and ``run_probe_protocol()`` and mark
step ends by wrapping ``wsp.training.optimizer_step``; traced repetitions
drive the same step loop through the public calls, with a span around each.

- ``canonical_cnn``: the paper recipe from ``wsp.benchmark`` (wsp loss,
  tiny_cnn, 60 volumes x 24 slices, batch 32, augmentation on). Stresses
  augmentation and conv forward/backward; the loss barely shows.
- ``wide_batch_mlp``: wsp loss, MLP encoder, batch 128 (256 views) over a
  128-patient cohort so the strict sampler applies. No conv; the m x m x m
  loss arrays dominate time and memory.
"""

from __future__ import annotations

import math
import os
import resource
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, replace
from statistics import median, median_low
from time import perf_counter

import numpy as np

from wsp import autodiff as ad
from wsp import evaluation, training
from wsp.autodiff import Tensor
from wsp.benchmark import BENCHMARK_BATCH, benchmark_encoder, benchmark_generator, benchmark_optim
from wsp.data import central_view, generate_synthetic_dataset, load_dataset, save_dataset
from wsp.encoders import EncoderCheckpoint, EncoderConfig, init_encoder, load_checkpoint, save_checkpoint
from wsp.errors import NonFiniteError, WspError
from wsp.evaluation import ProbeConfig, extract_representations, probe_representations, run_probe_protocol
from wsp.losses import BatchMeta, compute_loss
from wsp.sampling import AugmentConfig, BatchSpec, epoch_batches, make_views
from wsp.training import cosine_lr, init_optim_state, optimizer_step, pretrain

from tracer import NULL_TRACER, Tracer

SETUP_REPEATS = 5
MIN_REPS = 2  # the repeat check on auc_patient needs two results
LOSS_SWEEP_VIEWS = (64, 128, 256)  # 256 is the ceiling while the loss builds m^3 arrays


class Ops:
    """Attempted and failed operations: steps, probe folds, round-trips, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)


@dataclass
class Rep:
    """One repetition of a workload body."""

    seconds: float
    auc: float
    step_s: list
    views: int


def tail(samples: list) -> tuple[float, float]:
    """The sample with exactly ten beyond it (the highest percentile that has at
    least ten), never below the median; returns (value, its percentile)."""
    ordered = sorted(samples)
    k = max(len(ordered) // 2, len(ordered) - 11)
    return ordered[k], 100.0 * k / max(1, len(ordered) - 1)


def timed(fn, budget_s: float, min_reps: int = 3) -> float:
    """Median seconds of ``fn()`` after one warm-up call."""
    fn()
    times: list[float] = []
    start = perf_counter()
    while len(times) < min_reps or perf_counter() - start < budget_s:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return median(times)


def _ms(values) -> float:
    return median(values) * 1e3


# ---------------------------------------------------------------------------
# Untraced repetitions: the program's own entry points
# ---------------------------------------------------------------------------


@contextmanager
def _step_clock(ends: list):
    """Record when each optimizer step of ``pretrain`` returns.

    ``pretrain`` looks ``optimizer_step`` up as a module global of
    ``wsp.training``, so wrapping that global marks step boundaries without
    touching the loop itself.
    """
    original = training.optimizer_step

    def step(*args, **kwargs):
        original(*args, **kwargs)
        ends.append(perf_counter())

    training.optimizer_step = step
    try:
        yield
    finally:
        training.optimizer_step = original


def untraced_rep(inp, ops: Ops):
    """``pretrain()`` then ``run_probe_protocol()``, timed from outside.

    A step lasts from the end of the previous one (or the start of
    ``pretrain``) to the return of its ``optimizer_step``.
    """
    ends: list[float] = []
    t0 = perf_counter()
    try:
        with _step_clock(ends):
            ckpt, curve = pretrain(inp["volumes"], inp["enc_cfg"], inp["optim_cfg"])
    except WspError:
        ops.attempted += len(ends) + 1  # the steps done and the one that raised
        raise
    ops.attempted += len(ends)
    cfg = ProbeConfig(seed=inp["seed"])
    ops.attempted += cfg.folds
    report = run_probe_protocol(ckpt, inp["volumes"], cfg)
    seconds = perf_counter() - t0
    ops.check(len(ends) == inp["steps"], f"pretrain took {len(ends)} steps, expected {inp['steps']}")
    ops.check(all(math.isfinite(rec.mean_loss) for rec in curve), "non-finite epoch loss")
    step_s = np.diff([t0, *ends]).tolist()
    return Rep(seconds, report.mean_auc_patient, step_s, inp["views"]), ckpt


# ---------------------------------------------------------------------------
# Traced repetitions: the pretrain step loop, driven through public calls
# ---------------------------------------------------------------------------


def _assemble(batch, aug_cfg: AugmentConfig, key, arch: str, tracer):
    views, y, d, slice_ids, patient_ids = [], [], [], [], []
    for pos, sample in enumerate(batch):
        with tracer.span("sampling.make_views"):
            view_a, view_b, meta = make_views(sample, aug_cfg, (*key, pos))
        views += [view_a, view_b]
        y += [meta.y, meta.y]
        d += [meta.d, meta.d]
        slice_ids += [meta.slice_id, meta.slice_id]
        patient_ids += [meta.patient_id, meta.patient_id]
    with tracer.span("sampling.stack"):
        stacked = np.stack(views).astype(np.float64)
        x = Tensor(stacked.reshape(len(views), -1) if arch == "mlp" else stacked[:, None, :, :])
    with tracer.span("losses.BatchMeta"):
        meta = BatchMeta(y, d, slice_ids, patient_ids)
    return x, meta


def train(volumes, enc_cfg: EncoderConfig, optim_cfg, tracer, ops: Ops):
    """The step loop of ``wsp.training.pretrain`` for a strict-sampler cohort.

    It must produce the same checkpoint bytes as ``pretrain`` (checked by
    ``check``), so the spans time the real program's work.
    Returns (checkpoint, step seconds, views).
    """
    aug_cfg = AugmentConfig(seed=optim_cfg.seed)
    enc = init_encoder(enc_cfg)
    state = init_optim_state(enc.params)
    n_patients = len({v.patient_id for v in volumes})
    total_steps = optim_cfg.epochs * math.ceil(n_patients / optim_cfg.batch_size)
    step_s: list[float] = []
    views = 0
    step = 0
    for epoch in range(optim_cfg.epochs):
        with tracer.span("sampling.epoch_batches"):
            batches = epoch_batches(
                volumes, BatchSpec(optim_cfg.batch_size, "one_slice_per_patient", optim_cfg.seed, epoch)
            )
        for b_idx, batch in enumerate(batches):
            ops.attempted += 1
            tracer.step = step
            t0 = perf_counter()
            with tracer.span("training.step"):
                x, meta = _assemble(batch, aug_cfg, (optim_cfg.seed, epoch, b_idx), enc_cfg.arch, tracer)
                with tracer.span("encoders.encode"):
                    r = enc.encode(x)
                with tracer.span("encoders.project"):
                    z = enc.project(r)
                with tracer.span("losses.compute_loss"):
                    loss = compute_loss(z, meta, optim_cfg.loss)
                value = loss.item()
                if not math.isfinite(value):
                    raise NonFiniteError(f"non-finite loss {value} at epoch {epoch}, batch {b_idx}")
                lr_t = cosine_lr(step, total_steps, optim_cfg.lr)
                with tracer.span("autodiff.backward"):
                    grad_map = ad.backward(loss)
                with tracer.span("training.optimizer_step"):
                    grads = {name: grad_map.wrt(p) for name, p in enc.params.items()}
                    optimizer_step(enc.params, grads, state, optim_cfg, lr_t)
            step_s.append(perf_counter() - t0)
            tracer.step = -1
            if step == 0:
                tracer.count("autodiff.tape_ops", len(ad.Tape(loss)))
            views += len(meta)
            step += 1
    ckpt = EncoderCheckpoint.from_encoder(
        enc, step=step, loss_kind=optim_cfg.loss.loss_kind, loss_sigma=optim_cfg.loss.sigma
    )
    tracer.count("sampling.views", views)
    return ckpt, step_s, views


@contextmanager
def _probe_iterations(tracer, iterations: list):
    """Count Newton iterations through ``fit_logistic_probe``'s public trace list."""
    original = evaluation.fit_logistic_probe

    def fit(x, y, cfg, trace=None):
        objective = [] if trace is None else trace
        with tracer.span("evaluation.fit_logistic_probe"):
            out = original(x, y, cfg, objective)
        iterations.append(len(objective) - 1)
        return out

    evaluation.fit_logistic_probe = fit
    try:
        yield
    finally:
        evaluation.fit_logistic_probe = original


def traced_rep(inp, tracer, ops: Ops):
    """The benchmark's own step loop, then ``run_probe_protocol`` as its two public calls."""
    t0 = perf_counter()
    ckpt, step_s, views = train(inp["volumes"], inp["enc_cfg"], inp["optim_cfg"], tracer, ops)
    cfg = ProbeConfig(seed=inp["seed"])
    ops.attempted += cfg.folds
    with tracer.span("evaluation.extract_representations"):
        table = extract_representations(ckpt, inp["volumes"])
    iterations: list[int] = []
    with tracer.span("evaluation.probe_representations"), _probe_iterations(tracer, iterations):
        report = probe_representations(table, cfg)
    tracer.count("evaluation.probe_newton_iters", sum(iterations))
    return Rep(perf_counter() - t0, report.mean_auc_patient, step_s, views), ckpt


# ---------------------------------------------------------------------------
# Round-trip and equivalence checks
# ---------------------------------------------------------------------------


def _same_volumes(a, b) -> bool:
    if len(a) != len(b):
        return False
    for va, vb in zip(a, b):
        fields_a = (va.volume_id, va.patient_id, va.v_max, va.y_weak, va.y_strong, len(va.slices))
        fields_b = (vb.volume_id, vb.patient_id, vb.v_max, vb.y_weak, vb.y_strong, len(vb.slices))
        if fields_a != fields_b:
            return False
        for sa, sb in zip(va.slices, vb.slices):
            if sa.p != sb.p or sa.d != sb.d or not np.array_equal(sa.pixels, sb.pixels):
                return False
    return True


def _same_bytes(path_a, path_b) -> bool:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        return fa.read() == fb.read()


def check(inp, ckpt, loop_ckpt, tracer, ops: Ops, workdir) -> None:
    """Dataset and checkpoint round-trips; with a traced loop's checkpoint, its
    byte equality with ``pretrain``'s."""
    data_dir = os.path.join(workdir, "data")
    ops.attempted += 1
    with tracer.span("data.save_dataset"):
        save_dataset(inp["manifest"], inp["full"], data_dir)
    with tracer.span("data.load_dataset"):
        _, loaded = load_dataset(data_dir)
    tracer.count("data.bytes", sum(os.path.getsize(os.path.join(data_dir, f)) for f in os.listdir(data_dir)))
    ops.check(_same_volumes(inp["full"], loaded), "dataset round-trip differs")

    ckpt_path = os.path.join(workdir, "pretrain.ckpt")
    again_path = os.path.join(workdir, "reloaded.ckpt")
    ops.attempted += 1
    with tracer.span("encoders.save_checkpoint"):
        save_checkpoint(ckpt, ckpt_path)
    with tracer.span("encoders.load_checkpoint"):
        reloaded = load_checkpoint(ckpt_path)
    tracer.count("encoders.ckpt_bytes", os.path.getsize(ckpt_path))
    save_checkpoint(reloaded, again_path)
    ops.check(_same_bytes(ckpt_path, again_path), "checkpoint round-trip differs")

    if loop_ckpt is not None:
        loop_path = os.path.join(workdir, "loop.ckpt")
        save_checkpoint(loop_ckpt, loop_path)
        ops.check(_same_bytes(loop_path, ckpt_path), "benchmark step loop checkpoint != pretrain() checkpoint")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    """Pretrain from a seed-generated cohort, then the frozen 5-fold probe."""

    gen_cfg: object
    enc_cfg: object  # seed -> EncoderConfig
    optim_cfg: object  # seed -> OptimConfig

    def setup(self, seed: int, tracer):
        with tracer.span("data.generate_synthetic_dataset"):
            manifest, full = generate_synthetic_dataset(self.gen_cfg, seed)
        tracer.count("data.generated_slices", sum(len(v.slices) for v in full))
        volumes = central_view(full)
        enc_cfg, optim_cfg = self.enc_cfg(seed), self.optim_cfg(seed)
        # Encoder init and the first calls: one epoch of pretrain from a fresh encoder, then the probe.
        ckpt, _ = pretrain(volumes, enc_cfg, replace(optim_cfg, epochs=1))
        run_probe_protocol(ckpt, volumes, ProbeConfig(seed=seed))
        # Under the strict sampler every patient is drawn once per epoch.
        n_patients = len({v.patient_id for v in volumes})
        return {"seed": seed, "manifest": manifest, "full": full, "volumes": volumes,
                "enc_cfg": enc_cfg, "optim_cfg": optim_cfg,
                "steps": optim_cfg.epochs * math.ceil(n_patients / optim_cfg.batch_size),
                "views": 2 * n_patients * optim_cfg.epochs}


def make_workload(name: str, tiny: bool) -> Workload:
    """The named workload; ``tiny`` shrinks it for the smoke test."""
    tiny_gen = benchmark_generator(n_volumes=24, slices_per_volume=8)
    if name == "canonical_cnn":
        if tiny:
            return Workload(tiny_gen, benchmark_encoder,
                            lambda s: replace(benchmark_optim("wsp", s), epochs=2, batch_size=8))
        return Workload(benchmark_generator(), benchmark_encoder, lambda s: benchmark_optim("wsp", s))
    if name == "wide_batch_mlp":
        gen = tiny_gen if tiny else benchmark_generator(n_volumes=128)
        batch, epochs = (16, 2) if tiny else (128, 6)
        return Workload(
            gen,
            lambda s: EncoderConfig(arch="mlp", input_shape=(gen.height * gen.width,), seed=s),
            lambda s: replace(benchmark_optim("wsp", s), batch_size=batch, epochs=epochs),
        )
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Layer micro-rows (traced run only)
# ---------------------------------------------------------------------------


def conv_rows(seed: int, budget_s: float) -> dict:
    """Forward/backward time and forward FLOPs of each conv stage at the canonical batch shape."""
    cfg = benchmark_encoder(seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    batch = 2 * BENCHMARK_BATCH
    cin, h, w = cfg.input_shape
    rows = {}
    for i, (cout, k, s) in enumerate(zip(cfg.conv_channels, cfg.conv_kernels, cfg.conv_strides), start=1):
        # conv1 sees raw pixels, which need no gradient, as in the encoder.
        x = Tensor(rng.random((batch, cin, h, w)), requires_grad=i > 1)
        kern = Tensor(rng.uniform(-0.1, 0.1, (cout, cin, k, k)), requires_grad=True)
        loss = ad.sum_all(ad.conv2d(x, kern, s))
        hout, wout = (h - k) // s + 1, (w - k) // s + 1
        rows[f"autodiff.conv{i}.fwd_ms"] = timed(lambda: ad.conv2d(x, kern, s), budget_s) * 1e3
        rows[f"autodiff.conv{i}.bwd_ms"] = timed(lambda: ad.backward(loss), budget_s) * 1e3
        rows[f"autodiff.conv{i}.flops"] = 2 * batch * hout * wout * cout * cin * k * k
        cin, h, w = cout, hout, wout
    return rows


def loss_rows(seed: int, budget_s: float) -> dict:
    """Loss forward+backward time and traced peak memory against views per batch."""
    loss_cfg = benchmark_optim("wsp", seed).loss
    dim = benchmark_encoder(seed).proj_dim
    rows = {}
    for m in LOSS_SWEEP_VIEWS:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2, m]))
        n = m // 2
        meta = BatchMeta(
            np.repeat(rng.integers(0, 4, n), 2),
            np.repeat(rng.random(n), 2),
            [f"s{i // 2}" for i in range(m)],
            [f"p{i // 2}" for i in range(m)],
        )
        raw = rng.standard_normal((m, dim))
        z0 = raw / np.linalg.norm(raw, axis=1, keepdims=True)

        def once():
            ad.backward(compute_loss(Tensor(z0, requires_grad=True), meta, loss_cfg))

        rows[f"losses.fwdbwd_ms.m{m}"] = timed(once, budget_s) * 1e3
        tracemalloc.start()
        try:
            once()
            rows[f"losses.peak_mb.m{m}"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return rows


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def span_rows(tracer: Tracer) -> dict:
    """Per-layer rows from the spans and counts of a traced run."""
    per_call = {
        "encoders.encode_ms": "encoders.encode",
        "encoders.project_ms": "encoders.project",
        "encoders.ckpt_save_ms": "encoders.save_checkpoint",
        "encoders.ckpt_load_ms": "encoders.load_checkpoint",
        "autodiff.backward_ms": "autodiff.backward",
        "losses.fwd_ms": "losses.compute_loss",
        "training.optimizer_step_ms": "training.optimizer_step",
        "training.step_ms": "training.step",
        "evaluation.extract_ms": "evaluation.extract_representations",
        "evaluation.probe_ms": "evaluation.probe_representations",
        "data.save_ms": "data.save_dataset",
        "data.load_ms": "data.load_dataset",
    }
    rows = {row: _ms(tracer.durations(name)) for row, name in per_call.items()}
    counts = tracer.counts
    for row in ("autodiff.tape_ops", "sampling.views", "evaluation.probe_newton_iters",
                "data.bytes", "encoders.ckpt_bytes"):
        rows[row] = median_low(counts[row])
    steps = tracer.durations("training.step")
    make_views = tracer.durations("sampling.make_views")
    rows["sampling.augment_ms_per_view"] = sum(make_views) * 1e3 / (2 * len(make_views))
    rows["sampling.batch_ms"] = sum(tracer.durations("sampling.epoch_batches")) * 1e3 / len(steps)
    step_self = sum(own for span, own in zip(tracer.spans, tracer.self_times()) if span[0] == "training.step")
    rows["trace.step_coverage_frac"] = 1.0 - step_self / sum(steps)
    generate = tracer.durations("data.generate_synthetic_dataset")
    rows["data.generate_ms_per_slice"] = _ms(generate) / median(counts["data.generated_slices"])
    return rows


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool, workdir, import_s: float):
    """One benchmark run. Returns (result line, details for the record, tracer or None)."""
    workload = make_workload(name, tiny)
    ops = Ops()
    tracer = Tracer() if trace else NULL_TRACER
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        inp = workload.setup(seed, tracer)
        setup_s.append(perf_counter() - t0)

    # Untraced repetitions run pretrain() and run_probe_protocol() themselves.
    # With tracing, every other repetition runs the benchmark's own spanned
    # step loop instead, so the trace overhead is measured on the same body
    # under the same conditions.
    reps: list[Rep] = []
    traced: list[bool] = []
    ckpt = loop_ckpt = None  # the last checkpoint of each kind; older ones are dropped, not retained
    attempts = 0
    start = perf_counter()
    while attempts < MIN_REPS or perf_counter() - start < seconds:
        attempts += 1
        spanned = trace and attempts % 2 == 0
        try:
            if spanned:
                loop_ckpt = None
                rep, loop_ckpt = traced_rep(inp, tracer, ops)
            else:
                ckpt = None
                rep, ckpt = untraced_rep(inp, ops)
        except WspError as exc:
            ops.fail(f"{type(exc).__name__}: {exc}")
        else:
            reps.append(rep)
            traced.append(spanned)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not reps:
        raise RuntimeError(f"every repetition failed: {ops.problems}")

    aucs = [rep.auc for rep in reps]
    for auc in aucs:
        ops.check(0.0 <= auc <= 1.0, f"auc_patient {auc} outside [0, 1]")
    ops.check(len(set(aucs)) == 1, f"auc_patient differs between repetitions of one seed: {aucs}")
    if ckpt is None or (trace and loop_ckpt is None):
        ops.fail("the last repetition failed, so its checkpoint cannot be checked")
    else:
        check(inp, ckpt, loop_ckpt, tracer, ops, workdir)

    details = {
        "import_s": import_s,
        "setup_runs_s": setup_s,
        "rep_s": [rep.seconds for rep in reps],
        "rep_traced": traced,
        "auc_patient": aucs[0],
        "fail_frac": ops.failed / ops.attempted,
        "problems": ops.problems,
    }
    if trace:
        # Adjacent (untraced, traced) pairs, so that slow drift of the machine cancels.
        ratios = [reps[i].seconds / reps[i - 1].seconds
                  for i in range(1, len(reps)) if traced[i] and not traced[i - 1]]
        budget = 0.02 if tiny else 0.3
        metrics = {"trace_overhead_frac": median(ratios) - 1.0, "evaluation.auc_patient": aucs[0]}
        metrics.update(conv_rows(seed, budget))
        metrics.update(loss_rows(seed, budget))
        metrics.update(span_rows(tracer))
    else:
        step_s = [s for rep in reps for s in rep.step_s]
        step_tail, tail_pct = tail(step_s)
        metrics = {
            "setup_s": import_s + median(setup_s),
            "run_s": median(rep.seconds for rep in reps),
            "views_per_s": sum(rep.views for rep in reps) / sum(step_s),
            "step_ms_p50": median(step_s) * 1e3,
            "step_ms_tail": step_tail * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        details["step_ms_tail_percentile"] = tail_pct
        details["step_samples"] = len(step_s)
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
    return result, details, tracer if trace else None
