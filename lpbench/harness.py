"""Closed-loop runner: set-up, timed rounds, checks and metrics.

One client issues one operation at a time and waits for it. A run sets the
workload up several times (``workload.setup_repeats``), then repeats whole
rounds of the same operations on the same inputs until ``seconds`` have
passed and at least two rounds have run, then checks the first round's
outputs against the oracles and every later round's output digest against
the first. Every round attempts the same operations, so the share of failed
operations does not depend on the run length.

Timings are medians: ``wall_s`` over rounds, ``setup_s`` over set-up
samples. One set-up sample repeats the set-up until ``SETUP_SAMPLE_S`` have
passed and takes the mean, so a set-up of microseconds and one of seconds
are timed the same way.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from tracing import Tracer

# One set-up sample repeats the set-up until this many seconds have passed.
SETUP_SAMPLE_S = 0.25


def sub_seed(seed: int, *key: int) -> int:
    """A 32-bit seed derived from the run seed and a fixed key."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def digest_bytes(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def file_bytes(*paths) -> bytes:
    out = b""
    for p in paths:
        with open(p, "rb") as fh:
            out += fh.read()
    return out


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool
    timed: bool


@dataclass
class Round:
    """Operations of one round, their outputs, and a digest of the outputs
    that must repeat exactly in every round."""

    tracer: Tracer | None = None
    ops: list[Op] = field(default_factory=list)
    out: dict = field(default_factory=dict)
    digests: list[str] = field(default_factory=list)

    def op(self, name, fn, *args, expect=None, accept=None, timed=True, **kwargs):
        """Run one operation. ``expect`` names an exception type that counts
        the operation as failed instead of aborting the round; ``accept``,
        called on the result after the timed call, counts it as failed when
        it returns False. Operations with ``timed=False`` stay out of the
        round's wall time."""
        span = self.tracer.open(f"bench.{name}") if self.tracer else None
        start = time.perf_counter()
        try:
            result, ok = fn(*args, **kwargs), True
        except expect or ():
            result, ok = None, False
        finally:
            seconds = time.perf_counter() - start
            if span:
                self.tracer.close(span)
        if ok and accept is not None:
            ok = bool(accept(result))
        self.ops.append(Op(name, seconds, ok, timed))
        return result

    @property
    def wall(self) -> float:
        return sum(o.seconds for o in self.ops if o.timed)

    def seconds(self, suffix: str) -> float:
        return sum(o.seconds for o in self.ops if o.name.endswith(suffix))


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    lines: list[str]


def median(values) -> float:
    return float(statistics.median(values))


def _rounds(workload, state, seconds: float, least: int, tracer=None):
    """Whole rounds until ``seconds`` have passed and at least ``least``
    rounds have run. Stops early when an operation raises an exception
    nobody expected."""
    rounds, aborted = [], 0
    end = time.perf_counter() + seconds
    while len(rounds) < least or time.perf_counter() < end:
        r = Round(tracer=tracer)
        try:
            workload.round(state, r)
        except Exception:  # an unexpected failure ends the run; it is counted, not hidden
            traceback.print_exc(file=sys.stderr)
            aborted = workload.ops_per_round - sum(o.ok for o in r.ops)
            break
        rounds.append(r)
    return rounds, aborted


def run(workload, seed: int, seconds: float, trace: bool, workdir: str, trace_path: str) -> Outcome:
    problems: list[str] = []
    setup_times, setup_digests = [], []
    inputs = workload.inputs(seed)
    for _ in range(workload.setup_repeats):
        reps, start = 0, time.perf_counter()
        while reps == 0 or time.perf_counter() - start < SETUP_SAMPLE_S:
            state = workload.setup(inputs, workdir)
            reps += 1
        setup_times.append((time.perf_counter() - start) / reps)
        setup_digests.append(workload.setup_digest(state))
    # Untraced, at least two rounds so that a repeat is compared with the
    # first; traced, one untraced and one traced round make that pair.
    rounds, aborted = _rounds(workload, state, seconds / 2 if trace else seconds, 1 if trace else 2)
    if not rounds:
        raise RuntimeError("the first round failed; nothing was measured or checked")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if len(set(setup_digests)) != 1:
        problems.append("repeated set-up with the same seed gave different bytes")
    traced_rounds, tracer = [], None
    if trace and not aborted:
        tracer = Tracer(also=[type(workload).__module__])
        tracer.install()
        try:
            span = tracer.open("bench.setup")
            traced_state = workload.setup(inputs, workdir)
            tracer.close(span)
            setup_spans = len(tracer.spans)
            traced_rounds, aborted = _rounds(workload, traced_state, seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        tracer.write_jsonl(trace_path)

    all_rounds = rounds + traced_rounds
    attempted = workload.ops_per_round * (len(all_rounds) + (1 if aborted else 0))
    failed = sum(not o.ok for r in all_rounds for o in r.ops) + aborted
    problems += workload.check(state, rounds[0])
    if len(all_rounds) < 2:
        problems.append("fewer than two rounds: no repeat to compare with the first")
    elif any(r.digests != rounds[0].digests for r in all_rounds[1:]):
        problems.append("a repeated round with the same seed gave different bytes")

    lines = [f"rounds: {len(rounds)} untraced, {len(traced_rounds)} traced; "
             f"set-up samples: {len(setup_times)}",
             "failed operations per round: "
             + (", ".join(sorted({o.name for o in rounds[0].ops if not o.ok})) or "none"),
             "round wall_s: " + " ".join(f"{r.wall:.4f}" for r in all_rounds)]
    wall = median([r.wall for r in rounds])
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, (value, unit) in workload.figures(state, rounds).items():
        lines.append(f"workload {name} = {value:.6g} {unit}")
    if tracer is not None and traced_rounds:
        metrics = layer_metrics(tracer, setup_spans, traced_rounds, wall, lines)
    lines += [f"check FAILED: {p}" for p in problems]
    return Outcome(correct=not problems, attempted=attempted, failed=failed,
                   metrics=metrics, lines=lines)


# Per-layer metrics, their source (span name and field) and unit. Values are
# for one set-up plus one round: set-up spans are added in full, round spans
# averaged over the traced rounds.
LAYER_METRICS = [
    ("lp.enumerate_vertices.calls", "count"),
    ("lp.enumerate_vertices.s", "s"),
    ("lp.project_feasible_many.calls", "count"),
    ("lp.project_feasible_many.rows", "count"),
    ("lp.project_feasible_many.s", "s"),
    ("lp.feasible_mask.rows", "count"),
    ("lp.feasible_mask.s", "s"),
    ("encodings.Encoding.values.rows", "count"),
    ("encodings.Encoding.values.self_s", "s"),
    ("data.generate_dataset.rows", "count"),
    ("data.generate_dataset.self_s", "s"),
    ("data.save_dataset.s", "s"),
    ("data.save_dataset.bytes", "B"),
    ("data.load_dataset.s", "s"),
    ("nn.fit_arrays.s", "s"),
    ("nn.fit_arrays.sample_epochs", "count"),
    ("nn.fit_arrays.gflop", "GFLOP"),
    ("nn.Model.input_gradient_many.calls", "count"),
    ("nn.Model.input_gradient_many.rows", "count"),
    ("nn.Model.input_gradient_many.s", "s"),
    ("nn.Model.input_gradient_many.gflop", "GFLOP"),
    ("nn.Model.predict_many.calls", "count"),
    ("nn.Model.predict_many.rows", "count"),
    ("nn.Model.predict_many.s", "s"),
    ("nn.save_model.s", "s"),
    ("nn.load_model.s", "s"),
    ("attribution.integrated_gradients.calls", "count"),
    ("attribution.integrated_gradients.self_s", "s"),
    ("attribution.feature_permutation.calls", "count"),
    ("attribution.feature_permutation.self_s", "s"),
    ("attribution.lime.calls", "count"),
    ("attribution.lime.self_s", "s"),
    ("attribution.fit_local_slopes.s", "s"),
    ("grid.grid_attribution.self_s", "s"),
    ("grid.save_grid_result.s", "s"),
    ("grid.save_grid_result.bytes", "B"),
    ("grid.verify_grid_files.s", "s"),
    ("render.render_heatmap.calls", "count"),
    ("render.render_heatmap.s", "s"),
    ("properties.check_encoding_properties.self_s", "s"),
    ("properties.find_boundary_points.s", "s"),
    ("experiments.experiment_directed_fp.s", "s"),
    ("experiments.experiment_lime_vs_saliency.s", "s"),
    ("serialize.digest_of.calls", "count"),
    ("serialize.digest_of.s", "s"),
]


def matmul_gflop_per_s(rows: int = 256, width: int = 64, seconds: float = 0.2) -> float:
    """Throughput of ``h @ W.T + b`` at the hidden-layer shape, measured now."""
    rng = np.random.default_rng(0)
    h, W, b = rng.standard_normal((rows, width)), rng.standard_normal((width, width)), np.zeros(width)
    reps, start = 0, time.perf_counter()
    while time.perf_counter() - start < seconds:
        for _ in range(50):
            h @ W.T + b
        reps += 50
    return 2.0 * rows * width * width * reps / (time.perf_counter() - start) / 1e9


def span_cost_s(calls: int = 20_000) -> float:
    """Time one traced call of an empty function adds, measured now."""
    traced = Tracer()._wrap("empty", lambda: None, None, None)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - start) / calls


def layer_metrics(tracer: Tracer, setup_spans: int, traced_rounds, wall: float, lines) -> dict:
    # Only work inside the operations counted in wall_s enters the layer
    # figures: not the untimed operations, nor checks made between operations.
    timed = {f"bench.{o.name}" for r in traced_rounds for o in r.ops if o.timed}
    roots = tracer.roots()
    spans = [s for s in tracer.spans[setup_spans:] if roots[s.sid] in timed]
    setup_tot = tracer.totals(tracer.spans[:setup_spans])
    round_tot = tracer.totals(spans)
    n = len(traced_rounds)
    metrics = {}
    for key, unit in LAYER_METRICS:
        span, fld = key.rsplit(".", 1)
        value = setup_tot.get(span, {}).get(fld, 0) + round_tot.get(span, {}).get(fld, 0) / n
        metrics[key] = (value, unit)
    metrics["nn.matmul_ref_gflop_per_s"] = (matmul_gflop_per_s(), "GFLOP/s")

    traced_wall = median([r.wall for r in traced_rounds])
    own = tracer.self_times()
    # The self times of all spans of a round add up to its traced time; the
    # part outside the benchmark's own ``bench.*`` spans is lpattr's.
    round_self = sum(own[s.sid] for s in spans) / n
    bench_self = sum(own[s.sid] for s in spans if s.name.startswith("bench.")) / n
    lpattr_self = round_self - bench_self
    overhead = traced_wall - wall
    span_count = len(spans) / n
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans"] = (span_count, "count")
    metrics["trace.est_overhead_s"] = (span_count * span_cost_s(), "s")
    metrics["trace.lpattr_share"] = (lpattr_self / round_self, "1")
    metrics["trace.bench_self_s"] = (bench_self, "s")
    lines.append(f"trace: untraced wall_s {wall:.6g} s, traced wall_s {traced_wall:.6g} s, "
                 f"overhead {overhead:.6g} s; {span_count:.0f} spans per round at the measured "
                 f"cost of an empty span would add {metrics['trace.est_overhead_s'][0]:.3g} s")
    lines.append(f"trace: of {round_self:.6g} s of span self time per traced round, lpattr's "
                 f"spans account for {lpattr_self:.6g} s ({lpattr_self / round_self:.2%}) and "
                 f"the benchmark's own code outside lpattr for {bench_self:.6g} s")
    for key, (value, unit) in metrics.items():
        lines.append(f"layer {key} = {value:.6g} {unit}")
    return metrics
