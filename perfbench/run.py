"""Run one b3sum benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline-synth --seed 1 --seconds 40 --trace 0

Run from the root of a source tree: b3sum is imported from ``src/``.  With
``--trace 0`` the last stdout line is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run,
whose spans are written to ``.perfbench/``.  ``--workload all`` runs every
workload, each in its own process.  ``--smoke`` shrinks every size so the
benchmark's own tests run in seconds.  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import os

# Fixed before numpy loads so the BLAS pool never grows past it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("pipeline-synth", "paper-shape")

# Every end-to-end metric, with its unit and the workloads it applies to.
END_TO_END = [
    ("setup_s", "s", WORKLOAD_NAMES),
    ("train_examples_per_s", "1/s", WORKLOAD_NAMES),
    ("classifier_train_examples_per_s", "1/s", ("pipeline-synth",)),
    ("route_ms_p50", "ms", ("pipeline-synth",)),
    ("route_ms_p90", "ms", ("pipeline-synth",)),
    ("beam4_ms_p50", "ms", ("pipeline-synth",)),
    ("beam4_ms_p90", "ms", ("pipeline-synth",)),
    ("first_token_ms_p50", "ms", WORKLOAD_NAMES),
    ("greedy_ms_per_token_p50", "ms", WORKLOAD_NAMES),
    ("peak_rss_mb", "MB", WORKLOAD_NAMES),
    ("heldout_loss", "nats", WORKLOAD_NAMES),
    ("rouge2_f1", "f1", ("pipeline-synth",)),
    ("routing_accuracy", "share", ("pipeline-synth",)),
    # On paper-shape every decode comes from an untrained model, so it is
    # degenerate by construction and the rate is left out there.
    ("degenerate_rate", "share", ("pipeline-synth",)),
    ("failed_share", "share", WORKLOAD_NAMES),
]
# The subset in the result line, which BENCHMARK.json bounds: present on
# every workload, never zero, and steady from run to run.  Times are not
# steady enough here (README.md gives the figures), the quality figures are
# exact per seed but differ widely between seeds, and failed_share is zero
# whenever a run is correct.
GATED = ("setup_s", "peak_rss_mb")

KERNELS = ("leaf", "matmul", "add", "mul", "concat", "tanh", "sigmoid", "softmax",
           "transpose", "scale", "neg-log-pick", "reduce-mean")
PER_LAYER = (
    [("tape.nodes_per_train_example", "count")]
    + [(f"tape.nodes.{k}", "count") for k in KERNELS]
    + [("tape.backward_s", "s"), ("tape.optimizer_s", "s"),
       ("tape.backward_train_share", "share"), ("tape.nodes_per_decode_token", "count"),
       ("layers.bilstm_encode_s", "s"), ("layers.lstm_step_s", "s"),
       ("layers.lstm_step_calls", "count"), ("layers.embed_rows_s", "s"),
       ("summarizer.sequence_loss_s", "s"), ("summarizer.train_batch_s", "s"),
       ("summarizer.attend_s", "s"), ("summarizer.vocab_distribution_s", "s"),
       ("summarizer.final_distribution_s", "s"), ("summarizer.generation_prob_s", "s"),
       ("summarizer.decode_s", "s"), ("summarizer.decode_tokens", "count"),
       ("classifier.classify_s", "s"), ("classifier.train_classifier_s", "s"),
       ("pipeline.pretrain_s", "s"), ("pipeline.auto_label_s", "s"),
       ("pipeline.finetune_s", "s"), ("pipeline.route_s", "s"),
       ("pipeline.routed_parallel_share", "share"),
       ("checkpoint.save_s", "s"), ("checkpoint.load_s", "s"), ("checkpoint.bytes", "bytes"),
       ("metrics.rouge_s", "s"), ("metrics.align_s", "s"),
       ("corpus.synth_generate_s", "s"), ("corpus.build_vocab_s", "s"),
       ("corpus.prepare_s", "s"),
       ("trace.spans", "count"), ("trace.overhead_ratio", "ratio")]
)
# Span names whose wrapper must fire on each workload.
PAPER_SILENT = ("classifier.", "pipeline.", "checkpoint.", "metrics.")
CALIBRATION_PAIRS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    return ap.parse_args(argv)


def import_b3sum():
    """Import b3sum from this tree's src/, or explain why not."""
    sys.path.insert(0, str(SRC))
    try:
        import b3sum
    except ImportError as exc:
        return f"cannot import b3sum from {SRC}: {exc}"
    if not Path(b3sum.__file__).resolve().is_relative_to(SRC):
        return f"b3sum was imported from {b3sum.__file__}, not from {SRC}"
    return None


def git_commit():
    """HEAD of the git checkout rooted at ROOT, or None if ROOT is not one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(args):
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
        "machine": platform.machine(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
    }


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def per_layer(tracer, result, workdir, overhead_ratio):
    """Per-layer metrics from the spans of one traced run."""
    from tracing import sum_within, self_times, totals_by_name

    spans = tracer.spans
    selfs = self_times(spans)
    total = totals_by_name(spans, [s[2] - s[1] for s in spans])
    self_total = totals_by_name(spans, selfs)
    calls = tracer.calls()
    counts, kernels = tracer.counts, tracer.kernel_nodes
    examples = max(1, counts["train_examples"])
    train_total = max(total["summarizer.train_batch"], 1e-12)
    in_training = sum_within(spans, [s[2] - s[1] for s in spans], "summarizer.train_batch")
    train_self = sum_within(spans, selfs, "summarizer.train_batch")
    in_setup = sum_within(spans, [s[2] - s[1] for s in spans], "bench.setup")
    setups = max(1, calls["bench.setup"])
    ckpt_bytes = sum(p.stat().st_size for p in workdir.glob("*.ckpt"))
    m = {
        "tape.nodes_per_train_example": counts["train_nodes"] / examples,
        **{f"tape.nodes.{k}": kernels[k] / examples for k in KERNELS},
        "tape.backward_s": self_total["tape.backward"],
        "tape.optimizer_s": total["tape.clip_global_norm"] + total["tape.adagrad_step"],
        "tape.backward_train_share": train_self["tape.backward"] / train_total,
        "tape.nodes_per_decode_token": counts["decode_nodes"] / max(1, counts["decode_tokens"]),
        "layers.bilstm_encode_s": total["layers.bilstm_encode"],
        "layers.lstm_step_s": total["layers.lstm_step"],
        "layers.lstm_step_calls": calls["layers.lstm_step"],
        "layers.embed_rows_s": total["layers.embed_rows"],
        "summarizer.sequence_loss_s": in_training["summarizer.sequence_loss"],
        "summarizer.train_batch_s": total["summarizer.train_batch"],
        "summarizer.attend_s": total["summarizer.attend"],
        "summarizer.vocab_distribution_s": total["summarizer.vocab_distribution"],
        "summarizer.final_distribution_s": total["summarizer.final_distribution"],
        "summarizer.generation_prob_s": total["summarizer.generation_prob"],
        "summarizer.decode_s": total["summarizer.decode"],
        "summarizer.decode_tokens": counts["decode_tokens"],
        "classifier.classify_s": total["classifier.classify"],
        "classifier.train_classifier_s": total["classifier.train_classifier"],
        "pipeline.pretrain_s": total["pipeline.pretrain"],
        "pipeline.auto_label_s": total["pipeline.auto_label_corpus"],
        "pipeline.finetune_s": total["pipeline.finetune"],
        "pipeline.route_s": total["pipeline.structure_aware_summarize"],
        "pipeline.routed_parallel_share": result.info.get("routed_parallel_share", 0.0),
        "checkpoint.save_s": total["checkpoint.save_checkpoint"],
        "checkpoint.load_s": total["checkpoint.load_checkpoint"],
        "checkpoint.bytes": ckpt_bytes,
        "metrics.rouge_s": total["metrics.rouge_n"],
        "metrics.align_s": total["metrics.pairwise_align"],
        "corpus.synth_generate_s": in_setup["corpus.synth_generate"] / setups,
        "corpus.build_vocab_s": in_setup["corpus.build_vocab"] / setups,
        "corpus.prepare_s": (in_setup["corpus.preprocess"] + in_setup["summarizer.prepare_pair"]
                             + in_setup["classifier.prepare_labeled"]) / setups,
        "trace.spans": len(spans),
        "trace.overhead_ratio": overhead_ratio,
    }
    units = dict(PER_LAYER)
    top = sorted(train_self.items(), key=lambda kv: -kv[1])[:5]
    notes = ["self-time shares of summarizer.train_batch: "
             + ", ".join(f"{name} {t / train_total:.3f}" for name, t in top)]
    return {name: (float(m[name]), units[name]) for name, _ in PER_LAYER}, notes


def expected_spans(workload):
    from tracing import TARGETS

    if workload == "pipeline-synth":
        return list(TARGETS)
    return [name for name in TARGETS if not name.startswith(PAPER_SILENT)]


def overhead(calibration):
    """Median traced / median untraced time of the same short job, alternating."""
    from statistics import median

    from tracing import Tracer

    plain, traced = [], []
    for _ in range(CALIBRATION_PAIRS):
        start = time.perf_counter()
        calibration()
        plain.append(time.perf_counter() - start)
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            calibration()
            traced.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
    return median(traced) / median(plain)


def run_one(args):
    from tracing import Tracer
    from workloads import WORKLOADS, WorkloadAborted

    OUT.mkdir(exist_ok=True)
    env = environment(args)
    print("# env " + json.dumps(env), flush=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer() if args.trace else None
    size = "smoke" if args.smoke else "full"
    aborted = None
    layer = None
    try:
        if tracer is not None:
            tracer.install()
        try:
            result = WORKLOADS[args.workload](args.seed, args.seconds, size, workdir, tracer)
        except WorkloadAborted as exc:
            aborted, result = exc, exc.result
        finally:
            if tracer is not None:
                tracer.uninstall()
        result.put("failed_share", result.failed / max(1, result.attempted), "share")
        notes = [f"{k}: {v}" for k, v in sorted(result.info.items())
                 if k not in ("train_losses", "samples")]
        if tracer is not None and aborted is None:
            for name in tracer.unfired(expected_spans(args.workload)):
                result.op(f"trace wrapper {name}", "never fired")
            layer, layer_notes = per_layer(tracer, result, workdir, overhead(result.calibration))
            notes += layer_notes
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if aborted is not None:
        print(f"ABORTED {args.workload} at {aborted}: {aborted.__cause__!r}")
    print_table(args.workload, result.metrics, notes, traced=bool(args.trace))
    if layer is not None:
        print_layer_table(layer)
        shown = layer
    else:
        shown = {name: result.metrics[name] for name in GATED if name in result.metrics}
    for failure in result.failures:
        print(f"FAILED {failure}")
    record = {"env": env, "metrics": result.metrics, "info": result.info,
              "failures": result.failures}
    if layer is not None:
        record["per_layer"] = layer
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps(final_line(result.failed == 0, result.attempted, result.failed, shown)))
    return 0 if result.failed == 0 else 1


def final_line(correct, attempted, failed, metrics):
    return {
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def print_table(workload, metrics, notes, traced):
    mode = "traced run, not for comparison" if traced else "untraced"
    print(f"== {workload}: end-to-end metrics ({mode})")
    for name, unit, where in END_TO_END:
        if name in metrics:
            value, unit = metrics[name]
            print(f"  {name:34s} {value:14.6g} {unit}")
        elif workload in where:
            print(f"  {name:34s} {'n/a':>14s} {unit}  (not reached)")
        else:
            print(f"  {name:34s} {'n/a':>14s} {unit}  (measured on {', '.join(where)} only)")
    for note in notes:
        print(f"  # {note}")


def print_layer_table(layer):
    print("== per-layer metrics")
    for name, (value, unit) in layer.items():
        print(f"  {name:34s} {value:14.6g} {unit}")


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            last = None
        if proc.returncode != 0 or last is None:
            print(f"{workload} exited with code {proc.returncode}")
            return 1
        attempted += last["attempted"]
        failed += last["failed"]
        correct = correct and last["correct"]
        for name, m in last["metrics"].items():
            merged[f"{workload}.{name}"] = (m["value"], m["unit"])
    print(json.dumps(final_line(correct, attempted, failed, merged)))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    problem = import_b3sum()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
