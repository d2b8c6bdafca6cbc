"""egoact benchmark: three workloads driven through the package's public API.

    python3 benchmarks/run.py --workload extract-hd --seed 0 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 0

Run from the repository root. The package is imported from ``src/``; the
inputs are generated from ``--seed`` under ``.egobench/`` and removed at
the end. Each workload is set up ``SETUP_REPEATS`` times (``setup_s`` is
the median), then its timed pass repeats while another pass still fits
in ``--seconds`` (at least one pass); every time metric is the median
over passes. ``--trace 1`` sets up once and runs one untraced and one
traced pass instead, and reports per-layer metrics from the spans of the
traced set-up and pass, plus ``trace.overhead_s``.

Every artifact and result is checked; a failed check fails the
operation that produced it. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the metric names
come from ``BENCHMARK.json``); the exit code is 0 only when nothing
failed. The full record (environment, configuration, every metric,
check values and errors) goes to ``.egobench/<workload>-seed<seed>-trace<t>.json``
and the spans of a traced run to ``.egobench/<workload>-seed<seed>.trace.jsonl``.
"""

import os

# Before numpy is imported: one BLAS thread, so the process never runs
# more compute threads than the two CLI workers on a 2-core machine.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".egobench"
SETUP_REPEATS = 3
METHOD_KERNELS = (("single_kernel", None), ("multichannel", "dc_int"),
                  ("simple_mkl", None), ("boost_mkl", None))


class Abort(Exception):
    """An operation failed; the run stops and reports the failure."""


class Ops:
    """Counts attempted and failed operations (stage calls, CLI commands,
    repeats). An operation fails on an exception, a non-zero exit code or
    a failed output check; each label counts once."""

    def __init__(self):
        self.weights = {}
        self.failed = []
        self.errors = []
        self.tracer = None

    @property
    def attempted(self) -> int:
        return sum(self.weights.values())

    @property
    def failed_count(self) -> int:
        return sum(self.weights[label] for label in self.failed)

    def call(self, label, fn, weight=1, span=None, counts=None):
        """Run ``fn()`` as operation ``label``; returns (result, seconds)."""
        self.weights[label] = weight
        tracing = self.tracer.span(span or "stage." + label.split(".")[1]) if self.tracer else nullcontext()
        with tracing as record:
            start = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:
                self.fail(label, f"{type(exc).__name__}: {exc}")
                raise Abort(label) from exc
            seconds = time.perf_counter() - start
            if record is not None and counts is not None:
                record.counts.update(counts(result))
        return result, seconds

    def cli(self, label, argv):
        """``egoact.cli.main(argv)`` as one operation; returns (output, seconds)."""
        out = io.StringIO()

        def command():
            with redirect_stdout(out), redirect_stderr(out):
                return mods["cli"].main(argv)

        code, seconds = self.call(label, command, span=f"cli.{argv[0]}",
                                  counts=lambda code: {"exit": code})
        if code != 0:
            self.fail(label, f"exit {code}: {out.getvalue().strip()[-300:]}")
            raise Abort(label)
        return out.getvalue(), seconds

    def check(self, label, ok, message):
        if not ok:
            self.fail(label, message)

    def fail(self, label, message):
        if label not in self.failed:
            self.failed.append(label)
            self.errors.append(f"{label}: {message}")


mods = {}   # egoact modules by short name, filled by load_package()


def load_package() -> bool:
    src = ROOT / "src"
    if not (src / "egoact" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    for name in ("bow", "cli", "config", "dataio", "descriptors", "evaluation",
                 "kernels", "mkl", "boost", "modelio", "svm", "synth"):
        mods[name] = importlib.import_module(f"egoact.{name}")
    return True


def descriptor_counts(cache) -> dict:
    kinds = ("hof", "logc", "cuboid")
    return {k: sum(sets[k].count for sets in cache.values() if k in sets) for k in kinds}


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """Set-up, one timed pass, and the checks that span passes.

    ``run_pass`` returns the pass's stage times plus ``values``: the
    deterministic outputs (counts, accuracies, digests) that must repeat
    across passes and match ``reference.json`` for recorded seeds. Each
    value is keyed ``"<stage>:<name>"`` so a mismatch fails that stage.
    """

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.data = work / "data"

    def record(self) -> dict:
        return {"seed": self.seed, "config": self.cfg.to_dict()}

    def finish(self, ops, passes, reference):
        """Checks over all passes beyond comparing values; none by default."""


class ExtractHd(Workload):
    name = "extract-hd"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        synth = mods["config"].SynthConfig(class_count=4, videos_per_class=12, width=64,
                                           height=64, frame_count=24, seed=seed)
        self.cfg = mods["config"].RunConfig(synth=synth)

    def setup(self, ops, i):
        self.manifest, _ = ops.call(f"setup{i}.synth", lambda: mods["synth"].generate_synthetic_dataset(
            self.cfg.synth, self.data))

    def run_pass(self, ops, p):
        bow, cfg, manifest = mods["bow"], self.cfg, self.manifest
        ids = [v.video_id for v in manifest.videos]
        cache, extract_s = ops.call(f"{p}.extract", lambda: mods["evaluation"].extract_dataset_descriptors(
            manifest, self.data, cfg.features, cfg, workers=1))
        ops.check(f"{p}.extract", list(cache) == ids and all(set(s) == set(cfg.features) for s in cache.values()),
                  "descriptor sets do not cover every video and feature")

        def codebooks():
            books = {}
            for fi, kind in enumerate(cfg.features):
                pooled = np.vstack([cache[v][kind].vectors for v in ids if cache[v][kind].count])
                books[kind] = bow.kmeans(pooled, cfg.bow.words, np.random.SeedSequence([self.seed, fi]),
                                         max_iters=cfg.bow.max_iters)
            return books

        books, codebook_s = ops.call(f"{p}.codebook", codebooks)
        ops.check(f"{p}.codebook", all(b.word_count == cfg.bow.words and np.isfinite(b.centroids).all()
                                       for b in books.values()), "codebook shape or values")
        hists, encode_s = ops.call(f"{p}.encode", lambda: [
            bow.encode_video(v, cache[v], books) for v in ids])
        ops.check(f"{p}.encode", all(np.isclose(c.sum(), 1.0) or (c.sum() == 0 and not cache[h.video_id][k].count)
                                     for h in hists for k, c in h.blocks), "histogram blocks must sum to 1")
        model, train_s = ops.call(f"{p}.train", lambda: mods["modelio"].train_model(
            manifest, hists, cfg, "single_kernel", seed=self.seed))
        ops.check(f"{p}.train", len(model.binary_models) == len(manifest.classes), "one binary model per class")
        vectors = np.stack([h.concat() for h in hists])
        labels = np.array([v.class_index for v in manifest.videos])
        predicted, predict_s = ops.call(f"{p}.predict", lambda: model.predict(vectors))
        ops.check(f"{p}.predict", predicted.shape == labels.shape, "one prediction per video")
        return {
            "extract_s": extract_s, "train_s": train_s,
            "total_s": extract_s + codebook_s + encode_s + train_s + predict_s,
            "values": {
                "extract:descriptor_counts": descriptor_counts(cache),
                "predict:train_accuracy": float(np.mean(predicted == labels) * 100.0),
            },
        }


class EvalMany(Workload):
    name = "eval-many"
    repeats = 2

    def __init__(self, seed, work):
        super().__init__(seed, work)
        config = mods["config"]
        synth = config.SynthConfig(class_count=8, videos_per_class=16, seed=seed)
        self.cfg = (config.RunConfig(synth=synth)
                    .replace_section("flow", iterations=25)
                    .replace_section("split", train_n=12, test_n=4, repeats=self.repeats, base_seed=seed))

    def setup(self, ops, i):
        cfg = self.cfg
        self.cache = None   # one cache alive at a time, as for a single set-up
        self.manifest, _ = ops.call(f"setup{i}.synth", lambda: mods["synth"].generate_synthetic_dataset(
            cfg.synth, self.data))
        self.cache, _ = ops.call(f"setup{i}.cache", lambda: mods["evaluation"].extract_dataset_descriptors(
            self.manifest, self.data, cfg.features, cfg, workers=1))
        counts = descriptor_counts(self.cache)
        ops.check(f"setup{i}.cache", getattr(self, "setup_counts", counts) == counts,
                  "descriptor counts differ between set-ups")
        self.setup_counts = counts

    def run_pass(self, ops, p):
        out = {"values": {"cache:descriptor_counts": self.setup_counts}}
        chance = 100.0 / len(self.manifest.classes)
        for method, kernel in METHOD_KERNELS:
            label = f"{p}.{method}"
            report, seconds = ops.call(label, lambda: mods["evaluation"].run_experiment(
                self.manifest, self.data, self.cfg, method, kernel_kind=kernel,
                descriptor_cache=self.cache), weight=self.repeats, span="stage.evaluate")
            ops.check(label, len(report.per_repeat_accuracy) == self.repeats
                      and report.mean_accuracy > chance, f"accuracy {report.mean_accuracy} at chance {chance}")
            out[f"evaluate_s.{method}"] = seconds
            out["values"][f"{method}:accuracy.{method}"] = report.mean_accuracy
            out["values"][f"{method}:report_sha256"] = hashlib.sha256(
                json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()
        out["total_s"] = sum(out[f"evaluate_s.{m}"] for m, _ in METHOD_KERNELS)
        return out

    def record(self):
        return {**super().record(), "evaluate_repeats": self.repeats,
                "methods": [f"{m}:{k or self.cfg.kernels.kind}" for m, k in METHOD_KERNELS]}


class CliQuickstart(Workload):
    name = "cli-quickstart"
    # The README's quickstart config: the defaults, 4 classes x 12 videos at 32x32.
    config_doc = {"format_version": 1, "bow": {"words": 16},
                  "split": {"mode": "per_class_counts", "train_n": 9, "test_n": 3}}
    repeats = 5

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.cfg = mods["config"].RunConfig.from_dict(self.config_doc)
        self.config_path = work / "config.json"
        self.paths = {name: str(work / name) for name in (
            "desc", "cb", "hists.json", "model.json", "report.json", "confusion.csv", "report_w1.json")}

    def setup(self, ops, i):
        mods["dataio"].write_json(self.config_path, self.config_doc)
        ops.cli(f"setup{i}.synth", ["synth", "--config", str(self.config_path), "--seed", str(self.seed),
                                    "--out", str(self.data)])

    def evaluate_argv(self, workers, out):
        return ["evaluate", "--config", str(self.config_path), "--data", str(self.data),
                "--method", "simple_mkl", "--repeats", str(self.repeats), "--seed", str(self.seed),
                "--workers", str(workers), "--out", out]

    def run_pass(self, ops, p):
        path = self.paths
        times = {}

        def run(stage, argv):
            output, seconds = ops.cli(f"{p}.{stage}", argv)
            times[stage] = seconds
            return output

        run("extract", ["extract", "--config", str(self.config_path), "--data", str(self.data),
                        "--out", path["desc"]])
        for seed, kind in enumerate(("hof", "logc", "cuboid"), start=1):
            run(f"codebook_{kind}", ["codebook", "--descriptors", path["desc"], "--type", kind, "--words", "16",
                                     "--seed", str(seed), "--out", f"{path['cb']}/{kind}.cbk"])
        run("encode", ["encode", "--descriptors", path["desc"], "--codebooks", path["cb"], "--out", path["hists.json"]])
        run("train", ["train", "--config", str(self.config_path), "--manifest", str(self.data / "manifest.json"),
                      "--histograms", path["hists.json"], "--method", "boost_mkl", "--seed", "2",
                      "--out", path["model.json"]])
        run("evaluate", self.evaluate_argv(2, path["report.json"]) + ["--csv", path["confusion.csv"]])
        shown = run("inspect_report", ["inspect", path["report.json"]])
        ops.check(f"{p}.inspect_report", shown.startswith("report: method=simple_mkl"), "inspect report output")
        shown = run("inspect_model", ["inspect", path["model.json"]])
        ops.check(f"{p}.inspect_model", shown.startswith("model: method=boost_mkl"), "inspect model output")
        values = self.read_back(ops, p)
        return {"extract_s": times["extract"], "train_s": times["train"],
                "evaluate_s.simple_mkl": times["evaluate"], "total_s": sum(times.values()),
                "values": values}

    def read_back(self, ops, p):
        """Read every artifact back through the package's own readers."""
        dataio, path = mods["dataio"], self.paths
        manifest = dataio.read_manifest(self.data / "manifest.json")
        listing = dataio.read_json(Path(path["desc"]) / "descriptors.json")
        cache = {vid: {k: dataio.read_descriptor_set(Path(path["desc"]) / name, descriptor_type=k)
                       for k, name in files.items()} for vid, files in listing["videos"].items()}
        ops.check(f"{p}.extract", sorted(cache) == sorted(v.video_id for v in manifest.videos),
                  "descriptor listing does not cover the manifest")
        for kind in ("hof", "logc", "cuboid"):
            book = dataio.read_codebook(f"{path['cb']}/{kind}.cbk", descriptor_type=kind)
            ops.check(f"{p}.codebook_{kind}", book.word_count == 16 and book.dim == listing["dims"][kind],
                      f"{kind} codebook shape")
        hists = dataio.read_histograms(path["hists.json"])
        ops.check(f"{p}.encode", len(hists) == len(manifest.videos)
                  and all(np.isclose(c.sum(), 1.0) or c.sum() == 0 for h in hists for _, c in h.blocks),
                  "histograms")
        model = mods["modelio"].read_model(path["model.json"])
        trials = self.cfg.boost.trials
        ops.check(f"{p}.train", model.method == "boost_mkl" and len(model.binary_models) == len(manifest.classes)
                  and all(1 <= len(b.trials) <= trials for b in model.binary_models), "boosted model")
        report = dataio.read_json(path["report.json"])
        ops.check(f"{p}.evaluate", report["kind"] == "eval_report"
                  and len(report["per_repeat_accuracy"]) == self.repeats
                  and report["mean_accuracy"] > 100.0 / len(manifest.classes), "evaluation report")
        return {
            "extract:descriptor_counts": descriptor_counts(cache),
            "evaluate:accuracy.simple_mkl": report["mean_accuracy"],
            "evaluate:report_sha256": hashlib.sha256(Path(path["report.json"]).read_bytes()).hexdigest(),
            "train:boost_trials_kept": sum(len(b.trials) for b in model.binary_models),
        }

    def finish(self, ops, passes, reference):
        """Criterion 10 from outside: the --workers 2 report is byte-identical
        to a --workers 1 report. A recorded seed's reference digest was taken
        from --workers 1 (``compare_values`` checks it); any other seed runs
        the same command with --workers 1 here, untimed."""
        if reference:
            return
        ops.cli("reference.evaluate", self.evaluate_argv(1, self.paths["report_w1.json"]))
        digest = hashlib.sha256(Path(self.paths["report_w1.json"]).read_bytes()).hexdigest()
        for i, result in enumerate(passes):
            ops.check(f"p{i + 1}.evaluate", result["values"]["evaluate:report_sha256"] == digest,
                      "--workers 2 report differs from the --workers 1 report")

    def record(self):
        return {**super().record(), "config_file": self.config_doc, "evaluate_repeats": self.repeats}


WORKLOADS = {w.name: w for w in (ExtractHd, EvalMany, CliQuickstart)}
UNITS = {"peak_rss_mb": "MB", "failed_ratio": "ratio"}


def unit_of(name):
    return UNITS.get(name, "%" if name.startswith("accuracy.") else "s")


# ---------------------------------------------------------------------------
# checks across passes

def compare_values(ops, passes, reference):
    """Every pass's values equal the first pass's, and the reference's."""
    first = passes[0]["values"]
    for i, result in enumerate(passes[1:], start=2):
        for key, value in result["values"].items():
            stage, name = key.split(":")
            ops.check(f"p{i}.{stage}", value == first[key], f"{name} differs from pass 1")
    for key, expected in (reference or {}).items():
        stage, name = key.split(":")
        got = first.get(key)
        same = (got is not None and np.isclose(got, expected, rtol=0, atol=1e-9)
                if isinstance(expected, float) else got == expected)
        ops.check(f"p1.{stage}", same, f"{name} = {got}, reference {expected}")


# ---------------------------------------------------------------------------
# run

def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "egoact").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def measure(workload, ops, seconds):
    """Timed passes while another one fits in ``seconds`` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(ops, f"p{len(passes) + 1}"))
        typical = statistics.median([p["total_s"] for p in passes])
        if time.perf_counter() - start + typical > seconds:
            return passes


@contextmanager
def traced(ops, tracer):
    """The layer hooks installed and the operations recorded as spans."""
    with tracer.installed(mods):
        ops.tracer = tracer
        try:
            yield
        finally:
            ops.tracer = None


def run_workload(name, seed, seconds, trace, declared):
    work = OUT / f"work-{name}-{os.getpid()}"
    workload = WORKLOADS[name](seed, work)
    ops = Ops()
    row, layers, passes, setups = {}, {}, [], []
    reference = json.loads((HERE / "reference.json").read_text()).get(name, {}).get(str(seed))
    tracer = Tracer()
    try:
        if trace:
            with traced(ops, tracer):
                workload.setup(ops, 1)
            passes.append(workload.run_pass(ops, "p1"))
            with traced(ops, tracer):
                passes.append(workload.run_pass(ops, "p2"))
            layers = layer_metrics(tracer.spans)
            layers["trace.overhead_s"] = (passes[1]["total_s"] - passes[0]["total_s"], "s")
        else:
            for i in range(1, SETUP_REPEATS + 1):
                start = time.perf_counter()
                workload.setup(ops, i)
                setups.append(time.perf_counter() - start)
            passes = measure(workload, ops, seconds)
            row["setup_s"] = statistics.median(setups)
            for key in passes[0]:
                if key != "values":
                    row[key] = statistics.median([p[key] for p in passes])
            row.update({k.split(":")[1]: v for k, v in passes[0]["values"].items()
                        if k.split(":")[1].startswith("accuracy.")})
            row["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.finish(ops, passes, reference)
        compare_values(ops, passes, reference)
    except Abort:
        pass
    finally:
        shutil.rmtree(work, ignore_errors=True)
    row["failed_ratio"] = ops.failed_count / max(ops.attempted, 1)

    tag = f"{name}-seed{seed}"
    if trace:
        tracer.write_jsonl(OUT / f"{tag}.trace.jsonl")
    correct = not ops.failed
    chosen = layers if trace else {k: (v, unit_of(k)) for k, v in row.items()}
    missing = [m for m in declared if m not in chosen]
    if correct and missing:
        ops.errors.append(f"metrics missing from this workload: {missing}")
        correct = False
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "workload_config": workload.record(),
        "setup_s": setups, "pass_total_s": [p["total_s"] for p in passes],
        "end_to_end": {k: {"value": v, "unit": unit_of(k)} for k, v in row.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "values": passes[0]["values"] if passes else {},
        "attempted": ops.attempted, "failed": ops.failed_count, "errors": ops.errors,
    }
    (OUT / f"{tag}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"environment: {json.dumps(record['environment'])}")
    print(f"workload {name}: {json.dumps(record['workload_config'])}")
    for error in ops.errors:
        print(f"FAILED {error}")
    shown = {k: (v, unit_of(k)) for k, v in row.items()}
    if trace:
        print(f"{name} per-layer (traced set-up + 1 traced pass; entries computed from shapes):")
        shown.update(layers)
    else:
        print(f"{name} end-to-end (median of {len(passes)} passes, {len(setups)} set-ups):")
    for key, (value, unit) in shown.items():
        print(f"  {key:34s} {value:16.6g} {unit}")
    result = {"correct": correct, "attempted": max(ops.attempted, 1), "failed": ops.failed_count,
              "metrics": {m: {"value": chosen[m][0], "unit": chosen[m][1]} for m in declared if m in chosen}}
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed, seconds, trace):
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] &= result["correct"] and child.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not load_package():
        print(f"error: the egoact package is not under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), declared)


if __name__ == "__main__":
    sys.exit(main())
