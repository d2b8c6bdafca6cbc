"""Command-line pipeline driver.

Subcommands: synth, extract, codebook, encode, train, evaluate, inspect.
Every stage checks its output paths before any work, writes outputs
atomically, and is byte-identical across reruns with the same inputs and
seed. A flag overrides its config field only when given. Exit codes:
0 success, 1 validation or configuration error or an allocation that
cannot be met, 2 I/O or file-format error, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bow, dataio, kernels
from .config import RunConfig
from .descriptors import FEATURES, check_features
from .errors import ConvergenceError, FormatError, ValidationError, check_positive
from .evaluation import EvalReport, extract_dataset_descriptors, run_experiment
from .modelio import METHODS, TrainedModel, train_model, write_model
from .synth import generate_synthetic_dataset

DESCRIPTOR_SIDECAR = "descriptors.json"


def _load_config(path) -> RunConfig:
    return RunConfig.load(path) if path else RunConfig()


def _parse_features(text):
    return check_features([part.strip() for part in text.split(",") if part.strip()])


METHOD_CHOICES = ["single", *METHODS]


def _method(name: str) -> str:
    """A ``--method`` choice as its registry name: ``single`` is ``single_kernel``."""
    return "single_kernel" if name == "single" else name


def _check_output(path, directory: bool) -> None:
    """Refuse, without creating anything, an output that cannot be written:
    a file output that is a directory, or one whose nearest existing
    ancestor (for a directory output, counting itself) is not a directory."""
    target = Path(path)
    if not directory and target.is_dir():
        raise IsADirectoryError(f"output {path} is a directory")
    ancestor = target if directory else target.parent
    while not ancestor.exists() and ancestor != ancestor.parent:
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        raise NotADirectoryError(f"cannot write {path}: {ancestor} is not a directory")


def _progress(done, total):
    print(f"progress: {done}/{total}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    cfg = _load_config(args.config)
    synth_cfg = cfg.synth if args.seed is None else cfg.replace_section("synth", seed=args.seed).synth
    manifest = generate_synthetic_dataset(synth_cfg, args.out)
    print(f"wrote {len(manifest.videos)} videos in {len(manifest.classes)} classes to {args.out}")
    return 0


def _load_manifest_dir(data_dir):
    return dataio.read_manifest(Path(data_dir) / "manifest.json")


def cmd_extract(args) -> int:
    cfg = _load_config(args.config)
    features = cfg.features if args.features is None else _parse_features(args.features)
    manifest = _load_manifest_dir(args.data)
    # one worker per video: ordered_map caps the pool at the usable CPUs
    cache = extract_dataset_descriptors(manifest, args.data, features, cfg,
                                        workers=len(manifest.videos), progress=_progress)
    out_dir = Path(args.out)
    listing = dataio.DescriptorListing(
        {dtype: dset.dim for dtype, dset in next(iter(cache.values())).items()},
        {vid: {dtype: f"{vid}.{dtype}.dsc" for dtype in sets} for vid, sets in cache.items()})
    for vid, sets in cache.items():
        for dtype, dset in sets.items():
            dataio.write_descriptor_set(dset, out_dir / listing.videos[vid][dtype])
    dataio.write_json(out_dir / DESCRIPTOR_SIDECAR, listing)
    print(f"extracted {list(listing.dims)} descriptors for {len(cache)} videos to {out_dir}")
    return 0


def _descriptor_listing(doc, desc_dir: Path, types=None):
    """A listing's features, ``{type: dim}`` sizes and every video's descriptor sets of the
    ``types`` (default: all), each of its type's size; a defect raises one of ``dataio.MALFORMED``."""
    listing = dataio.from_doc(doc, dataio.DescriptorListing)
    features = check_features(list(listing.dims))
    cache = {vid: {dtype: dataio.read_descriptor_set(desc_dir / name, descriptor_type=dtype)
                   for dtype, name in files.items() if types is None or dtype in types}
             for vid, files in listing.videos.items()}
    for vid, sets in cache.items():
        for dtype, dset in sets.items():
            if dset.dim != listing.dims[dtype]:
                raise ValueError(f"{(desc_dir / listing.videos[vid][dtype]).name} has dimension "
                                 f"{dset.dim}, not {listing.dims[dtype]}")
    return features, listing.dims, cache


def _read_descriptor_dir(desc_dir, types=None):
    """``_descriptor_listing`` of the sidecar in ``desc_dir``; a defect raises FormatError."""
    path = Path(desc_dir) / DESCRIPTOR_SIDECAR
    return dataio.decode_json(path, dataio.read_json(path), "descriptors",
                              lambda doc: _descriptor_listing(doc, path.parent, types))


def cmd_codebook(args) -> int:
    _, _, cache = _read_descriptor_dir(args.descriptors, {args.type})
    codebook = bow.kmeans(bow.pooled_descriptors(cache.values(), args.type), args.words, args.seed)
    dataio.write_codebook(codebook, args.out)
    print(f"codebook: {args.type}, {codebook.word_count} words of dim {codebook.dim}")
    return 0


def cmd_encode(args) -> int:
    features, dims, cache = _read_descriptor_dir(args.descriptors)
    cb_dir = Path(args.codebooks)
    codebooks = {}
    for dtype in features:
        path = cb_dir / f"{dtype}.cbk"
        codebooks[dtype] = dataio.read_codebook(path, descriptor_type=dtype)
        if codebooks[dtype].dim != dims[dtype]:
            raise FormatError(f"{path}: codebook of dimension {codebooks[dtype].dim} for "
                              f"{dtype} descriptors of dimension {dims[dtype]}")
    histograms = [bow.encode_video(vid, sets, codebooks) for vid, sets in cache.items()]
    dataio.write_histograms(histograms, args.out)
    print(f"encoded {len(histograms)} videos -> {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    manifest = dataio.read_manifest(args.manifest)
    histograms = dataio.read_histograms(args.histograms, block_order=check_features)
    model = train_model(manifest, histograms, cfg, args.method, kernel_kind=args.kernel,
                        seed=args.seed)
    write_model(model, args.out)
    note = METHODS[model.method].note
    for name, payload in zip(model.classes, model.binary_models):
        if text := note(payload, cfg):
            print(f"note: class {name}: {text}", file=sys.stderr)
    print(f"trained {args.method} model over {len(model.classes)} classes -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    features = None if args.features is None else _parse_features(args.features)
    manifest = _load_manifest_dir(args.data)
    report = run_experiment(manifest, args.data, cfg, args.method, kernel_kind=args.kernel,
                            features=features, repeats=args.repeats, base_seed=args.seed,
                            workers=args.workers, progress=_progress)
    dataio.write_json(args.out, report)
    if args.csv:
        report.write_confusion_csv(args.csv)
    print(f"{args.method}: mean accuracy {report.mean_accuracy:.2f}% "
          f"over {report.split.repeats} repeats -> {args.out}")
    return 0


# JSON artifact kind -> the name error messages give it
JSON_KINDS = {"dataset_manifest": "manifest", "histograms": "histograms", "model": "model",
              "eval_report": "eval report", "descriptors": "descriptors"}


def _json_summary(path, doc, kind) -> list:
    if kind == "dataset_manifest":
        manifest = dataio.from_doc(doc, dataio.DatasetManifest)
        return [f"manifest: {len(manifest.classes)} classes, {len(manifest.videos)} videos",
                *(f"  [{k}] {name}: {count} videos"
                  for k, (name, count) in enumerate(zip(manifest.classes, manifest.class_counts())))]
    if kind == "histograms":
        hists = dataio.from_doc(doc, dataio.HistogramCollection, block_order=check_features)
        sizes = {name: counts.size for name, counts in hists.histograms[0].blocks}
        return [f"histograms: {len(hists.histograms)} videos, blocks {sizes}"]
    if kind == "model":
        model = TrainedModel.from_dict(doc)
        describe = METHODS[model.method].describe
        return [f"model: method={model.method}, classes={model.classes}",
                f"  kernels: {[s.label or s.kind for s in model.specs]}",
                *(f"  class {name}: {describe(payload)}"
                  for name, payload in zip(model.classes, model.binary_models))]
    if kind == "eval_report":
        report = dataio.from_doc(doc, EvalReport)
        split = report.split
        sizes = f" {split.train_n}/{split.test_n} per class" if split.mode == "per_class_counts" else ""
        return [f"report: method={report.method} kernel={report.kernel} features={report.features}",
                f"  split: {split.mode}{sizes}, {split.repeats} repeats, base_seed {split.base_seed}",
                f"  mean accuracy {report.mean_accuracy:.2f}% over {len(report.per_repeat_accuracy)} "
                f"repeats; per-class stddev {report.per_class_stddev:.2f}",
                "  confusion (% rows):",
                *(f"    {name}: " + " ".join(f"{v:5.1f}" for v in row)
                  for name, row in zip(report.classes, report.confusion))]
    _, dims, cache = _descriptor_listing(doc, path.parent)
    return [f"descriptors: {len(cache)} videos, dims {dims}"]


def _inspect_json(path, doc) -> None:
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in JSON_KINDS:
        print(json.dumps(doc, indent=2))
        return
    # the summary is built in full first, so a defect prints nothing
    lines = dataio.decode_json(path, doc, JSON_KINDS[kind],
                               lambda doc: _json_summary(path, doc, kind))
    print("\n".join(lines))


def cmd_inspect(args) -> int:
    path = Path(args.file)
    with open(path, "rb") as handle:
        magic = handle.read(4)
    if magic == dataio.FSQ_MAGIC:
        seq = dataio.read_frame_sequence(path)
        print(f"frame sequence: {seq.width}x{seq.height}, {seq.frame_count} frames")
    elif magic == dataio.DSC_MAGIC:
        dset = dataio.read_descriptor_set(path)
        print(f"descriptor set: {dset.count} vectors of dim {dset.dim}")
    elif magic == dataio.CBK_MAGIC:
        codebook = dataio.read_codebook(path)
        print(f"codebook: {codebook.word_count} words of dim {codebook.dim}")
    else:
        _inspect_json(path, dataio.read_json(path))
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egoact",
        description="First-person activity recognition pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    features_help = f"comma list from {','.join(FEATURES)}"
    config_help = "JSON run configuration"

    p = sub.add_parser("synth", help="generate the synthetic dataset")
    p.add_argument("--config", help=config_help)
    p.add_argument("--seed", type=int, help="deterministic seed (default synth.seed)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract descriptors for a dataset")
    p.add_argument("--config", help=config_help)
    p.add_argument("--data", required=True, help="dataset directory with manifest.json")
    p.add_argument("--features", help=features_help)
    p.add_argument("--out", required=True, help="output descriptor directory")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("codebook", help="train one k-means codebook")
    p.add_argument("--seed", type=int, default=0, help="deterministic seed (default 0)")
    p.add_argument("--descriptors", required=True, help="directory from `extract`")
    p.add_argument("--type", required=True, choices=FEATURES)
    p.add_argument("--words", type=int, default=bow.BowSection.words, help="word count (default %(default)s)")
    p.add_argument("--out", required=True, help="output .cbk path")
    p.set_defaults(func=cmd_codebook)

    p = sub.add_parser("encode", help="encode descriptor sets into histograms")
    p.add_argument("--descriptors", required=True, help="directory from `extract`")
    p.add_argument("--codebooks", required=True, help="directory holding <type>.cbk files")
    p.add_argument("--out", required=True, help="output histograms JSON path")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train", help="train a model on all listed videos")
    p.add_argument("--config", help=config_help)
    p.add_argument("--seed", type=int, default=0, help="deterministic seed (default 0)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--histograms", required=True)
    p.add_argument("--method", required=True, type=_method, choices=METHOD_CHOICES)
    p.add_argument("--kernel", choices=kernels.KERNEL_KINDS)
    p.add_argument("--out", required=True, help="output model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run the repeated-split evaluation protocol")
    p.add_argument("--config", help=config_help)
    p.add_argument("--seed", type=int, help="deterministic seed (default split.base_seed)")
    p.add_argument("--data", required=True, help="dataset directory with manifest.json")
    p.add_argument("--method", required=True, type=_method, choices=METHOD_CHOICES)
    p.add_argument("--kernel", choices=kernels.KERNEL_KINDS)
    p.add_argument("--features", help=features_help)
    p.add_argument("--repeats", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="output report JSON path")
    p.add_argument("--csv", help="optional confusion-matrix CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="pretty-print any pipeline artifact")
    p.add_argument("file")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            check_positive("--seed", args.seed, "int", least=0)
        if "workers" in vars(args):
            check_positive("--workers", args.workers, "int")
        if "out" in vars(args):
            _check_output(args.out, directory=args.command in ("synth", "extract"))
        if getattr(args, "csv", None):
            _check_output(args.csv, directory=False)
            if Path(args.csv).resolve() == Path(args.out).resolve():
                raise OSError(f"--csv {args.csv} is the --out path {args.out}")
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
