"""Command-line entry point.

Every subcommand is a thin adapter over the library: parse flags, read and
write files, call one module.  The ``train-*`` subcommands pool their
features through the ``PipelineContext`` of the protocol whose fit they
reproduce, so they build the rows that protocol measures.  Exit codes: 0
success, 1 usage error, 2 data error.  All randomness sits behind ``--seed``.
``experiment --jobs N`` builds image features on N threads (fits and scoring
stay serial), and its output bytes do not depend on N.  The ``CAMTRAP_OUT``
environment variable overrides the default output directory.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
from pathlib import Path

from . import experiments as ex
from . import features as ft
from . import manifest as mf
from . import metrics as mt
from . import segmentation as seg
from . import svm
from . import synth
from . import wsddn

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

OUT_ENV = "CAMTRAP_OUT"


# a negative number, plain or in exponent form, or a comma list of numbers starting with one
_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NEGATIVE_VALUE = re.compile(rf"^-{_NUMBER}(?:,[+-]?{_NUMBER})*$")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; we reserve 2 for data errors."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads `-1e-3` (and `-0.5,0.75`) as an unknown flag, not a
        # value; widen its negative-number test so such values reach the checks
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _default_out() -> str:
    return os.environ.get(OUT_ENV, ".")


def _fraction(text: str) -> float:
    v = float(text)
    if not 0.0 < v < 1.0:
        raise argparse.ArgumentTypeError(f"--fraction must lie in (0,1), got {text}")
    return v


def _int_tuple(text: str):
    return tuple(int(t) for t in text.split(","))


def _float_tuple(text: str):
    return tuple(float(t) for t in text.split(","))


# ---------------------------------------------------------------------------
# config files: one `key = value` per line, # comments, comma lists

# the text of a line before its first `#` outside quotes
_UNCOMMENTED = re.compile(r"""(?:[^#'"]|'[^']*'|"[^"]*"|['"])*""")


def parse_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _UNCOMMENTED.match(raw).group().strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = _coerce(val.strip())
    return values


def _coerce(text: str):
    if text and text[0] in "'\"" and text[-1] == text[0] and len(text) >= 2:
        return text[1:-1]
    if "," in text:
        return tuple(_coerce(t.strip()) for t in text.split(","))
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


# ---------------------------------------------------------------------------
# shared helpers


def _context(args) -> ex.PipelineContext:
    """The feature context of the protocol whose fit a `train-*` command
    reproduces (`args.protocol`), over its manifest; its net and window
    values are checked under their flag names first."""
    ft.check_net_values(args.channels, args.levels)
    windows = {}
    if "scales" in args:
        ft.check_region_values(args.scales, args.stride)
        windows = {"region_scales": args.scales, "region_stride": args.stride}
    return ex.PipelineContext(ex.ExperimentConfig(
        args.protocol, manifest_path=args.manifest, images_root=args.images, channels=args.channels,
        pyramid_levels=args.levels, feature_seed=args.net_seed, **windows))


def _add_net_flags(p):
    p.add_argument("--channels", type=_int_tuple, default=ex.ExperimentConfig.channels, help="conv channel chain, e.g. 3,8,16")
    p.add_argument("--levels", type=_int_tuple, default=ex.ExperimentConfig.pyramid_levels, help="pyramid grid sizes, e.g. 1,2")
    p.add_argument("--net-seed", type=int, default=ex.ExperimentConfig.feature_seed, help="seed for the frozen conv weights")


def _add_region_flags(p):
    p.add_argument("--scales", type=_float_tuple, default=ex.ExperimentConfig.region_scales, help="window scales, e.g. 0.5,0.75")
    p.add_argument("--stride", type=float, default=ex.ExperimentConfig.region_stride, help="stride as a fraction of the window")


# ---------------------------------------------------------------------------
# subcommands


def _synth_config(image_size, individuals, images_per_individual, n_negatives, night_fraction, corpus_seed):
    """The synthetic corpus of `synth`'s flags and of an experiment config's corpus keys."""
    return synth.SynthConfig(image_size, synth.default_species_specs(individuals, images_per_individual),
                             n_negatives, float(night_fraction), corpus_seed)


def _cmd_synth(args) -> int:
    out = Path(args.out)
    manifest, _, _ = synth.generate_corpus(_synth_config(args.image_size, args.individuals, args.images_per_individual,
                                                         args.negatives, args.night_fraction, args.seed), out_dir=out)
    print(f"wrote {len(manifest)} images and manifest.csv to {out}")
    return EXIT_OK


def _cmd_split(args) -> int:
    man = mf.load_manifest(args.manifest)
    split = mf.stratified_split(man, args.fraction, args.seed, args.stratify_by)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mf.save_manifest(mf.select_records(man, split.train), out / "train.csv")
    mf.save_manifest(mf.select_records(man, split.validation), out / "validation.csv")
    print(f"train {len(split.train)} validation {len(split.validation)}")
    return EXIT_OK


def _cmd_train_detect(args) -> int:
    cfg = svm.SvmTrainConfig(args.epochs, args.lam, args.seed)
    ctx = _context(args)
    mf.check_presence(ctx.manifest, args.manifest)
    x, y = ex.presence_rows(ctx, ctx.cfg, ctx.manifest.ids())
    model = svm.train_linear_svm(x, y, cfg)
    svm.save_model(model, args.out)
    pred = svm.predict_labels(model, x)
    print(f"saved {args.out}; training accuracy {float((pred == y).mean())!r}")
    return EXIT_OK


def _train_head_command(args, ctx, records, label, plural) -> int:
    """Train a two-stream head on the window features of `records`, one class
    per value of their `label` field; `plural` names those values in errors."""
    classes = sorted({getattr(r, label) for r in records})
    if len(classes) < 2:
        raise ValueError(f"{args.manifest}: need images of at least 2 {plural}, found {classes}")
    cfg = wsddn.HeadTrainConfig(args.epochs, args.lr, args.seed, args.l2)
    ctx.check_window_counts([r.id for r in records])
    ds = [(ctx.region_features(r.id), wsddn.one_hot(getattr(r, label), classes)) for r in records]
    head = wsddn.train_head(ds, classes, cfg)
    wsddn.save_head(head, args.out)
    print(f"saved {args.out}; classes {' '.join(classes)}; final loss {float(head.loss_by_epoch[-1])!r}")
    return EXIT_OK


def _cmd_train_species(args) -> int:
    ctx = _context(args)
    return _train_head_command(args, ctx, ctx.manifest, "species", "species")


def _cmd_train_individual(args) -> int:
    species = args.species.split(",") if args.species else None
    unknown = sorted(set(species or ()) - set(mf.INDIVIDUAL_SPECIES))
    if unknown:
        raise ValueError(f"--species {args.species}: no individuals of {', '.join(map(repr, unknown))}; "
                         f"choose from {','.join(mf.INDIVIDUAL_SPECIES)}")
    ctx = _context(args)
    labeled = mf.filter_manifest(ctx.manifest, species=species, has_individual=True)
    if not labeled:
        raise ValueError(f"{args.manifest}: no record{' of ' + args.species if species else ''} has an individual label")
    return _train_head_command(args, ctx, labeled, "individual", "individuals")


def _cmd_segment(args) -> int:
    # every value is checked before the image or the model is read
    seg.check_patch_size(args.patch_size)
    seg.check_tau(args.tau)
    svm.check_scale(args.scale)
    pp = seg.PairwiseParams(args.w, args.theta_pos, args.theta_color, args.iterations)
    params, pyramid = ft.init_convnet(args.channels, seed=args.net_seed), ft.PyramidConfig(args.levels)
    image = synth.read_ppm(args.image, params.downsample)
    h, w = image.shape[:2]
    if args.patch_size > min(h, w):
        raise ValueError(f"{args.image}: --patch-size {args.patch_size} is larger than the shorter side "
                         f"of the {w}x{h} image")
    detector = svm.load_model(args.detector)
    dim = ft.feature_dim(params, pyramid)
    if detector.dim != dim:
        raise ValueError(f"{args.detector}: model dim {detector.dim} does not match feature dim {dim}")
    mask = seg.segment_image(
        image, detector, params, pyramid,
        patch_size=args.patch_size, pp=pp, tau=args.tau, scale=args.scale,
    )
    seg.write_pbm(args.out, mask)
    print(f"wrote {args.out}; foreground fraction {float(mask.mean())!r}")
    return EXIT_OK


def _read_label_csv(path):
    """id,label rows; optional ranked columns label1..labelK."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0] != "id" or len(header) < 2:
            raise ValueError(f"{path}: expected header id,label[,label2..]")
        out = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields")
            if row[0] in out:
                raise ValueError(f"{path}:{lineno}: duplicate id {row[0]!r}")
            if not all(label.strip() for label in row[1:]):
                raise ValueError(f"{path}:{lineno}: empty label")
            out[row[0]] = row[1:]
    if not out:
        raise ValueError(f"{path}: no rows")
    return out


def _cmd_eval(args) -> int:
    wsddn.check_k(args.k, "--k")
    pred = _read_label_csv(args.pred)
    width = len(next(iter(pred.values())))  # every row has its header's width
    if args.k > width:
        raise ValueError(f"{args.pred}:1: the header ranks {width} label(s), fewer than --k {args.k}")
    truth = _read_label_csv(args.truth)
    differ = sorted(set(pred) ^ set(truth))
    if differ:
        raise ValueError(f"--pred {args.pred} and --truth {args.truth} cover different ids, "
                         f"{len(differ)} in one only: {', '.join(map(repr, differ[:5]))}")
    ids = sorted(pred)
    classes = sorted({truth[i][0] for i in ids} | {pred[i][0] for i in ids})
    pairs = [(pred[i][0], truth[i][0]) for i in ids]
    cm = mt.accumulate(pairs, classes)
    rows = mt.metrics_report(cm)
    acc = mt.topk_accuracy([pred[i] for i in ids], [truth[i][0] for i in ids], args.k) if args.k > 1 else None
    sys.stdout.write(mt.format_summary(rows))
    if acc is not None:
        print(f"top-{args.k} accuracy {acc!r}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        mt.write_rows_csv(out / "metrics.csv", rows)
        mt.write_confusion_csv(cm, out / "confusion.csv")
        print(f"wrote metrics.csv and confusion.csv to {out}")
    return EXIT_OK


# corpus keys of an experiment config file and their defaults (corpus_seed: the base seed)
_CORPUS_DEFAULTS = {
    "image_size": synth.SynthConfig.image_size, "n_negatives": synth.SynthConfig.n_negatives,
    "night_fraction": synth.SynthConfig.night_fraction, "corpus_seed": 0,
    "individuals": 4, "images_per_individual": 10,
}
# value types a config key takes, by the type of its default; any other default takes a str
_VALUE_TYPES = {bool: (bool,), int: (int,), float: (int, float)}


def _experiment_config(args) -> ex.ExperimentConfig:
    if args.images and not args.manifest:
        raise ValueError(f"--images {args.images} needs --manifest: a synthetic corpus has no image root")
    values = parse_config_file(args.config) if args.config else {}
    defaults = {**{k: f.default for k, f in ex.ExperimentConfig.__dataclass_fields__.items()
                   if k not in ("protocol", "synth_config")}, **_CORPUS_DEFAULTS}  # flags and corpus keys set those
    unknown = set(values) - set(defaults)
    if unknown:
        raise ValueError(f"{args.config}: unknown config keys: {sorted(unknown)}")
    corpus_keys = sorted(set(values) & set(_CORPUS_DEFAULTS))
    if "manifest_path" in values and corpus_keys:
        raise ValueError(f"{args.config}: manifest_path and corpus keys {corpus_keys} name two corpora")
    for key, value in values.items():
        default = defaults[key]
        many = isinstance(default, tuple)  # a scalar is wrapped where the default is a tuple
        items = value if isinstance(value, tuple) else (value,)
        types = _VALUE_TYPES.get(type(default[0] if many else default), (str,))
        if (isinstance(value, tuple) and not many) or not all(
                isinstance(v, types) and isinstance(v, bool) == (bool in types) for v in items):
            raise ValueError(f"{args.config}: {key} = {value!r}: expected {types[-1].__name__}{' values' if many else ''}")
        values[key] = items if many else value
    # a file value holds unless its flag is given
    given = {"base_seed": args.seed, "n_seeds": args.n_seeds, "jobs": args.jobs}
    flags = {"protocol": args.protocol, **{k: v for k, v in given.items() if v is not None}}
    if args.manifest:
        flags.update(manifest_path=args.manifest, images_root=args.images)
    try:
        return _config_from(values, flags)
    except ValueError as exc:  # a value out of range
        if values:
            try:
                _config_from({}, flags)
            except ValueError:
                raise exc  # the flags alone fail: the file is not to blame
            raise ValueError(f"{args.config}: {exc}") from exc
        raise


def _config_from(values: dict, flags: dict) -> ex.ExperimentConfig:
    """The config of a file's checked `values`, flags overriding them."""
    kwargs = {**{k: v for k, v in values.items() if k not in _CORPUS_DEFAULTS}, **flags}
    if "manifest_path" not in kwargs:
        corpus = {**_CORPUS_DEFAULTS, "corpus_seed": kwargs.get("base_seed", ex.ExperimentConfig.base_seed), **values}
        kwargs["synth_config"] = _synth_config(**{k: corpus[k] for k in _CORPUS_DEFAULTS})
    return ex.ExperimentConfig(**kwargs)


def _cmd_experiment(args) -> int:
    cfg = _experiment_config(args)
    try:
        report = ex.run_protocol(cfg)
    except mf.StratumError as exc:  # name the manifest split, else the config file that sized the corpus
        raise ValueError(f"{cfg.manifest_path or args.config}: {exc}") from None
    files = ex.write_report(report, args.out)
    print(f"protocol {cfg.protocol}: {len(report.rows)} trial rows; wrote {' '.join(files)} to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="camtrap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("synth", help="generate the synthetic corpus")
    p.add_argument("--out", default=_default_out(), help=f"output directory (default ${OUT_ENV} or .)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--image-size", type=int, default=synth.SynthConfig.image_size)
    p.add_argument("--individuals", type=int, default=_CORPUS_DEFAULTS["individuals"], help="individuals per tagged species")
    p.add_argument("--images-per-individual", type=int, default=_CORPUS_DEFAULTS["images_per_individual"])
    p.add_argument("--negatives", type=int, default=synth.SynthConfig.n_negatives, help="images with no animal")
    p.add_argument("--night-fraction", type=float, default=synth.SynthConfig.night_fraction)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("split", help="stratified train/validation split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--fraction", type=_fraction, default=0.7, help="train fraction, in (0,1)")
    p.add_argument("--stratify-by", choices=("species", "individual", "presence"), default="presence")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=_default_out())
    p.set_defaults(fn=_cmd_split)

    p = sub.add_parser("train-detect", help="train the animal/no-animal detector")
    p.add_argument("--manifest", required=True)
    p.add_argument("--images", default=None, help="image root (default: manifest directory)")
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=ex.ExperimentConfig.svm_epochs)
    p.add_argument("--lam", type=float, default=ex.ExperimentConfig.svm_lambda, help="regularization strength")
    _add_net_flags(p)
    p.set_defaults(fn=_cmd_train_detect, protocol="volume")

    for name, fn, protocol, extra in (
        ("train-species", _cmd_train_species, "species", "species-identification head"),
        ("train-individual", _cmd_train_individual, "individual", "individual-recognition head"),
    ):
        p = sub.add_parser(name, help=f"train the {extra}")
        p.add_argument("--manifest", required=True)
        p.add_argument("--images", default=None)
        p.add_argument("--out", required=True, help="head output path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epochs", type=int, default=ex.ExperimentConfig.head_epochs,
                       help="cap: at most this many + 1 loss-and-gradient evaluations (L-BFGS stops at convergence)")
        p.add_argument("--lr", type=float, default=ex.ExperimentConfig.head_lr,
                       help="length of the first step along the negative gradient")
        p.add_argument("--l2", type=float, default=ex.ExperimentConfig.head_l2)
        if name == "train-individual":
            p.add_argument("--species", default=None, help="comma list, e.g. tiger,leopard")
        _add_net_flags(p)
        _add_region_flags(p)
        p.set_defaults(fn=fn, protocol=protocol)

    p = sub.add_parser("segment", help="segment one image with a patch detector")
    p.add_argument("--image", required=True, help="PPM input")
    p.add_argument("--detector", required=True, help="patch-level linear model; none is trained by a subcommand yet")
    p.add_argument("--out", required=True, help="PBM mask output")
    p.add_argument("--patch-size", type=int, default=16)
    p.add_argument("--w", type=float, default=seg.PairwiseParams.w, help="pairwise coupling weight")
    p.add_argument("--theta-pos", type=float, default=seg.PairwiseParams.theta_pos)
    p.add_argument("--theta-color", type=float, default=seg.PairwiseParams.theta_color)
    p.add_argument("--iterations", type=int, default=seg.PairwiseParams.iterations)
    p.add_argument("--tau", type=float, default=0.5, help="foreground threshold")
    p.add_argument("--scale", type=float, default=1.0, help="margin-to-probability scale, > 0")
    _add_net_flags(p)
    p.set_defaults(fn=_cmd_segment)

    p = sub.add_parser("eval", help="score predictions against truth")
    p.add_argument("--pred", required=True, help="CSV id,label[,label2..] (ranked)")
    p.add_argument("--truth", required=True, help="CSV id,label")
    p.add_argument("--k", type=int, default=1, help="also report top-k accuracy when k > 1")
    p.add_argument("--out", default=None, help="directory for metrics.csv and confusion.csv")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("experiment", help="run a scripted protocol")
    p.add_argument("protocol", choices=ex.PROTOCOLS)
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--manifest", default=None, help="use this corpus instead of a synthetic one")
    p.add_argument("--images", default=None)
    p.add_argument("--n-seeds", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="base seed (default: the config's base_seed, else 0)")
    p.add_argument("--jobs", type=int, default=None,
                   help="threads for per-image feature work (default: the config's jobs, else 1); fits stay serial "
                        "and output bytes do not depend on it; keep jobs x BLAS threads <= cores")
    p.add_argument("--out", default=_default_out())
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        for name in ("seed", "net_seed"):  # synth's seed feeds a SHA-256, not a uint64, and takes any int
            if args.subcommand != "synth" and getattr(args, name, None) is not None:
                mf.check_seed(getattr(args, name), "--" + name.replace("_", "-"))
        return args.fn(args)
    except (mf.ManifestError, ValueError, OSError) as exc:
        if isinstance(exc, mf.StratumError) and args.subcommand == "split":
            exc = f"{args.manifest}: {exc}"  # a split names no file; name the manifest it split
        print(f"camtrap {args.subcommand}: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
