"""Command-line front end: data generation, training runs, evaluation, the
causal oracle demo, and curve aggregation for plotting.

Configuration is one JSON object mirroring ExperimentConfig (with a nested
"simulation" section); any key can be overridden on the command line with
`--set key=value` using dotted paths, e.g. `--set simulation.eta=2`.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import save_params
from .causal import ToyCausalModel, overestimation_report
from .clicks import PositionBiasCurve
# Unused here; perfbench/tracer.py wraps cli.generate_synthetic (ROADMAP item 1).
from .data import generate_synthetic, parse_svmlight, serialize_svmlight  # noqa: F401
from .ranker import RankerMLP
from .training import (
    ALGORITHMS,
    CURVE_COLUMNS,
    METRIC_COLUMNS,
    PARADIGMS,
    DatasetView,
    ExperimentConfig,
    SplitData,
    evaluate_ranker,
    make_split_data,
    run_experiment,
)


def _given(**flags) -> dict:
    """The flags given; an absent one (None) keeps the called function's default."""
    return {key: value for key, value in flags.items() if value is not None}


def _load_config(path, overrides, **flags) -> ExperimentConfig:
    """The config file's JSON object, with each `--set` value and each given
    flag written into it; ExperimentConfig.from_dict judges the result."""
    raw = {}
    if path is not None:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
    for item in overrides or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--set needs key=value, got {item!r}")
        *sections, name = key.split(".")
        target = raw
        for part in sections:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ValueError(f"{part} must be a JSON object, got {target!r}")
        try:
            target[name] = json.loads(value)
        except json.JSONDecodeError:
            target[name] = value
    raw.update(_given(**flags))
    return ExperimentConfig.from_dict(raw)


def _parse_files(paths):
    """Each SVMlight file, all checked to exist before any is parsed. A refused
    file is named by its path."""
    for p in paths:
        if not p.exists():
            raise ValueError(f"missing data file {p}")
    splits = []
    for p in paths:
        try:
            splits.append(parse_svmlight(p.read_text()))
        except ValueError as exc:
            raise ValueError(f"{p}: {exc}") from None
    return splits


def _pad(ds, width: int) -> None:
    """Widen ``ds`` to ``width`` with zero columns, copying its features only then."""
    if ds.feature_dim < width:
        ds.features = np.pad(ds.features, ((0, 0), (0, 0), (0, width - ds.feature_dim)))


def _load_split(data_dir) -> SplitData:
    """Both splits at one width: an id absent from a split is 0.0 all through it."""
    root = Path(data_dir)
    splits = _parse_files([root / "train.txt", root / "test.txt"])
    width = max(ds.feature_dim for ds in splits)
    for ds in splits:
        _pad(ds, width)
    return SplitData(*splits)


def cmd_gen_data(args) -> int:
    # Both splits first: a size make_split_data refuses leaves no files behind.
    data = make_split_data(**_given(n_train=args.train_queries, n_test=args.test_queries,
                                    docs_per_query=args.docs, feature_dim=args.features,
                                    seed=args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for filename, ds in (("train.txt", data.train), ("test.txt", data.test)):
        (out / filename).write_text(serialize_svmlight(ds))
        print(f"wrote {out / filename} ({ds.n_queries} queries x {ds.lengths[0]} docs)")
    return 0


def _train_one_seed(cfg: ExperimentConfig, data: SplitData, curve, out_dir: str):
    result = run_experiment(cfg, data, curve=curve)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curves_path = out / f"curves_seed{cfg.seed}.csv"
    curves_path.write_text(result.curves_csv())
    model_path = out / f"model_seed{cfg.seed}.npz"
    save_params(model_path, result.ranker.parameters())
    prop_path = out / f"propensity_seed{cfg.seed}.csv"
    prop_path.write_text(result.final_estimate.as_csv())
    return {
        "seed": cfg.seed,
        "curves": curves_path.name,
        "model": model_path.name,
        "propensity": prop_path.name,
        "duration_s": result.duration_s,
        "final_metrics": result.final_metrics,
    }


def _parse_seeds(seeds: str):
    """The run seeds ``--seed`` names: one integer N, or an inclusive range A..B."""
    lo, sep, hi = seeds.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise ValueError(f"--seed wants N or a range like 0..4, got {seeds!r}") from None
    if hi < lo:
        raise ValueError(f"--seed range {seeds!r} is empty; write it low..high")
    return list(range(lo, hi + 1))


def cmd_train(args) -> int:
    started = time.monotonic()
    cfg = _load_config(args.config, args.set, algorithm=args.algorithm, paradigm=args.paradigm)
    seeds = [cfg.seed] if args.seed is None else _parse_seeds(args.seed)
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    configs = [dataclasses.replace(cfg, seed=seed) for seed in seeds]
    data = _load_split(args.data) if args.data else make_split_data()
    curve = PositionBiasCurve.from_file(args.curve) if args.curve else None
    # Each seed makes --out once its run succeeds; refuse now a path it could not make.
    out = Path(args.out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"--out {out}: {existing} is not a directory")

    jobs = [(c, data, curve, str(out)) for c in configs]

    if args.workers > 1 and len(jobs) > 1:
        # Imported here: the pool module loads multiprocessing, socket and logging,
        # which a one-process run never uses.
        from concurrent.futures import ProcessPoolExecutor
        # A pool forks all its workers at the first submit: no more than there are seeds.
        with ProcessPoolExecutor(max_workers=min(args.workers, len(jobs))) as pool:
            entries = list(pool.map(_train_one_seed, *zip(*jobs)))
    else:
        entries = [_train_one_seed(*job) for job in jobs]

    manifest = {
        "artifact_version": __version__,
        "config": dataclasses.asdict(configs[0]),
        "seeds": seeds,
        "data": os.path.relpath(args.data, out) if args.data else "synthetic-default",
        "curve": os.path.relpath(args.curve, out) if args.curve else None,
        "results": {str(e["seed"]): e for e in entries},
        "wall_clock_s": time.monotonic() - started,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {out / 'manifest.json'} ({len(seeds)} seed(s))")
    return 0


def cmd_eval(args) -> int:
    # A --data directory gives only the scored split; the snapshot gives the width.
    if args.data is None:
        source = f"default {args.split} split"
        dataset = getattr(make_split_data(), args.split)
    else:
        source = Path(args.data) / f"{args.split}.txt"
        (dataset,) = _parse_files([source])
    ranker = RankerMLP.from_snapshot(args.model)
    if dataset.feature_dim > ranker.feature_dim:
        raise ValueError(f"{source}: {dataset.feature_dim} features, more than the "
                         f"{ranker.feature_dim} rows of snapshot parameter "
                         f"{ranker.parameters()[0].name!r}")
    _pad(dataset, ranker.feature_dim)
    metrics = evaluate_ranker(ranker, DatasetView(dataset))
    print(json.dumps(metrics, indent=2))
    return 0


def cmd_oracle_demo(args) -> int:
    model = ToyCausalModel.reference(**_given(epsilon=args.epsilon))
    if args.preset == "weak":
        model = model.with_weak_policy()
    report = overestimation_report(model)
    print(report.as_text_table())
    print()
    print(report.as_csv(), end="")
    if args.csv:
        Path(args.csv).write_text(report.as_csv())
        print(f"wrote {args.csv}")
    return 0


def cmd_export_curves(args) -> int:
    run_dir = Path(args.runs)
    manifest_path = run_dir / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        try:
            files = [run_dir / e["curves"] for e in manifest["results"].values()]
        except (AttributeError, KeyError, TypeError):
            raise ValueError(f"{manifest_path}: results must map each seed to an "
                             "object naming its curves file") from None
    else:
        files = sorted(run_dir.glob("curves_seed*.csv"))
    if not files:
        raise ValueError(f"no curve CSVs found under {run_dir}")

    rows = []
    for path in files:
        with open(path) as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in CURVE_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"{path}: header lacks columns {missing}")
            for row in reader:
                if None in row or None in row.values():
                    raise ValueError(f"{path}:{reader.line_num}: row does not match "
                                     f"the {len(reader.fieldnames)}-column header")
                for col, kind in (("step", int), *((c, float) for c in METRIC_COLUMNS)):
                    try:
                        row[col] = kind(row[col])
                    except ValueError as exc:
                        raise ValueError(f"{path}:{reader.line_num}: {col}: {exc}") from None
                rows.append(row)
    if not rows:
        raise ValueError(f"curve CSVs under {run_dir} hold no rows")

    grouped = {}
    for row in rows:
        grouped.setdefault((row["algorithm"], row["step"]), []).append(row)

    out_path = Path(args.out)
    header = ["step", "algorithm", "n_seeds"]
    for col in METRIC_COLUMNS:
        header += [f"mean_{col}", f"std_{col}"]
    lines = [",".join(header)]
    for (algorithm, step) in sorted(grouped, key=lambda k: (k[0], k[1])):
        bucket = grouped[(algorithm, step)]
        cells = [str(step), algorithm, str(len(bucket))]
        for col in METRIC_COLUMNS:
            vals = np.array([r[col] for r in bucket])
            std = vals.std(ddof=1) if vals.size > 1 else 0.0
            cells += [repr(float(vals.mean())), repr(float(std))]
        lines.append(",".join(cells))
    out_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {out_path} ({len(grouped)} step rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultrlab",
        description="Desk-scale unbiased learning-to-rank laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write synthetic SVMlight train/test files")
    p.add_argument("--out", required=True)
    for flag in ("--train-queries", "--test-queries", "--docs", "--features", "--seed"):
        p.add_argument(flag, type=int)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run one experiment over one or more seeds")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (dotted paths allowed)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--data", help="directory from gen-data; default regenerates")
    p.add_argument("--curve", help="file with one examination probability per line")
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--paradigm", choices=PARADIGMS)
    p.add_argument("--seed", help="run seed N, or inclusive range A..B of run seeds; "
                                  "overrides the config's seed")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved ranker snapshot on a split")
    p.add_argument("--model", required=True,
                   help="model npz from train; the layer widths are read from it")
    p.add_argument("--data", help="directory from gen-data; default regenerates")
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle-demo", help="print the exact overestimation report")
    p.add_argument("--preset", choices=["strong", "weak"], default="strong")
    p.add_argument("--epsilon", type=float,
                   help="click noise on examined documents")
    p.add_argument("--csv", help="also write the CSV here")
    p.set_defaults(func=cmd_oracle_demo)

    p = sub.add_parser("export-curves", help="merge per-seed curves to mean/std rows")
    p.add_argument("--runs", required=True, help="train output directory")
    p.add_argument("--out", required=True, help="merged CSV path")
    p.set_defaults(func=cmd_export_curves)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
