"""Command-line surface: analyze / plan / count / finetune / report.

Exit codes: 0 success, 2 usage or config error, 3 numerical failure.
"""

import argparse
import csv
import functools
import io
import json
import os
import shutil
import sys
from itertools import chain

from . import accounting, allocator, container
from .config import from_json, load_run_config, read_json
from .svd import check_shape, energy_score, svd
from .errors import ConfigError, LamdaError, NumericalError
from .train import train


def _write_text(path, text):
    """Write `text` to standard output if `path` is `-`, else in one atomic
    replace of `path`."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with container.atomic_open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)


def _write_json(path, doc):
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path, rows):
    """Write an iterable of rows as CSV. The rows may be lazy: if one fails,
    nothing is written."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _write_text(path, buf.getvalue())


def _parse_list(text, flag, kind=str):
    """The entries of a comma-separated `flag` value, each read by `kind`; an
    empty, repeated or unreadable entry is a ConfigError naming it."""
    entries = text.split(",")
    for i, entry in enumerate(entries):
        if not entry.strip():
            raise ConfigError(f"{flag} entry {i + 1} of {text!r} is empty")
        if entries.index(entry) < i:
            raise ConfigError(f"{flag} names {entry!r} twice")
    try:
        return tuple(map(kind, entries))
    except ValueError as exc:
        raise ConfigError(f"{flag} {text!r}: {exc}") from None


# ----------------------------------------------------------------- analyze


def cmd_analyze(args):
    """Scores from an index of the container, holding one tensor at a time.

    The container's structure, the matrix shapes and the arguments are
    checked before the first SVD. Each matrix is read when its SVD runs and
    dropped after; every other tensor is read and dropped before any output
    is written, so non-finite data anywhere exits 3 with no output."""
    with open(args.weights, "rb") as fh:
        index = container.index_weights_stream(fh)
        if args.modules is not None:
            wanted = _parse_list(args.modules, "--modules")
            for m in wanted:
                if m not in index:
                    raise ConfigError(f"weights file has no tensor named {m!r}")
        else:
            wanted = [name for name, entry in index.items() if len(entry.shape) == 2]
        if not wanted:
            raise ConfigError("no 2-D tensors to analyze")
        ranks = _parse_list(args.ranks, "--ranks", int)
        budget = allocator.RankBudget(ranks=ranks, target=args.target)
        if args.max_rank < 1:
            raise ConfigError(f"--max-rank must be >= 1, got {args.max_rank}")

        names = sorted(wanted)
        for n in names:
            check_shape(n, index[n].shape)
        accounting.module_ranks({n: index[n].shape for n in names}, budget.ranks[-1])
        decompositions = {}
        for n in names:
            try:
                decompositions[n] = svd(container.read_tensor(fh, index[n]), compute_uv=False)
            except LamdaError as exc:  # svd names its one input 'matrix'
                raise type(exc)(str(exc).replace(repr("matrix"), repr(n))) from None
        for name, entry in index.items():
            if name not in decompositions:
                container.read_tensor(fh, entry)

    scores = allocator.score_modules(decompositions, budget)
    _write_json(args.scores_out, {"modules": [vars(m) for m in scores]})

    if args.energy_csv:
        sigmas = {n: dec.sigma for n, dec in decompositions.items()}
        totals = {n: energy_score(sigma, len(sigma)) for n, sigma in sigmas.items()}
        _write_csv(args.energy_csv, chain(
            [["module", "rank", "energy_ratio"]],
            ([n, r, energy_score(sigmas[n], r) / totals[n]]
             for n in names for r in range(1, min(args.max_rank, len(sigmas[n])) + 1))))
    return 0


# -------------------------------------------------------------------- plan


def cmd_plan(args):
    doc = read_json(args.scores, ("modules",))
    scores = from_json(list[allocator.ModuleScore], doc["modules"], f"{args.scores}['modules']")
    budget = from_json(allocator.RankBudget, read_json(args.budget), args.budget)
    plan = allocator.allocate(scores, budget, reverse=args.reverse)
    _write_json(args.out, vars(plan))
    return 0


# ------------------------------------------------------------------- count


def cmd_count(args):
    spec = accounting.load_preset(args.model_preset)
    ranks = 32 if args.rank is None else args.rank
    if args.rank_plan is not None:
        if args.method.lower() != "lamda":
            raise ConfigError(f"--rank-plan needs --method lamda, got {args.method!r}")
        if args.rank is not None:
            raise ConfigError("--rank does nothing with --rank-plan")
        doc = read_json(args.rank_plan, ("ranks",))
        ranks = from_json(dict[str, int], doc["ranks"], f"{args.rank_plan}['ranks']")
    report = accounting.cost_report(spec, args.method, ranks, args.ti)
    _write_json(args.json, vars(report))
    if args.csv:
        _write_csv(args.csv, report.csv_rows())
    return 0


# ---------------------------------------------------------------- finetune


def _write_metrics_csv(path, metrics):
    _write_csv(path, chain(
        [["step", "loss", "live_params", "stored_activation_floats"]],
        ([step, repr(float(loss)), live, retained] for step, loss, live, retained in metrics)))


def cmd_finetune(args):
    # An --out-dir below a file is refused now, not after training.
    existing = os.path.abspath(args.out_dir)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"--out-dir {args.out_dir}: {existing} exists and is not a directory")
    cfg = load_run_config(args.config)
    backbone = container.read_weights(args.backbone) if args.backbone else None
    result = train(cfg, backbone_weights=backbone)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_metrics_csv(os.path.join(args.out_dir, "metrics.csv"), result.metrics)
    tensors, meta = container.checkpoint_from_result(result)
    container.save_checkpoint(os.path.join(args.out_dir, "checkpoint.ldck"), tensors, meta)
    container.write_weights(
        os.path.join(args.out_dir, "backbone.ldwt"), result.model.weights()
    )
    summary = {
        "method": cfg.method,
        "task": cfg.task,
        "steps": cfg.total_steps,
        "final_loss": result.metrics[-1][1],
        "config_hash": cfg.digest(),
    }
    _write_json(os.path.join(args.out_dir, "summary.json"), summary)
    return 0


# ------------------------------------------------------------------ report


def cmd_report(args):
    runs = sorted(
        d for d in os.listdir(args.runs)
        if os.path.isfile(os.path.join(args.runs, d, "metrics.csv"))
    )
    if not runs:
        raise ConfigError(f"no run directories with metrics.csv under {args.runs}")
    series = {}
    for run in runs:
        path = os.path.join(args.runs, run, "metrics.csv")
        try:
            with open(path, encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                fields, rows = reader.fieldnames or (), list(reader)
        except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a field too long
            raise ConfigError(f"{path}: {exc}") from None
        for column in ("step", "loss", "live_params"):
            if column not in fields:
                raise ConfigError(f"{path} has no {column!r} column")
        series[run] = {}
        for r in rows:
            try:
                step = int(r["step"])
            except (TypeError, ValueError):
                raise ConfigError(f"{path}: every step must be an integer") from None
            if None in r or None in r.values():
                raise ConfigError(f"{path}: the row of step {step} does not have "
                                  f"the header's {len(fields)} fields")
            if step in series[run]:
                raise ConfigError(f"{path}: step {step} appears more than once")
            series[run][step] = r
    steps = sorted(set().union(*(s.keys() for s in series.values())))
    columns = ("loss", "live_params")
    missing = dict.fromkeys(columns, "")
    _write_csv(args.out, chain(
        [["step"] + [f"{run}.{c}" for run in runs for c in columns]],
        ([step] + [series[run].get(step, missing)[c] for run in runs for c in columns]
         for step in steps)))
    return 0


# -------------------------------------------------------------------- main


def _analyze_arguments(p):
    p.add_argument("--weights", required=True)
    p.add_argument("--ranks", required=True, help="candidate ranks, e.g. 16,24,32,40,48")
    p.add_argument("--target", required=True, type=int)
    p.add_argument("--modules", help="comma-separated tensor names to restrict to")
    p.add_argument("--scores-out", default="-")
    p.add_argument("--energy-csv")
    p.add_argument("--max-rank", type=int, default=32)
    p.set_defaults(func=cmd_analyze)


def _plan_arguments(p):
    p.add_argument("--scores", required=True)
    p.add_argument("--budget", required=True)
    p.add_argument("--reverse", action="store_true",
                   help="flip the assignment (ablation)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_plan)


def _count_arguments(p):
    p.add_argument("--model-preset", required=True,
                   help=f"one of: {', '.join(accounting.list_presets())}")
    p.add_argument("--method", required=True, help="lora | lamda")
    p.add_argument("--rank", type=int,
                   help="one rank for every module (default 32); not with --rank-plan")
    p.add_argument("--rank-plan", help="plan JSON with per-module ranks")
    p.add_argument("--ti", type=float, default=0.3,
                   help="freeze horizon as a fraction of total iterations")
    p.add_argument("--json", default="-")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_count)


def _finetune_arguments(p):
    p.add_argument("--config", required=True)
    p.add_argument("--backbone", help="weight container with pre-trained backbone")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_finetune)


def _report_arguments(p):
    p.add_argument("--runs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)


# (name, help, argument adder). Each adder looks its handler up when the
# parser is built, so a handler rebound on this module is the one that runs.
COMMANDS = (
    ("analyze", "per-module spectra and candidacy scores", _analyze_arguments),
    ("plan", "quantile rank assignment from scores", _plan_arguments),
    ("count", "analytical cost report for a model preset", _count_arguments),
    ("finetune", "run a training config", _finetune_arguments),
    ("report", "merge run metrics into one CSV", _report_arguments),
)


def build_parser(argv=()):
    """The parser of every command, or of the one `argv[0]` names. The
    usage line lists every command either way."""
    # argparse makes a formatter for every add_argument, and each one asks
    # for the terminal's width unless it is given one. This is the width
    # argparse picks itself: the terminal's columns less a 2-column margin.
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="lamda",
        description="Spectral adapter toolkit: spectrum analysis, rank "
        "planning, cost accounting, and toy-model fine-tuning.",
        formatter_class=formatter,
    )
    invoked = [c for c in COMMANDS if argv and c[0] == argv[0]]
    # The metavar puts every command in the usage line of one command's
    # parser. It is left unset for the full parser, whose missing- and
    # invalid-command errors name the argument `command`.
    metavar = "{" + ",".join(name for name, _, _ in COMMANDS) + "}" if invoked else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, add_arguments in invoked or COMMANDS:
        add_arguments(sub.add_parser(name, help=help_text, formatter_class=formatter))
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    # OSError: a missing or malformed path; MemoryError: a model too large to allocate
    except (LamdaError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
