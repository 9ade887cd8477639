"""Command-line entry point.

Four subcommands: ``asym`` (closed-form limit report), ``mc`` (Monte-Carlo
run), ``table1`` (condition-number table) and ``sweep`` (closed-form ridge
quantities over a pole-parameter grid).  Every command is a pure function
of (config file, overrides, seed): rerunning with the same inputs produces
byte-identical artifacts regardless of the thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import traceback
import warnings
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, asymptotics
from .asymptotics import asymptotic_report, ridge_report, sigma_matrix
from .errors import ConfigError, FirasymError, NonFiniteError, SingularHessianWarning
from .estimators import KernelSpec, OptimizerOptions
from .montecarlo import (
    _SYSTEM_TAG,
    ExperimentConfig,
    aggregates_json_dict,
    run_experiment,
    table1,
    write_header,
    write_records_csv,
)
from .signals import (
    FilterSpec,
    NoiseSpec,
    SecondOrderAR,
    derive_stream,
    generate_t1,
    generate_t2,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# ------------------------------------------------------------ config plumbing


def _load_config(args) -> tuple[_Config, int]:
    """The config with its overrides applied, and the seed: ``--seed`` if
    given, else the config's ``seed`` (default 0), which is read either way."""
    try:
        with open(args.config) as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _apply_overrides(_Config(cfg), args.override)
    seed = _field(cfg, "seed", int, required=False, default=0)
    return cfg, seed if args.seed is None else args.seed


class _Config(dict):
    """A config root that remembers the key paths that ``_field`` found in it."""

    def __init__(self, cfg: dict):
        super().__init__(cfg)
        self.read: set[tuple[str, ...]] = set()

    def refuse_unread(self, node: dict | None = None, path=()) -> None:
        """Exit 2 on the first unread key; objects are walked, lists are leaves."""
        for key, value in (self if node is None else node).items():
            here = (*path, key)
            if here in self.read:
                continue
            if not isinstance(value, dict):
                raise ConfigError(f"field {'.'.join(here)}: not read by this command")
            self.refuse_unread(value, here)


def _apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply ``key=value`` overrides with dotted paths; values parse as JSON
    when possible and fall back to raw strings."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a non-object")
        node[parts[-1]] = value
    return cfg


def _field(cfg: _Config, path: str, expected, required: bool = True, default=None):
    """The value at dotted ``path``, type-checked as ``expected``; once found,
    it counts as read."""
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"missing field: {path}")
            return default
        node = node[part]
    cfg.read.add(tuple(path.split(".")))
    if isinstance(node, bool):  # JSON true/false would pass as the int 1/0
        raise ConfigError(f"field {path}: expected {expected.__name__}")
    if expected is float and isinstance(node, int):
        node = float(node)
    if expected is int and isinstance(node, float) and node.is_integer():
        node = int(node)
    if not isinstance(node, expected):
        raise ConfigError(f"field {path}: expected {expected.__name__}")
    if expected is float and not math.isfinite(node):  # json reads NaN and Infinity
        raise ConfigError(f"field {path}: expected a finite number")
    return node


def _is_finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _finite_list(cfg: dict, path: str) -> np.ndarray:
    """A non-empty flat list of finite numbers, as a float array."""
    values = _field(cfg, path, list)
    if not values or not all(_is_finite_number(x) for x in values):
        raise ConfigError(f"field {path}: expected a flat list of finite numbers")
    return np.array(values, dtype=float)


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _header(cfg: dict, seed: int) -> dict:
    return {"config_sha256": _config_hash(cfg), "seed": seed, "version": __version__}


def _float_rows(rows, level: int) -> list[str] | None:
    """The json texts of the rows, nested ``level`` deep, of ``rows`` (a
    non-empty sequence) if it is a rectangular table of non-empty lists of
    finite floats; None otherwise.  Each distinct 64-bit pattern is formatted
    once (the report matrices are symmetric, so about half of their entries
    repeat); keying on the bits keeps 0.0 and -0.0 apart."""
    if not all(type(row) is list for row in rows):
        return None
    width = len(rows[0])
    if not width or any(len(row) != width for row in rows):
        return None
    if set(map(type, itertools.chain.from_iterable(rows))) != {float}:
        return None
    values = np.array(rows, dtype=np.float64)
    if not np.isfinite(values).all():
        return None
    patterns, where = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    texts = list(map(float.__repr__, patterns.view(np.float64).tolist()))
    flat = [texts[i] for i in where.tolist()]
    cell = ",\n" + "  " * (level + 1)
    close = "\n" + "  " * level + "]"
    return [
        "[" + cell[1:] + cell.join(flat[i : i + width]) + close
        for i in range(0, len(flat), width)
    ]


def _json_text(obj, level: int = 0) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for ``obj`` nested
    ``level`` deep; dict keys must be str.  json's indenting encoder is pure
    Python; this one formats the float matrices of a report in bulk."""
    if type(obj) is float and math.isfinite(obj):
        return float.__repr__(obj)
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    if isinstance(obj, dict):
        brackets = "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(value, level + 1)
            for key, value in sorted(obj.items())
        ]
    else:
        brackets = "[]"
        items = _float_rows(obj, level + 1) or [_json_text(x, level + 1) for x in obj]
    inner = "\n" + "  " * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * level + brackets[1]


def _dump_json(path: str, payload: dict) -> None:
    """Write ``payload`` byte for byte as ``json.dump(payload, handle,
    sort_keys=True, indent=2)`` followed by a newline would."""
    with open(path, "w") as handle:
        handle.write(_json_text(payload) + "\n")


def _build(make, block: str = ""):
    """``make()``; a library ValueError exits 2, its path led by ``block``."""
    try:
        return make()
    except ValueError as exc:
        raise ConfigError(f"field {block + ': ' if block else ''}{exc}") from None


def _kernel_from_config(cfg: _Config) -> KernelSpec:
    family = _field(cfg, "kernel.family", str)
    omega = _field(cfg, "kernel.omega", list, required=False)
    return _build(lambda: KernelSpec(family, omega or None), "kernel")


def _noise_from_config(cfg: _Config) -> NoiseSpec:
    sigma2 = _field(cfg, "noise.sigma2", float)
    fourth = _field(cfg, "noise.fourth_moment", float, required=False)
    return _build(lambda: NoiseSpec(sigma2=sigma2, fourth_moment=fourth), "noise")


def _filter_from_config(cfg: _Config) -> FilterSpec:
    a = _field(cfg, "filter.a", float)
    cu2 = _field(cfg, "filter.cu2", float)
    kurt = _field(cfg, "filter.kurtosis_ratio", float, required=False, default=3.0)
    return _build(lambda: FilterSpec(SecondOrderAR(a, math.sqrt(cu2)), kurt), "filter")


def _theta0_from_config(cfg: _Config, seed: int) -> np.ndarray:
    if "theta0" in cfg:
        theta0 = _finite_list(cfg, "theta0")
        if not theta0.any():  # eta_star is 0, or its Hessian singular
            raise ConfigError("field theta0: expected a nonzero vector")
        return theta0
    kind = _field(cfg, "system.type", str)
    n = _field(cfg, "system.n", int)
    if n < 1:
        raise ConfigError("field system.n: expected >= 1")
    rng = derive_stream(seed, _SYSTEM_TAG, 0)
    if kind == "T1":
        return generate_t1(n, rng).theta0
    if kind == "T2":
        return generate_t2(n, rng).theta0
    raise ConfigError("field system.type: expected T1 or T2")


def _optimizer_from_config(cfg: _Config) -> OptimizerOptions:
    starts = _field(cfg, "optimizer.starts", int, required=False, default=3)
    return _build(lambda: OptimizerOptions(starts=starts))


def _filters_from_config(cfg: _Config) -> list[tuple[float, float]]:
    pairs = _field(cfg, "filters", list)
    for i, pair in enumerate(pairs):
        numbers = isinstance(pair, list) and all(_is_finite_number(x) for x in pair)
        if not numbers or len(pair) != 2:
            raise ConfigError(f"field filters[{i}]: expected finite [a, cu2]")
    return [tuple(pair) for pair in pairs]


# ----------------------------------------------------------------- commands


def cmd_asym(args) -> int:
    cfg, seed = _load_config(args)
    kernel = _kernel_from_config(cfg)
    noise = _noise_from_config(cfg)
    filt = _filter_from_config(cfg)
    theta0 = _theta0_from_config(cfg, seed)
    n_samples = _field(cfg, "N", int)
    if n_samples <= theta0.size:
        raise ConfigError(f"field N: expected >= {theta0.size + 1}")
    opts = _optimizer_from_config(cfg)
    cfg.refuse_unread()
    report = asymptotic_report(kernel, theta0, filt, noise, n_samples, opts)
    doc = report.to_json_dict()
    out_path = os.path.join(args.out, "asym_report.json")
    _dump_json(out_path, {"header": _header(cfg, seed), "report": doc})
    print(f"cond(Sigma) = {doc['cond_sigma']:.6g}")
    print(f"Tr V_b_h    = {doc['trace_v_b_h']:.6g}")
    print(
        "AMSE 1/2/3  = "
        f"{doc['amse'][0]:.6g} / {doc['amse'][1]:.6g} / {doc['amse'][2]:.6g}"
    )
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_mc(args) -> int:
    cfg, seed = _load_config(args)
    kind = _field(cfg, "system.type", str)
    config = _build(
        lambda: ExperimentConfig(
            kernel=_kernel_from_config(cfg),
            system_type=kind,
            n=_field(cfg, "n", int),
            n_samples=_field(cfg, "N", int),
            filters=_filters_from_config(cfg),
            noise=_noise_from_config(cfg),
            records=_field(cfg, "records", int),
            systems=_field(cfg, "system.count", int, required=False, default=1),
            master_seed=seed,
            theta0=_finite_list(cfg, "system.theta0") if kind == "explicit" else None,
            optimizer=_optimizer_from_config(cfg),
        )
    )
    cfg.refuse_unread()
    outcome = run_experiment(config, threads=args.threads)
    header = _header(cfg, seed)
    csv_path = os.path.join(args.out, "records.csv")
    json_path = os.path.join(args.out, "aggregates.json")
    write_records_csv(csv_path, outcome.records, config.kernel.p, header)
    _dump_json(json_path, {"header": header, **aggregates_json_dict(outcome)})
    print(f"records   : {len(outcome.records)}")
    print(f"excluded  : {len(outcome.failures)}")
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK if not outcome.failures else EXIT_NUMERICAL


def cmd_table1(args) -> int:
    rows = table1(args.a, args.n, args.N, args.records, args.seed)
    flag_cfg = {
        "a": args.a,
        "n": args.n,
        "N": args.N,
        "records": args.records,
        "command": "table1",
    }
    header = _header(flag_cfg, args.seed)
    out_path = os.path.join(args.out, "table1.csv")
    with open(out_path, "w") as handle:
        write_header(handle, header)
        handle.write("a,cond_sigma,mean_cond_phitphi\n")
        for row in rows:
            handle.write(
                f"{row['a']!r},{row['cond_sigma']!r},{row['mean_cond_phitphi']!r}\n"
            )
    print("a              " + "".join(f"{row['a']:>12g}" for row in rows))
    print(
        "cond(Phi'Phi)  "
        + "".join(f"{row['mean_cond_phitphi']:>12.3g}" for row in rows)
    )
    print("cond(Sigma)    " + "".join(f"{row['cond_sigma']:>12.3g}" for row in rows))
    print(f"wrote {out_path}")
    return EXIT_OK


def _first_decrease(values: list[float]) -> int:
    """1-based index of the first step that does not increase (a decrease or
    a tie), or len(values) if none."""
    for i in range(len(values) - 1):
        if values[i + 1] - values[i] <= 0.0:
            return i + 1
    return len(values)


# the columns of sweep.csv after n_samples, a and cu2
_SWEEP_COLUMNS = ("cond_sigma", "e_b_ar_sq_norm", "trace_v_als", "trace_v_b_ar")


def cmd_sweep(args) -> int:
    rng = derive_stream(args.seed, _SYSTEM_TAG, 0)
    theta0 = generate_t1(args.n, rng).theta0
    noise = NoiseSpec(sigma2=args.sigma2)
    grid = [args.a_max * (i + 1) / args.grid_points for i in range(args.grid_points)]
    flag_cfg = {
        "a_max": args.a_max,
        "grid_points": args.grid_points,
        "n": args.n,
        "N": args.N,
        "sigma2": args.sigma2,
        "command": "sweep",
    }
    header = _header(flag_cfg, args.seed)
    out_path = os.path.join(args.out, "sweep.csv")
    # the rows run over a within N; each pole's statistics and report blocks
    # serve every N
    summaries = [
        (n_samples, [], {"cond": [], "bias": [], "v_als": [], "v_ar": []})
        for n_samples in args.N
    ]
    for a in grid:
        unit = FilterSpec(kind=SecondOrderAR(a=a, c_u=1.0))
        lam_max = float(np.linalg.eigvalsh(sigma_matrix(unit, args.n))[-1])
        cu2 = 1.0 / lam_max  # scales Sigma to have largest eigenvalue 1
        filt = FilterSpec(kind=SecondOrderAR(a=a, c_u=math.sqrt(cu2)))
        # through the module attribute, which perfbench's tracer wraps to
        # count the statistics built per pole
        stats = asymptotics.second_order_stats(filt, args.n)
        blocks = ridge_report(theta0, filt, noise, args.N[0], stats)
        for n_samples, rows, cols in summaries:
            report = dataclasses.replace(blocks, n_samples=n_samples)
            doc = report.summary()
            values = [report.cond_sigma] + [doc[name] for name in _SWEEP_COLUMNS[1:]]
            # checked before the file opens, so a failed sweep writes nothing
            for name, col, value in zip(_SWEEP_COLUMNS, cols.values(), values):
                if not math.isfinite(value):
                    raise NonFiniteError(f"{name} is {value} at a = {a!r}, N = {n_samples}")
                col.append(value)
            rows.append(f"{n_samples},{a!r},{cu2!r}," + ",".join(map(repr, values)) + "\n")
    with open(out_path, "w") as handle:
        write_header(handle, header)
        handle.write(",".join(["n_samples", "a", "cu2", *_SWEEP_COLUMNS]) + "\n")
        for _, rows, _ in summaries:
            handle.writelines(rows)
    for n_samples, _, cols in summaries:
        print(
            f"N={n_samples}: "
            f"cond nondecreasing={cols['cond'] == sorted(cols['cond'])}, "
            f"bias^2 nondecreasing={cols['bias'] == sorted(cols['bias'])}, "
            f"TrV_als nondecreasing={cols['v_als'] == sorted(cols['v_als'])}, "
            f"TrV_ar first decrease at {_first_decrease(cols['v_ar'])}"
            f"/{len(cols['v_ar'])}"
        )
    print(f"wrote {out_path}")
    return EXIT_OK


# --------------------------------------------------------------------- main


def _checked(kind, accept, rule: str):
    """argparse type: a ``kind`` value that satisfies ``accept``.  argparse
    names the flag of a rejected value and exits with code 2."""

    def parse(value: str):
        try:
            x = kind(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {value!r}")
        if not accept(x):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return x

    return parse


_POLE = _checked(float, lambda x: 0.0 <= x < 1.0, "in [0, 1)")
_COUNT = _checked(int, lambda x: x >= 1, ">= 1")
_VARIANCE = _checked(
    float, lambda x: 0.0 < x and x * x * x < math.inf, "positive with a finite cube"
)


def _parse_threads(value: str) -> int:
    return (os.cpu_count() or 1) if value == "auto" else _COUNT(value)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing keeps no state in it
    (``append`` copies its default list before appending)."""
    parser = argparse.ArgumentParser(
        prog="firasym",
        description="Regularized FIR identification: limit reports and Monte-Carlo runs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config: bool):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config file")
            p.add_argument(
                "--override",
                action="append",
                default=[],
                metavar="K=V",
                help="override a config field (dotted path), repeatable",
            )
        seed = None if needs_config else 0  # asym and mc fall back to the config's
        p.add_argument("--seed", type=int, default=seed, help="master seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--strict",
            action="store_true",
            help="escalate numerical warnings to exit code 3",
        )

    p_asym = sub.add_parser("asym", help="write a closed-form limit report")
    common(p_asym, needs_config=True)
    p_asym.set_defaults(func=cmd_asym)

    p_mc = sub.add_parser("mc", help="run a Monte-Carlo experiment")
    common(p_mc, needs_config=True)
    p_mc.add_argument(
        "--threads", type=_parse_threads, default=1, help="'auto' or a worker count"
    )
    p_mc.set_defaults(func=cmd_mc)

    p_t1 = sub.add_parser("table1", help="condition numbers of Sigma and Phi'Phi")
    common(p_t1, needs_config=False)
    p_t1.add_argument("--a", type=_POLE, nargs="+", default=[0.05, 0.7, 0.95])
    p_t1.add_argument("--n", type=_COUNT, default=20)
    p_t1.add_argument("--N", type=int, default=1000)
    p_t1.add_argument("--records", type=_COUNT, default=500)
    p_t1.set_defaults(func=cmd_table1)

    p_sw = sub.add_parser("sweep", help="ridge limit quantities over a pole grid")
    common(p_sw, needs_config=False)
    p_sw.add_argument("--grid-points", type=_COUNT, default=100)
    p_sw.add_argument("--a-max", type=_POLE, default=0.99)
    p_sw.add_argument("--n", type=_COUNT, default=20)
    p_sw.add_argument("--N", type=int, nargs="+", default=[1000, 100000])
    p_sw.add_argument("--sigma2", type=_VARIANCE, default=1.0)
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("table1", "sweep") and min(np.atleast_1d(args.N)) <= args.n:
        parser.error(f"argument --N: must exceed --n ({args.n})")
    os.makedirs(args.out, exist_ok=True)
    # --strict escalates the package's numerical warnings and numpy's
    # floating-point errors (underflow stays silent: it is routine in kernels)
    strict_fp = "raise" if args.strict else "warn"
    try:
        with warnings.catch_warnings(), np.errstate(
            divide=strict_fp, over=strict_fp, invalid=strict_fp
        ):
            if args.strict:
                warnings.simplefilter("error", SingularHessianWarning)
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:
        # Python's float ** raises it with an errno tuple as its message
        where = traceback.extract_tb(exc.__traceback__)[-1].name
        print(f"numerical failure: float overflow in {where}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (
        FirasymError,
        SingularHessianWarning,
        FloatingPointError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
