"""Command-line interface: sweep, bound, check and gen subcommands.

``sweep`` traces the lower bound, exact concurrence and upper bound of a
two-qubit state family under a pair of amplitude-damping channels and
writes the three curves as CSV.  ``bound`` evaluates the bounds for a
single state/channel combination from JSON files, ``check`` runs the
quantified property suites, and ``gen`` emits well-formed input files.

Logging verbosity follows the ENTBOUND_LOG environment variable
(quiet, info or debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
# unused here, kept: perfbench/test_perfbench.py asserts cli.apply_one_sided is restored
from .channels import KrausChannel, amplitude_damping, apply_one_sided, depolarizing, \
    phase_damping
from .concurrence import evaluate
from .errors import DimensionMismatch, SingularProbe, TrivialDimension
from .probe import ProbeState, canonical_probe, lower_bound_one_sided, lower_bound_two_sided, \
    probe_channels, probe_route, random_probe
from .qlinalg import DensityMatrix, PureState, raise_fault, random_density, random_pure_state
from .serialize import channel_from_json, channel_to_json, dump_json, load_json, \
    probe_from_json, probe_to_json, state_from_json, state_to_json
from .suites import SUITE_NAMES, run_suites

log = logging.getLogger("entbound")

# Bundled two-qubit example: a 4-decimal rounded random mixed state.  Its
# printed trace is 1.0001, so it is normalized once here to satisfy the
# unit-trace invariant.
_EXAMPLE_RAW = np.array([
    [0.4322, 0.2113, 0.1073, 0.3369],
    [0.2113, 0.1845, 0.0406, 0.1798],
    [0.1073, 0.0406, 0.0504, 0.1144],
    [0.3369, 0.1798, 0.1144, 0.3330],
])


def default_base_state() -> DensityMatrix:
    return DensityMatrix((2, 2), _EXAMPLE_RAW / np.trace(_EXAMPLE_RAW))


def default_channels() -> tuple:
    return amplitude_damping(0.2), amplitude_damping(0.3)


@dataclass
class SweepConfig:
    """Inputs of the sweep experiment; defaults reproduce the bundled example."""

    x_grid: np.ndarray
    base_state: DensityMatrix
    channel_1: KrausChannel
    channel_2: KrausChannel
    probe: ProbeState

    def __post_init__(self):
        grid = np.asarray(self.x_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError(f"x_grid must be a nonempty 1-D list, got shape {grid.shape}")
        if not np.all((grid >= 0.0) & (grid <= 1.0)):  # NaN fails both
            raise ValueError("x_grid values must lie in [0, 1]")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("x_grid must be strictly increasing")
        n1, n2 = self.base_state.dims
        dims = (self.channel_1.input_dim, self.channel_2.input_dim, self.probe.dim)
        if n1 != n2 or any(n != n1 for n in dims):
            raise DimensionMismatch(f"a sweep needs an N x N base_state and channels and probe "
                                    f"of dim N, got {self.base_state.dims} and channel_1, "
                                    f"channel_2, probe dims {dims}")
        if n1 < 2:
            raise TrivialDimension("a sweep needs N >= 2: concurrence is identically 0 "
                                   "when N = 1")
        self.x_grid = grid


def default_sweep_config() -> SweepConfig:
    ch1, ch2 = default_channels()
    return SweepConfig(
        x_grid=np.round(np.arange(0, 101) * 0.01, 10),
        base_state=default_base_state(),
        channel_1=ch1,
        channel_2=ch2,
        probe=canonical_probe(2),
    )


def sweep_config_from_json(doc: dict) -> SweepConfig:
    if not isinstance(doc, dict):
        raise ValueError(f"a sweep config must be a JSON object, got {type(doc).__name__}")
    cfg = default_sweep_config()
    base = state_from_json(doc["base_state"]) if "base_state" in doc else cfg.base_state
    if isinstance(base, PureState):
        base = base.density()
    probe = probe_from_json(doc["probe"]) if "probe" in doc else canonical_probe(base.dims[0])
    return SweepConfig(
        x_grid=doc.get("x_grid", cfg.x_grid),
        base_state=base,
        channel_1=channel_from_json(doc["channel_1"]) if "channel_1" in doc else cfg.channel_1,
        channel_2=channel_from_json(doc["channel_2"]) if "channel_2" in doc else cfg.channel_2,
        probe=probe,
    )


@dataclass
class BoundReport:
    """Everything one bound evaluation produced, ready for JSON output."""

    lower_raw: float
    lower: float
    exact: float  # None outside 2x2
    upper: float  # None outside 2x2
    p: float
    p_prime: float
    p_t: float
    method: str

    def to_json(self) -> dict:
        return asdict(self)


def run_sweep(config: SweepConfig, output_path) -> None:
    """Evaluate lower bound, concurrence and upper bound over the x grid; write CSV.

    All grid points form one stack that :func:`entbound.concurrence.evaluate`
    takes through channel_1 and then channel_2; the probe-route lower bound
    applies the two channels rebuilt once from the probe images.  The exact
    (spin-flip) concurrence and the upper bound exist only for 2x2
    bipartitions; for larger states those two columns are left empty.  A
    failed check raises its ArithmeticError or ValueError, naming the first
    x that fails.
    """
    dims, grid = config.base_state.dims, config.x_grid
    d = dims[0] * dims[1]
    x = grid[:, None, None]
    rho = x * config.base_state.matrix + (1.0 - x) * (np.eye(d) / d)
    result = evaluate(rho, dims, ((config.channel_1.superoperator, "first"),
                                  (config.channel_2.superoperator, "second")),
                      config.probe.matrix)
    stages = probe_channels(*result.images, config.probe.inverse, config.probe.condition)
    lower, _, fault = probe_route(rho[:len(result.p)], dims, *stages)
    fault = fault or result.fault  # the probe route saw only the points before result.fault
    if fault is not None:
        k, error = fault
        raise type(error)(f"sweep failed at x={grid[k]}: {error}") from error

    blank = [None] * len(grid)
    exact, upper = (blank if v is None else v for v in (result.exact, result.upper))
    lines = ["x,lower_bound,concurrence,upper_bound,p_total"]
    for row in zip(grid, np.maximum(0.0, lower), exact, upper, result.p):
        lines.append(",".join("" if v is None else f"{v:.12g}" for v in row))
        log.debug("x=%s lower=%s exact=%s upper=%s", *row[:4])

    with open(output_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    log.info("wrote %d rows to %s", len(config.x_grid), output_path)


def _cmd_sweep(args) -> int:
    try:
        if args.config:
            config = sweep_config_from_json(load_json(args.config))
        else:
            config = default_sweep_config()
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: could not build sweep config: {exc}", file=sys.stderr)
        return 2
    try:
        run_sweep(config, args.output)
    except OSError as exc:
        return _unwritable(exc)
    except (ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def evaluate_bound(rho: DensityMatrix, channels, side: str, probe, method: str) -> BoundReport:
    """Compute a full bound report for one or two channels on a state.

    The state goes through :func:`entbound.concurrence.evaluate` as a stack
    of one; ``method="probe"`` takes the lower bound from the probe images
    instead.  ``probe`` may be None with the direct method; probe-derived
    report fields are then left out.  A failed check of the evolved state
    raises its ArithmeticError or ValueError.
    """
    if probe is None and method == "probe":
        raise DimensionMismatch("the probe method needs a square bipartition or a probe file")
    sides = (side,) if len(channels) == 1 else ("first", "second")
    stages = [(channel.superoperator, s) for channel, s in zip(channels, sides, strict=True)]
    result = evaluate(rho.matrix[None], rho.dims, stages, None if probe is None else probe.matrix)
    raise_fault(result.fault)
    if method == "probe":
        images = [DensityMatrix((probe.dim,) * 2, image) for image in result.images]
        lower = (lower_bound_one_sided(rho, images[0], probe, side) if len(channels) == 1 else
                 lower_bound_two_sided(rho, *images, probe)).raw
    else:
        lower = float(result.lower[0])
    exact, upper, p_prime, p_t = (None if v is None else float(v[0]) for v in
                                  (result.exact, result.upper, result.p_prime, result.p_t))
    return BoundReport(lower, max(0.0, lower), exact, upper, float(result.p[0]), p_prime, p_t,
                       method)


def _cmd_bound(args) -> int:
    if len(args.channels) > 2 or (len(args.channels) == 2 and args.side is not None):
        print(f"error: bound takes one channel file, with an optional --side, or two without "
              f"--side; got {len(args.channels)} and --side {args.side}", file=sys.stderr)
        return 2
    try:
        state = state_from_json(load_json(args.state))
        channels = tuple(channel_from_json(load_json(path)) for path in args.channels)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: could not parse inputs: {exc}", file=sys.stderr)
        return 2
    if isinstance(state, PureState):
        state = state.density()
    try:
        if args.probe_path:
            probe = probe_from_json(load_json(args.probe_path))
        elif state.dims[0] == state.dims[1]:
            probe = canonical_probe(state.dims[0])
        else:
            probe = None  # non-square bipartition: direct method only
    except SingularProbe as exc:
        print(f"error: singular probe: {exc}", file=sys.stderr)
        return 5
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: could not parse probe: {exc}", file=sys.stderr)
        return 2
    try:
        report = evaluate_bound(state, channels, args.side or "first", probe, args.method)
    except SingularProbe as exc:
        print(f"error: singular probe: {exc}", file=sys.stderr)
        return 5
    except (DimensionMismatch, TrivialDimension) as exc:
        print(f"error: dimension mismatch: {exc}", file=sys.stderr)
        return 4
    except (ArithmeticError, ValueError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report.to_json(), indent=2))
    return 0


def _cmd_check(args) -> int:
    try:
        results = run_suites(args.suite, seed=args.seed, trials=args.trials)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    all_passed = True
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{res.name}: {status} trials={res.trials} failures={res.failures} "
                     f"worst_residual={res.worst_residual:.3e} wall_s={res.wall_s:.3f}")
        all_passed = all_passed and res.passed
    report_text = "\n".join(lines) + "\n"
    print(report_text, end="")
    try:
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report_text)
        if not all_passed:
            first_failure = next(r for r in results if not r.passed)
            base = args.report if args.report else f"entbound-{first_failure.name}"
            repro_path = f"{base}.repro.json"
            dump_json({"seed": args.seed, "trials": args.trials,
                       "failure": first_failure.repro}, repro_path)
            print(f"reproduction bundle written to {repro_path}", file=sys.stderr)
            return 1
    except OSError as exc:
        return _unwritable(exc)
    return 0


def _cmd_gen(args) -> int:
    try:
        if args.kind == "state":
            dims = (args.dims[0], args.dims[1])
            if args.rank is None:
                doc = state_to_json(random_pure_state(dims, args.seed))
            else:
                doc = state_to_json(random_density(dims, args.rank, args.seed))
        elif args.kind == "channel":
            if args.family == "amplitude-damping":
                channel = amplitude_damping(_require(args.gamma, "--gamma"))
            elif args.family == "depolarizing":
                channel = depolarizing(_require(args.prob, "--prob"))
            elif args.family == "phase-damping":
                channel = phase_damping(_require(args.lam, "--lam"))
            else:
                raise ValueError(f"unknown channel family {args.family!r}")
            doc = channel_to_json(channel)
        else:
            doc = probe_to_json(random_probe(args.dim, args.seed))
    except (ValueError, TypeError) as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return 2
    try:
        dump_json(doc, args.output)
    except OSError as exc:
        return _unwritable(exc)
    return 0


def _unwritable(exc: OSError) -> int:
    print(f"error: could not write: {exc}", file=sys.stderr)
    return 2


def _require(value, flag):
    if value is None:
        raise ValueError(f"{flag} is required for this family")
    return value


def _positive_int(text) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _setup_logging():
    level_name = os.environ.get("ENTBOUND_LOG", "quiet").lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level_name, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entbound",
        description="Concurrence bounds for bipartite states under Kraus channels.")
    parser.add_argument("--version", action="version", version=f"entbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="trace bound curves over the x in [0,1] family")
    p_sweep.add_argument("--config", help="JSON sweep configuration file")
    p_sweep.add_argument("--output", required=True, help="CSV output path")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_bound = sub.add_parser("bound", help="evaluate bounds for one state and channel(s)")
    p_bound.add_argument("state", help="state JSON file")
    p_bound.add_argument("channels", nargs="+", help="one or two channel JSON files")
    p_bound.add_argument("--side", choices=("first", "second"),
                         help="subsystem a single channel acts on (default: first)")
    p_bound.add_argument("--probe-path", help="probe JSON file (default: canonical MES)")
    p_bound.add_argument("--method", choices=("direct", "probe"), default="direct")
    p_bound.set_defaults(fn=_cmd_bound)

    p_check = sub.add_parser("check", help="run quantified property suites")
    p_check.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=_positive_int, default=None)
    p_check.add_argument("--report", help="also write the report text to this path")
    p_check.set_defaults(fn=_cmd_check)

    p_gen = sub.add_parser("gen", help="generate input JSON files")
    p_gen.add_argument("kind", choices=("state", "channel", "probe"))
    p_gen.add_argument("output", help="output JSON path")
    p_gen.add_argument("--dims", type=int, nargs=2, default=(2, 2), metavar=("N1", "N2"))
    p_gen.add_argument("--rank", type=int, default=None,
                       help="density-matrix rank; omit for a pure state")
    p_gen.add_argument("--family", default="amplitude-damping",
                       choices=("amplitude-damping", "depolarizing", "phase-damping"))
    p_gen.add_argument("--gamma", type=float, default=None)
    p_gen.add_argument("--prob", type=float, default=None)
    p_gen.add_argument("--lam", type=float, default=None)
    p_gen.add_argument("--dim", type=_positive_int, default=2, help="probe dimension")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(fn=_cmd_gen)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
