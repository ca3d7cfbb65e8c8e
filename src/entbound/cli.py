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
from .concurrence import evaluate, fidelity_lower_bounds
from .errors import DimensionMismatch, SingularProbe, TrivialDimension
from .probe import ProbeState, canonical_probe, lower_bound_one_sided, lower_bound_two_sided, \
    probe_route, random_probe
from .qlinalg import DensityMatrix, PureState, raise_fault, random_density, random_pure_state
from .serialize import channel_from_json, channel_to_json, dump_json, json_numbers, \
    load_json, probe_from_json, probe_to_json, state_from_json, state_to_json
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
    return sweep_config_from_json({})


def sweep_config_from_json(doc: dict) -> SweepConfig:
    """The sweep config of a JSON object; a key it leaves out takes the bundled example's
    value: x = 0, 0.01, ..., 1, amplitude damping 0.2 and 0.3, the canonical probe."""
    if not isinstance(doc, dict):
        raise ValueError(f"a sweep config must be a JSON object, got {type(doc).__name__}")
    base = state_from_json(doc["base_state"]) if "base_state" in doc else default_base_state()
    if isinstance(base, PureState):
        base = base.density()
    probe = probe_from_json(doc["probe"]) if "probe" in doc else canonical_probe(base.dims[0])
    channel_1, channel_2 = (channel_from_json(doc[key]) if key in doc else amplitude_damping(gamma)
                            for key, gamma in (("channel_1", 0.2), ("channel_2", 0.3)))
    grid = json_numbers(doc.get("x_grid", np.round(np.arange(0, 101) * 0.01, 10)), "x_grid")
    return SweepConfig(grid, base, channel_1, channel_2, probe)


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
    failed check of the core raises its ArithmeticError or ValueError, naming
    the first x that fails; a rebuilt stage of the probe route raises its
    ZeroProbability as is.
    """
    dims, grid = config.base_state.dims, config.x_grid
    d = dims[0] * dims[1]
    x = grid[:, None, None]
    rho = x * config.base_state.matrix + (1.0 - x) * (np.eye(d) / d)
    result = evaluate(rho, dims, ((config.channel_1.superoperator, "first"),
                                  (config.channel_2.superoperator, "second")),
                      config.probe.matrix)
    if result.fault is not None:
        k, error = result.fault
        raise type(error)(f"sweep failed at x={grid[k]}: {error}") from error
    lower = probe_route(rho, dims, result.images, config.probe.matrix)

    columns = [grid, np.maximum(0.0, lower), result.exact, result.upper, result.p]
    line = ",".join("" if c is None else "%.12g" for c in columns) + "\n"
    values = np.column_stack([c for c in columns if c is not None]).ravel().tolist()
    text = ("x,lower_bound,concurrence,upper_bound,p_total\n" + line * len(grid)) % tuple(values)
    if log.isEnabledFor(logging.DEBUG):
        blank = [None] * len(grid)
        for row in zip(*(blank if c is None else c for c in columns[:4])):
            log.debug("x=%s lower=%s exact=%s upper=%s", *row)

    with open(output_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    log.info("wrote %d rows to %s", len(config.x_grid), output_path)


def _cmd_sweep(args) -> int:
    config = _read("could not build sweep config", lambda: sweep_config_from_json(
        load_json(args.config)) if args.config else default_sweep_config())
    run_sweep(config, args.output)
    return 0


def evaluate_bound(rho: DensityMatrix, channels, side: str, probe, method: str) -> BoundReport:
    """Compute a full bound report for one or two channels on a state.

    The state goes through :func:`entbound.concurrence.evaluate` as a stack
    of one; ``method="probe"`` takes the lower bound from the probe images
    instead.  ``probe`` may be None with the direct method; probe-derived
    report fields are then left out.  A ``method`` other than "direct" and
    "probe" raises ValueError.  A failed check of the evolved state raises
    its ArithmeticError or ValueError.
    """
    if method not in ("direct", "probe"):
        raise ValueError(f"method must be 'direct' or 'probe', got {method!r}")
    if probe is None and method == "probe":
        raise DimensionMismatch("the probe method needs a square bipartition or a probe file")
    sides = (side,) if len(channels) == 1 else ("first", "second")
    stages = [(channel.superoperator, s) for channel, s in zip(channels, sides, strict=True)]
    result = evaluate(rho.matrix[None], rho.dims, stages, None if probe is None else probe.matrix)
    raise_fault(result.fault)
    if method == "probe":
        images = [DensityMatrix((probe.dim,) * 2, image[0]) for image, _ in result.images]
        lower = (lower_bound_one_sided(rho, images[0], probe, side) if len(channels) == 1 else
                 lower_bound_two_sided(rho, *images, probe)).raw
    else:
        lower = float(fidelity_lower_bounds(result.states, rho.dims)[0])
    exact, upper, p_prime, p_t = (None if v is None else float(v[0]) for v in
                                  (result.exact, result.upper, result.p_prime, result.p_t))
    return BoundReport(lower, max(0.0, lower), exact, upper, float(result.p[0]), p_prime, p_t,
                       method)


def _cmd_bound(args) -> int:
    if len(args.channels) > 2 or (len(args.channels) == 2 and args.side is not None):
        raise _BadInput(f"bound takes one channel file, with an optional --side, or two without "
                        f"--side; got {len(args.channels)} and --side {args.side}")
    state, channels = _read("could not parse inputs", lambda: (
        state_from_json(load_json(args.state)),
        tuple(channel_from_json(load_json(path)) for path in args.channels)))
    if isinstance(state, PureState):
        state = state.density()
    if args.probe_path:
        probe = _read("could not parse probe", lambda: probe_from_json(load_json(args.probe_path)),
                      keep=SingularProbe)
    else:  # the canonical MES; a non-square bipartition has none and takes the direct method
        probe = canonical_probe(state.dims[0]) if state.dims[0] == state.dims[1] else None
    report = evaluate_bound(state, channels, args.side or "first", probe, args.method)
    print(json.dumps(report.to_json(), indent=2))
    return 0


def _cmd_check(args) -> int:
    results = run_suites(args.suite, seed=args.seed, trials=args.trials)
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{res.name}: {status} trials={res.trials} failures={res.failures} "
                     f"worst_residual={res.worst_residual:.3e} wall_s={res.wall_s:.3f}")
    report_text = "\n".join(lines) + "\n"
    print(report_text, end="")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report_text)
    first_failure = next((r for r in results if not r.passed), None)
    if first_failure is not None:
        base = args.report if args.report else f"entbound-{first_failure.name}"
        repro_path = f"{base}.repro.json"
        dump_json({"seed": args.seed, "trials": args.trials,
                   "failure": first_failure.repro}, repro_path)
        print(f"reproduction bundle written to {repro_path}", file=sys.stderr)
        return 1
    return 0


_FAMILIES = {"amplitude-damping": (amplitude_damping, "gamma"),
             "depolarizing": (depolarizing, "prob"),
             "phase-damping": (phase_damping, "lam")}


def _cmd_gen(args) -> int:
    dump_json(_read("invalid parameters", lambda: _gen_doc(args)), args.output)
    return 0


# The options each kind of gen reads; a channel also reads its family's parameter.
# An option given explicitly that the kind or family ignores is rejected.
_GEN_OPTIONS = {"state": ("dims", "rank", "seed"), "probe": ("dim", "seed"),
                "channel": ("family",)}
_GEN_ALL = ("dims", "rank", "family", "gamma", "prob", "lam", "dim", "seed")


def _gen_doc(args) -> dict:
    command, used = f"gen {args.kind}", _GEN_OPTIONS[args.kind]
    if args.kind == "channel":
        name = args.family or "amplitude-damping"
        family, option = _FAMILIES[name]
        command, used = f"{command} --family {name}", used + (option,)
    unused = [opt for opt in _GEN_ALL if opt not in used and getattr(args, opt) is not None]
    if unused:
        raise ValueError(f"{command} does not use --{unused[0]}")
    seed = args.seed or 0
    if args.kind == "state":
        dims = tuple(args.dims or (2, 2))
        return state_to_json(random_pure_state(dims, seed) if args.rank is None else
                             random_density(dims, args.rank, seed))
    if args.kind == "probe":
        return probe_to_json(random_probe(args.dim or 2, seed))
    value = getattr(args, option)
    if value is None:
        raise ValueError(f"--{option} is required for this family")
    return channel_to_json(family(value))


class _BadInput(Exception):
    """An input a command cannot use; the message names the step that read it."""


def _read(prefix: str, build, keep=()):
    """Return ``build()``, turning a malformed-input error into a _BadInput (exit 2)
    under ``prefix``; errors of the types in ``keep`` go to the exit-code table."""
    try:
        return build()
    except keep:
        raise
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise _BadInput(f"{prefix}: {exc}") from exc


def _int_at_least(low, high=None):
    """An argparse type: an int of at least ``low`` (and at most ``high`` if given), else
    exit 2 naming the option."""
    def integer(text) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return integer


# No suite holds more than 1 MiB per trial in one array (probe-invariance, the largest,
# holds about 160 KiB per trial in all its arrays together), so up to this count every
# shape a suite asks for is one NumPy can address: a count too large for the machine
# raises MemoryError (exit 2) rather than NumPy's "array is too big" ValueError.
_MAX_TRIALS = np.iinfo(np.intp).max >> 20


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
    p_check.add_argument("--seed", type=_int_at_least(0), default=0)
    p_check.add_argument("--trials", type=_int_at_least(1, _MAX_TRIALS), default=None)
    p_check.add_argument("--report", help="also write the report text to this path")
    p_check.set_defaults(fn=_cmd_check)

    p_gen = sub.add_parser("gen", help="generate input JSON files")
    p_gen.add_argument("kind", choices=("state", "channel", "probe"))
    p_gen.add_argument("output", help="output JSON path")
    # Every option defaults to None, so that gen can reject one its kind or family ignores.
    p_gen.add_argument("--dims", type=int, nargs=2, metavar=("N1", "N2"),
                       help="state dims (default: 2 2)")
    p_gen.add_argument("--rank", type=int, help="density-matrix rank; omit for a pure state")
    p_gen.add_argument("--family", choices=tuple(_FAMILIES),
                       help="channel family (default: amplitude-damping)")
    p_gen.add_argument("--gamma", type=float, help="amplitude-damping parameter")
    p_gen.add_argument("--prob", type=float, help="depolarizing parameter")
    p_gen.add_argument("--lam", type=float, help="phase-damping parameter")
    p_gen.add_argument("--dim", type=_int_at_least(1), help="probe dimension (default: 2)")
    p_gen.add_argument("--seed", type=_int_at_least(0), help="state or probe seed (default: 0)")
    p_gen.set_defaults(fn=_cmd_gen)
    return parser


# The exit code and message prefix of each error a command may raise; the first
# matching type decides.  Other exceptions are programming errors and propagate.
_EXIT_CODES = {
    _BadInput: (2, ""),
    OSError: (2, "could not write: "),
    MemoryError: (2, "request too large for memory: "),
    SingularProbe: (5, "singular probe: "),
    DimensionMismatch: (4, "dimension mismatch: "),
    TrivialDimension: (4, "dimension mismatch: "),
    ArithmeticError: (3, "numerical failure: "),
    ValueError: (3, "numerical failure: "),
}


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(_EXIT_CODES) as exc:
        code, prefix = next(v for t, v in _EXIT_CODES.items() if isinstance(exc, t))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
