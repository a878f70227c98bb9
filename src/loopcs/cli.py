"""Command-line front end.

Subcommands:

* ``verify``   -- curvature-identity residual table (plus the Einstein check
                  for the five-dimensional family); exit 0 iff all pass.
* ``wcs``      -- cycle integral of the Wodzicki-Chern-Simons form for a
                  metric and circle action; writes a JSON record.
* ``sweep``    -- batch runs over (p, q) pairs and/or an a-grid; writes CSV.
* ``selftest`` -- the built-in invariant suite.

Exit codes: 0 success, 1 numeric failure (validation, integrand or overflow),
2 usage/configuration error, 141 (128 + SIGPIPE) when the reader of stdout
has gone away, with nothing on stderr.  Flags may also be supplied through
a flat ``key = value`` config file; its entries are parsed as flags placed
before the explicit ones, so they are type-checked alike and explicit flags
win.
"""
from __future__ import annotations

import argparse
# argparse's gettext imports locale when it first translates a message;
# importing it with the CLI keeps a run from loading modules as it goes.
import locale  # noqa: F401
import math
import os
import sys

import numpy as np

from . import __version__, geometry, metrics, selftest
from .cycles import MAX_ORBIT_POINTS, CircleAction, integrate_cycle, ypq_sweep
from .jets import ChartDomainError
from .quadrature import MAX_WORKERS, QuadratureError, QuadratureSpec
from .records import format_float, result_to_json, sweep_to_csv

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2
EXIT_PIPE = 128 + 13  # as a shell reports a SIGPIPE death

# Largest --scan-p-max: the scan tests O(N^2) pairs in Python (0.19 s at
# 1000) and integrates each of its exact pairs (274 at 1000) before writing.
MAX_SCAN_P = 1000

_AXIS_ALIASES = {"φ": "phi", "θ": "theta", "ψ": "psi", "α": "alpha"}


class UsageError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopcs",
        description="Wodzicki-Chern-Simons cycle integrals on loop spaces")
    parser.add_argument("--version", action="version", version=f"loopcs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_metric=True, with_action=True):
        p.add_argument("--config", help="flat key = value config file; flags override")
        if with_metric:
            p.add_argument("--metric", help="catalog name, 'ypq', or 'ypq-a'")
            p.add_argument("--p", type=int, help="first integer of the (p, q) family")
            p.add_argument("--q", type=int, help="second integer of the (p, q) family")
            p.add_argument("--a", type=float, help="direct family parameter in (0, 1)")
        p.add_argument("--ell", type=float, default=None,
                       help="fiber period parameter when using --a (default 1)")
        if with_action:
            p.add_argument("--action", default=None,
                           help="trivial | rotate:AXIS[:SPEED] | iterate:AXIS:N; "
                                "SPEED 0 or N 0 is the trivial action")
            p.add_argument("--s-scale", type=float, default=1.0,
                           help="regularization parameter scaling (exactly linear)")
            p.add_argument("--nodes", type=int, default=32,
                           help="Gauss-Legendre nodes per unmasked axis")
            p.add_argument("--no-mask", action="store_true",
                           help="disable the constant-axes shortcut and the "
                                "orbit-axis reduction")
            p.add_argument("--workers", type=int, default=1,
                           help="processes of the one density pool per cycle "
                                f"(1 to {MAX_WORKERS}, default 1)")
        p.add_argument("--out", help="output file path (default stdout)")

    p_verify = sub.add_parser("verify", help="curvature identity residuals")
    add_common(p_verify, with_action=False)
    p_verify.add_argument("--samples", type=int, default=100,
                          help=f"sample points (1 to {MAX_ORBIT_POINTS}, default 100)")
    p_verify.add_argument("--seed", type=int, default=2024,
                          help="seed of the sample points (default 2024)")

    p_wcs = sub.add_parser("wcs", help="cycle integral of the WCS form")
    add_common(p_wcs)

    # The sweep picks its own family members, so it takes no metric flags.
    p_sweep = sub.add_parser("sweep", help="batch cycle integrals")
    add_common(p_sweep, with_metric=False)
    p_sweep.add_argument("--sweep-pq", default=None,
                         help="comma list like 7:3,13:8 of (p, q) pairs")
    p_sweep.add_argument("--scan-p-max", type=int, default=None,
                         help=f"scan all exact-mode pairs with p <= N (at most {MAX_SCAN_P})")
    p_sweep.add_argument("--sweep-a", default=None,
                         help="comma list of a values in (0, 1), fiber param fixed")

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


def _read_config(path: str) -> dict[str, str]:
    table = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            table[key.strip().replace("-", "_")] = val.strip()
    return table


def _config_tokens(parser: argparse.ArgumentParser, args: argparse.Namespace) -> list[str]:
    """The ``--config`` file's entries as flag tokens for the subcommand parser."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # Every flag of the subcommand except --help, whose dest is not in args.
    actions = {a.dest: a for a in sub.choices[args.command]._actions if hasattr(args, a.dest)}
    tokens = []
    for key, raw in _read_config(args.config).items():
        if key not in actions:
            raise UsageError(f"unknown config key {key!r}")
        flag = actions[key].option_strings[-1]
        if actions[key].nargs != 0:
            tokens.append(f"{flag}={raw}")
        elif raw.lower() in ("1", "true", "yes", "on"):
            tokens.append(flag)
        elif raw.lower() not in ("0", "false", "no", "off"):
            raise UsageError(f"config key {key!r} takes on/off words, got {raw!r}")
    return tokens


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``; config-file flags go first, so explicit flags win.
    ``args.given`` holds the flags of ``argv`` alone.  ``argv`` is parsed
    again only when a config file adds tokens."""
    given = parser.parse_args(argv)
    tokens = _config_tokens(parser, given) if getattr(given, "config", None) else []
    args = (parser.parse_args([argv[0], *tokens, *argv[1:]]) if tokens
            else argparse.Namespace(**vars(given)))
    args.given = given
    return args


def _select_metric(args) -> geometry.MetricField:
    name = args.metric
    if not name:
        raise UsageError("--metric is required")
    # A config file may hold family flags for other metrics: check argv only.
    for flag, owner in (("p", "ypq"), ("q", "ypq"), ("a", "ypq-a"), ("ell", "ypq-a")):
        if getattr(args.given, flag) is not None and name != owner:
            raise UsageError(f"--{flag} applies only to --metric {owner}")
    if name == "ypq":
        if args.p is None or args.q is None:
            raise UsageError("--metric ypq requires --p and --q")
        params = metrics.solve_ypq(args.p, args.q)
        return metrics.ypq_metric(params)
    if name == "ypq-a":
        if args.a is None:
            raise UsageError("--metric ypq-a requires --a")
        ell = 1.0 if args.ell is None else args.ell
        params = metrics.ypq_params_from_a(args.a, ell=ell)
        return metrics.ypq_metric(params)
    return metrics.catalog(name)


def _axis_index(names: tuple[str, ...], token: str) -> int:
    token = _AXIS_ALIASES.get(token, token)
    if token in names:
        return names.index(token)
    try:
        idx = int(token)
    except ValueError:
        raise UsageError(f"unknown axis {token!r}; coordinates are {list(names)}") from None
    if not 0 <= idx < len(names):
        raise UsageError(f"axis index {idx} out of range for dim {len(names)}")
    return idx


def _select_action(names: tuple[str, ...], text: str | None) -> CircleAction:
    """Parse an --action value against the chart's coordinate names."""
    if text is None or text == "trivial":
        return CircleAction.trivial()
    parts = text.split(":")
    if parts[0] == "rotate":
        if len(parts) not in (2, 3):
            raise UsageError("expected rotate:AXIS or rotate:AXIS:SPEED")
        axis = _axis_index(names, parts[1])
        speed = float(parts[2]) if len(parts) == 3 else None
        return CircleAction.rotation(axis=axis, speed=speed)
    if parts[0] == "iterate":
        if len(parts) != 3:
            raise UsageError("expected iterate:AXIS:N")
        axis = _axis_index(names, parts[1])
        return CircleAction.iterate(CircleAction.rotation(axis=axis), int(parts[2]))
    raise UsageError(f"unknown action {text!r}")


def _quad_spec(args) -> QuadratureSpec:
    mask: tuple[int, ...] | None = () if getattr(args, "no_mask", False) else None
    return QuadratureSpec(nodes=args.nodes, mask=mask, workers=args.workers)


def _write(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_verify(args) -> int:
    if not 1 <= args.samples <= MAX_ORBIT_POINTS:  # one curvature call's cap
        raise UsageError(f"--samples must be >= 1 and at most {MAX_ORBIT_POINTS}, "
                         f"got {args.samples}")
    metric = _select_metric(args)
    rng = np.random.default_rng(args.seed)
    pts = metric.box.sample_interior(rng, args.samples)
    # One curvature pass feeds both checks.
    _, dg, _ = jets = geometry.metric_jets(metric, pts)
    pack = geometry.curvature_pack(*jets)
    report = geometry.curvature_report(pack, dg)
    lines = [f"curvature identity residuals for {metric.name} "
             f"({args.samples} interior points, tol {geometry.IDENTITY_TOL:g}):"]
    lines += report.lines()
    ok = report.passed
    if isinstance(metric.params, metrics.YpqParams):
        res = metrics.einstein_residual(pack, metrics.EINSTEIN_CONSTANT_DIM5)
        flag = "pass" if res <= 1e-8 else "FAIL"
        lines.append(f"  {'einstein_ric_4g':<22} {res:12.3e}  {flag}")
        ok = ok and res <= 1e-8
    lines.append("verification " + ("passed" if ok else "FAILED"))
    _write("\n".join(lines), args.out)
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_wcs(args) -> int:
    metric = _select_metric(args)
    action = _select_action(metric.coord_names, args.action)
    spec = _quad_spec(args)
    result = integrate_cycle(metric, action, (metric.dim + 1) // 2, quad=spec,
                             s_scale=args.s_scale)
    _write(result_to_json(result), args.out)
    pi4 = result.pi4_multiple
    summary = (f"# value = {format_float(result.value)}"
               + (f" = ({pi4}) * pi^4" if pi4 is not None else "")
               + f", error estimate {result.error_estimate:.3e}, "
               f"wall {result.wall_time:.2f}s")
    print(summary, file=sys.stderr)
    return EXIT_OK


def _parse_pq_list(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            p_str, q_str = chunk.split(":")
            pairs.append((int(p_str), int(q_str)))
        except ValueError:
            raise UsageError(f"bad (p, q) entry {chunk!r}; expected P:Q") from None
    return pairs


def _exact_pairs(p_max: int) -> list[tuple[int, int]]:
    """Coprime (p, q) with p <= p_max whose 4p^2 - 3q^2 is a perfect square."""
    pairs = []
    for p in range(2, p_max + 1):
        for q in range(1, p):
            disc = 4 * p * p - 3 * q * q
            if math.gcd(p, q) == 1 and math.isqrt(disc) ** 2 == disc:
                pairs.append((p, q))
    return pairs


def cmd_sweep(args) -> int:
    labels = [{"a": float(tok)} for tok in (args.sweep_a or "").split(",") if tok.strip()]
    if args.given.ell is not None and not labels:
        raise UsageError("--ell applies only to --sweep-a rows")
    p_max = args.scan_p_max or 0
    if p_max > MAX_SCAN_P:
        raise UsageError(f"--scan-p-max must be at most {MAX_SCAN_P}, got {p_max}")
    pairs = _parse_pq_list(args.sweep_pq or "") + _exact_pairs(p_max)
    labels += [{"p": p, "q": q} for p, q in pairs]
    if not labels:
        raise UsageError("sweep needs --sweep-pq, --scan-p-max, or a non-empty --sweep-a")
    action = _select_action(metrics.YPQ_COORDS, args.action or "rotate:alpha")
    sweep = ypq_sweep(labels, action, quad=_quad_spec(args), s_scale=args.s_scale,
                      ell=1.0 if args.ell is None else args.ell)
    _write(sweep_to_csv(sweep), args.out)
    return EXIT_OK


_COMMANDS = {
    "verify": cmd_verify,
    "wcs": cmd_wcs,
    "sweep": cmd_sweep,
    "selftest": lambda args: selftest.run_all(),
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(parser, argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader went away: stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except SystemExit as exc:  # argparse: --help, --version or a rejected value
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (QuadratureError, ChartDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UsageError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
