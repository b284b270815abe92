"""Configuration parsing, CSV/report emission, field dumps and the CLI.

Configuration files are flat ``key = value`` text (one pair per line;
commas also separate pairs), with ``#`` comments.  Unknown keys are
rejected.  Command-line flags override file values.  All numeric output is
written with full round-trip precision; consumers do their own rounding.

Exit codes: 0 success; 1 configuration error or another error, such as an
unwritable output path; 2 numerical failure (`errors.NumericalError`), and
argparse's 2 for a malformed command line.
"""

from __future__ import annotations

import argparse
import csv
import errno
import sys
from dataclasses import astuple, dataclass, fields as dc_fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import verification
from .assembly import SCHEMES, build_system, write_matrix_market
from .errors import ConfigError, EdgepotError, NumericalError, ParseError, UnknownKeyError
from .geometry import DiscConfig, PhysConfig, build_grid, validate_config
from .manufactured import SOURCES, sheath_residuals
from .timeloop import State, run
from .verification import l2_norm, validate_compatibility


class _Key(NamedTuple):
    """Where a configuration key lands: ``RunSpec.<owner>.<field>``, or
    ``RunSpec.<field>`` when owner is None."""

    owner: Optional[str]
    field: str
    default: object
    parse: Callable[[str], object] = float


KEYS = {
    "eta": _Key("phys", "eta", 1e-3),
    "nu": _Key("phys", "nu", 1.0),
    "lambda": _Key("phys", "lambda_ref", 0.0),
    "L": _Key("phys", "L", 0.4),
    "l": _Key("phys", "limiter_height", 1.0),
    "T": _Key("phys", "t_end", 1.0),
    "dx": _Key("disc", "dx", 0.0125),
    "dy": _Key("disc", "dy", 0.0125),
    "dt": _Key("disc", "dt", 1e-3),
    "mode": _Key("disc", "mode", "strip", str),
    "scheme": _Key(None, "scheme", "ap", str),
    "source": _Key(None, "source", "eq3_mms", str),
    "outdir": _Key(None, "outdir", Path("."), Path),
}


@dataclass(frozen=True)
class RunSpec:
    scheme: str
    phys: PhysConfig
    disc: DiscConfig
    source: str
    outdir: Path


def parse_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunSpec:
    """Build a RunSpec from an optional file plus flag overrides."""
    values = {key: k.default for key, k in KEYS.items()}

    def assign(key: str, raw: str, line_no: Optional[int] = None) -> None:
        if key not in KEYS:
            raise UnknownKeyError(f"unknown key {key!r}", line_no)
        try:
            values[key] = KEYS[key].parse(raw)
        except ValueError:
            raise ParseError(f"cannot parse value {raw!r} for key {key!r}", line_no) from None

    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read config file {path!r}: {exc}") from None
        for line_no, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            for token in stripped.split(","):
                token = token.strip()
                if not token:
                    continue
                if "=" not in token:
                    raise ParseError(f"expected key=value, got {token!r}", line_no)
                key, raw = (part.strip() for part in token.split("=", 1))
                assign(key, raw, line_no)
    for key, val in (overrides or {}).items():
        if val is not None:
            assign(key, str(val))

    if values["scheme"] not in SCHEMES:
        raise ConfigError([f"InvalidScheme: {values['scheme']!r} not in {SCHEMES}"])
    if values["source"] not in SOURCES:
        raise ConfigError([f"InvalidSource: {values['source']!r} not in {tuple(SOURCES)}"])

    kwargs = {"phys": {}, "disc": {}, None: {}}
    for key, k in KEYS.items():
        kwargs[k.owner][k.field] = values[key]
    phys = PhysConfig(**kwargs["phys"])
    disc = DiscConfig(**kwargs["disc"])
    validate_config(phys, disc)
    return RunSpec(phys=phys, disc=disc, **kwargs[None])


def spec_echo(spec: RunSpec, omit: Sequence[str] = ()) -> str:
    """One-line key=value echo of the resolved configuration.

    The output directory is left out, since the echo is written into it, and
    so are the keys in ``omit``.
    """
    pairs = [
        (key, getattr(spec if k.owner is None else getattr(spec, k.owner), k.field))
        for key, k in KEYS.items()
        if key != "outdir" and key not in omit
    ]
    return " ".join(
        f"{k}={float(v)!r}" if isinstance(v, float) else f"{k}={v}" for k, v in pairs
    )


def dump_field(grid, state: State, path, header: str = "") -> None:
    """Text dump: one line per plasma node 'x y phi [q]', full precision."""
    x, y = grid.node_coords()
    cols = [x, y, state.phi] + ([] if state.q is None else [state.q])
    with open(path, "w") as fh:
        fh.write(f"# {header}\n" if header else "#\n")
        fh.write("# x y phi" + ("" if state.q is None else " q") + "\n")
        for values in zip(*(c[grid.plasma_ordinals].tolist() for c in cols)):
            fh.write(" ".join(map(repr, values)) + "\n")


def read_field_dump(path):
    """Inverse of dump_field: (x, y, phi, q or None) arrays."""
    data = np.loadtxt(path, ndmin=2)
    q = data[:, 3] if data.shape[1] > 3 else None
    return data[:, 0], data[:, 1], data[:, 2], q


def write_csv(rows: Sequence, path) -> None:
    """Header plus one line per record; floats at full precision, None empty."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(f.name for f in dc_fields(rows[0]))
        out.writerows(astuple(row) for row in rows)


# ---- subcommands -------------------------------------------------------


def _cmd_run(spec: RunSpec, args) -> int:
    ms = SOURCES[spec.source](spec.phys)
    if ms.forcing is None:
        raise ConfigError(
            [f"InvalidSource: {spec.source} violates the sheath conditions and has no "
             "source term; it is available to 'validate' only"]
        )
    grid = build_grid(spec.phys, spec.disc)
    system = build_system(grid, spec.phys, spec.disc, spec.scheme)
    if args.dump_matrix:
        Path(args.dump_matrix).parent.mkdir(parents=True, exist_ok=True)
        write_matrix_market(system.matrix, args.dump_matrix)
    final = run(system, ms.forcing, ms.phi_ini)
    print(f"steps={final.n} t={final.t!r}")
    print(f"phi: l2={l2_norm(grid, final.phi)!r} max={float(np.abs(final.phi).max())!r}")
    if final.q is not None:
        print(f"q:   l2={l2_norm(grid, final.q)!r} max={float(np.abs(final.q).max())!r}")
    if ms.phi is not None:
        x, y = grid.node_coords()
        err = l2_norm(grid, final.phi - ms.phi(final.t, x, y))
        print(f"error vs exact: l2={err!r}")
    if args.dump_fields:
        Path(args.dump_fields).parent.mkdir(parents=True, exist_ok=True)
        dump_field(grid, final, args.dump_fields, header=spec_echo(spec))
    return 0


def _parse_float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _check_outdir(outdir: Path) -> None:
    """Refuse an outdir at or under a file before the study runs; create nothing."""
    existing = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, "not a directory", str(existing))


def _write_study(
    spec: RunSpec, name: str, rows: Sequence, extra: str, omit: Sequence[str]
) -> None:
    """Write ``<name>.csv`` and its ``<name>.config.txt`` echo into the outdir.

    The echo leaves out ``omit``: the keys the study replaces by the swept
    values recorded in ``extra``, and those it never reads.
    """
    spec.outdir.mkdir(parents=True, exist_ok=True)
    out = spec.outdir / f"{name}.csv"
    write_csv(rows, out)
    (spec.outdir / f"{name}.config.txt").write_text(f"{spec_echo(spec, omit)}\n{extra}\n")
    print(f"wrote {out}")


def _cmd_mms_convergence(spec: RunSpec, args) -> int:
    _check_outdir(spec.outdir)
    study = verification.run_mms_convergence(
        spec.phys, spec.disc, _parse_float_list(args.grids),
        source=spec.source, scheme=spec.scheme,
    )
    _write_study(spec, "mms_convergence", study.rows,
                 f"grids={args.grids} fitted_order={study.order!r}", omit=("dx", "dy"))
    print(f"fitted order: {study.order!r}")
    return 0


def _cmd_eta_sweep(spec: RunSpec, args) -> int:
    _check_outdir(spec.outdir)
    study = verification.run_eta_sweep(
        spec.phys, spec.disc, _parse_float_list(args.etas), scheme=spec.scheme
    )
    _write_study(spec, "eta_sweep", study.rows,
                 f"etas={args.etas} slope_l1={study.slope_l1!r} slope_l2={study.slope_l2!r}",
                 omit=("eta", "source"))  # the sweep always runs eq4
    print(f"slopes: L1 {study.slope_l1!r}  L2 {study.slope_l2!r}")
    return 0


def _cmd_condition_study(spec: RunSpec, args) -> int:
    _check_outdir(spec.outdir)
    study = verification.run_condition_study(spec.phys, spec.disc, _parse_float_list(args.etas))
    _write_study(spec, "condition_study", study.rows, f"etas={args.etas}",
                 omit=("eta", "T", "scheme", "source"))
    for row in study.rows:
        naive = "absent" if row.kappa_naive is None else repr(row.kappa_naive)
        print(f"eta={row.eta!r}: kappa_ap={row.kappa_ap!r} kappa_naive={naive}")
    return 0


def _cmd_validate(spec: RunSpec, args) -> int:
    print("config ok:", spec_echo(spec))
    p = spec.phys
    ms = SOURCES[spec.source](p)
    if ms.phi is not None:
        times = np.linspace(0.1, min(1.0, p.t_end), 7)
        ys = np.linspace(0.0, ms.y_max, round(ms.y_max / 0.05) + 1)
        rw, re = sheath_residuals(ms, p.lambda_ref, p.L, times, ys)
        print(f"sheath residuals ({spec.source}): west={rw!r} east={re!r}")
    report = validate_compatibility(
        p, ms.phi_ini, None if ms.forcing is None else ms.forcing.volume
    )
    status = "ok" if report.ok else "WARNING"
    print(
        f"compatibility {status}: lhs={report.lhs!r} rhs={report.rhs!r} "
        f"mismatch={report.mismatch!r}"
    )
    return 0


# subcommand -> (handler, help text, {extra flag: add_argument keywords})
COMMANDS = {
    "run": (_cmd_run, "single simulation", {
        "--dump-fields": {"help": "write final fields here"},
        "--dump-matrix": {"help": "write the system matrix (MatrixMarket)"},
    }),
    "mms-convergence": (_cmd_mms_convergence, "mesh-convergence study", {
        "--grids": {"default": "0.05,0.025,0.0125,0.00625", "help": "comma-separated mesh steps"},
    }),
    "eta-sweep": (_cmd_eta_sweep, "distance to the eta=0 limit", {
        "--etas": {"default": "1e-1,1e-2,1e-3,1e-4"},
    }),
    "condition-study": (_cmd_condition_study, "condition number vs eta", {
        "--etas": {"default": "1e-2,1e-4,1e-6,1e-8,0"},
    }),
    "validate": (_cmd_validate, "validate configuration and data", {}),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="edgepot",
        description="Anisotropic edge-potential solver: coupled micro-macro "
        "scheme, stiff single-field scheme, and verification studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)  # named in usage errors
    for name, (handler, help_text, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("--config", help="flat key=value configuration file")
        for key in KEYS:
            sp.add_argument(f"--{key}", help=f"override {key}")
        for flag, kwargs in flags.items():
            sp.add_argument(flag, **kwargs)
    args = parser.parse_args(argv)

    try:
        spec = parse_config(args.config, {key: getattr(args, key) for key in KEYS})
        return args.handler(spec, args)
    except (ConfigError, ParseError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (EdgepotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
