"""Configuration parsing, CSV/report emission, field dumps and the CLI.

Configuration files are flat ``key = value`` text (one pair per line;
commas also separate pairs), with ``#`` comments.  Unknown keys are
rejected.  Command-line flags override file values.  All numeric output is
written with full round-trip precision; consumers do their own rounding.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import verification
from .assembly import build_system, write_matrix_market
from .errors import (
    ConfigError,
    EdgepotError,
    EtaZeroUndefinedError,
    NonFiniteInitialError,
    NonFiniteSourceError,
    ParseError,
    SingularPivotError,
    UnknownKeyError,
)
from .geometry import DiscConfig, PhysConfig, build_grid, validate_config
from .manufactured import SOURCES, sheath_residuals
from .timeloop import State, run
from .verification import l2_norm, validate_compatibility

SCHEMES = ("ap", "naive")


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
        text = Path(path).read_text()
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
    phi = state.phi
    q = state.q
    with open(path, "w") as fh:
        fh.write(f"# {header}\n" if header else "#\n")
        cols = "x y phi" + (" q" if q is not None else "")
        fh.write(f"# {cols}\n")
        for k in grid.plasma_ordinals:
            line = f"{float(x[k])!r} {float(y[k])!r} {float(phi[k])!r}"
            if q is not None:
                line += f" {float(q[k])!r}"
            fh.write(line + "\n")


def read_field_dump(path):
    """Inverse of dump_field: (x, y, phi, q or None) arrays."""
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rows.append([float(tok) for tok in line.split()])
    data = np.asarray(rows)
    q = data[:, 3] if data.shape[1] > 3 else None
    return data[:, 0], data[:, 1], data[:, 2], q


def write_csv(rows: Sequence, path, fields: Optional[Sequence[str]] = None) -> None:
    """Header plus one line per record; floats at full precision, None empty."""
    if fields is None:
        if not rows:
            raise ValueError("fields must be given when rows is empty")
        fields = [f.name for f in dc_fields(rows[0])]
    with open(path, "w") as fh:
        fh.write(",".join(fields) + "\n")
        for row in rows:
            cells = []
            for name in fields:
                v = getattr(row, name)
                if v is None:
                    cells.append("")
                elif isinstance(v, float):
                    cells.append(repr(float(v)))
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")


# ---- subcommands -------------------------------------------------------


def _cmd_run(spec: RunSpec, args) -> int:
    ms = SOURCES[spec.source](spec.phys)
    if ms.forcing is None:
        raise ConfigError(
            [f"InvalidSource: {spec.source} violates the sheath conditions and has no "
             "source term; it is available to 'validate' only"]
        )
    grid = build_grid(spec.phys, spec.disc)
    if args.dump_matrix:
        system = build_system(grid, spec.phys, spec.disc, spec.scheme)
        write_matrix_market(system.matrix, args.dump_matrix)
    final = run(grid, spec.phys, spec.disc, ms.forcing, ms.phi_ini, scheme=spec.scheme)
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
    study = verification.run_mms_convergence(
        spec.phys, spec.disc, _parse_float_list(args.grids),
        source=spec.source, scheme=spec.scheme,
    )
    _write_study(spec, "mms_convergence", study.rows,
                 f"grids={args.grids} fitted_order={study.order!r}", omit=("dx", "dy"))
    print(f"fitted order: {study.order!r}")
    return 0


def _cmd_eta_sweep(spec: RunSpec, args) -> int:
    study = verification.run_eta_sweep(
        spec.phys, spec.disc, _parse_float_list(args.etas), scheme=spec.scheme
    )
    _write_study(spec, "eta_sweep", study.rows,
                 f"etas={args.etas} slope_l1={study.slope_l1!r} slope_l2={study.slope_l2!r}",
                 omit=("eta", "source"))  # the sweep always runs eq4
    print(f"slopes: L1 {study.slope_l1!r}  L2 {study.slope_l2!r}")
    return 0


def _cmd_condition_study(spec: RunSpec, args) -> int:
    study = verification.run_condition_study(spec.phys, spec.disc, _parse_float_list(args.etas))
    _write_study(spec, "condition_study", study.rows, f"etas={args.etas}",
                 omit=("eta", "T", "scheme", "source"))
    for row in study.rows:
        naive = "absent" if row.kappa_naive is None else repr(row.kappa_naive)
        print(f"eta={row.eta!r}: kappa_ap={row.kappa_ap!r} kappa_naive={naive}")
    return 0


def _cmd_validate(spec: RunSpec, args) -> int:
    build_grid(spec.phys, spec.disc)
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="edgepot",
        description="Anisotropic edge-potential solver: coupled micro-macro "
        "scheme, stiff single-field scheme, and verification studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="flat key=value configuration file")
        for key in KEYS:
            sp.add_argument(f"--{key}", default=None, help=f"override {key}")

    p_run = sub.add_parser("run", help="single simulation")
    add_common(p_run)
    p_run.add_argument("--dump-fields", default=None, help="write final fields here")
    p_run.add_argument("--dump-matrix", default=None, help="write the system matrix (MatrixMarket)")

    p_conv = sub.add_parser("mms-convergence", help="mesh-convergence study")
    add_common(p_conv)
    p_conv.add_argument("--grids", default="0.05,0.025,0.0125,0.00625",
                        help="comma-separated mesh steps")

    p_eta = sub.add_parser("eta-sweep", help="distance to the eta=0 limit")
    add_common(p_eta)
    p_eta.add_argument("--etas", default="1e-1,1e-2,1e-3,1e-4")

    p_cond = sub.add_parser("condition-study", help="condition number vs eta")
    add_common(p_cond)
    p_cond.add_argument("--etas", default="1e-2,1e-4,1e-6,1e-8,0")

    p_val = sub.add_parser("validate", help="validate configuration and data")
    add_common(p_val)

    args = parser.parse_args(argv)
    overrides = {key: getattr(args, key) for key in KEYS}

    handlers = {
        "run": _cmd_run,
        "mms-convergence": _cmd_mms_convergence,
        "eta-sweep": _cmd_eta_sweep,
        "condition-study": _cmd_condition_study,
        "validate": _cmd_validate,
    }
    try:
        spec = parse_config(args.config, overrides)
        return handlers[args.command](spec, args)
    except (ConfigError, ParseError, UnknownKeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (
        SingularPivotError,
        NonFiniteSourceError,
        NonFiniteInitialError,
        EtaZeroUndefinedError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except EdgepotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
