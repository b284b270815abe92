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
from typing import Optional, Sequence

import numpy as np

from . import verification
from .assembly import Forcing, build_system, write_matrix_market
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
from .manufactured import (
    ManufacturedSolution,
    corrected_mms,
    eq4_source,
    literal_mms,
    smooth_mms,
)
from .timeloop import State, run
from .verification import l2_norm, validate_compatibility

SOURCES = ("eq3_mms", "eq3_literal", "eq4", "smooth_mms", "zero")
SCHEMES = ("ap", "naive")

_DEFAULTS = {
    "eta": 1e-3,
    "nu": 1.0,
    "lambda": 0.0,
    "L": 0.4,
    "l": 1.0,
    "T": 1.0,
    "dx": 0.0125,
    "dy": 0.0125,
    "dt": 1e-3,
    "mode": "strip",
    "scheme": "ap",
    "source": "eq3_mms",
    "outdir": ".",
}


@dataclass(frozen=True)
class RunSpec:
    scheme: str
    phys: PhysConfig
    disc: DiscConfig
    source: str
    outdir: Path


def _parse_value(key: str, raw: str, line_no: Optional[int]):
    if key in ("mode", "scheme", "source", "outdir"):
        return raw
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"cannot parse value {raw!r} for key {key!r}", line_no) from None


def parse_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunSpec:
    """Build a RunSpec from an optional file plus flag overrides."""
    values = dict(_DEFAULTS)
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
                if key not in values:
                    raise UnknownKeyError(f"unknown key {key!r}", line_no)
                values[key] = _parse_value(key, raw, line_no)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in values:
            raise UnknownKeyError(f"unknown key {key!r}")
        values[key] = _parse_value(key, str(val), None)

    if values["scheme"] not in SCHEMES:
        raise ConfigError([f"InvalidScheme: {values['scheme']!r} not in {SCHEMES}"])
    if values["source"] not in SOURCES:
        raise ConfigError([f"InvalidSource: {values['source']!r} not in {SOURCES}"])

    phys = PhysConfig(
        eta=values["eta"],
        nu=values["nu"],
        lambda_ref=values["lambda"],
        L=values["L"],
        limiter_height=values["l"],
        t_end=values["T"],
    )
    disc = DiscConfig(dx=values["dx"], dy=values["dy"], dt=values["dt"], mode=values["mode"])
    validate_config(phys, disc)
    return RunSpec(
        scheme=values["scheme"],
        phys=phys,
        disc=disc,
        source=values["source"],
        outdir=Path(values["outdir"]),
    )


def spec_echo(spec: RunSpec) -> str:
    """One-line key=value echo of the resolved configuration."""
    p, d = spec.phys, spec.disc
    pairs = [
        ("eta", p.eta), ("nu", p.nu), ("lambda", p.lambda_ref), ("L", p.L),
        ("l", p.limiter_height), ("T", p.t_end), ("dx", d.dx), ("dy", d.dy),
        ("dt", d.dt), ("mode", d.mode), ("scheme", spec.scheme),
        ("source", spec.source),
    ]
    return " ".join(
        f"{k}={float(v)!r}" if isinstance(v, float) else f"{k}={v}" for k, v in pairs
    )


def _resolve_source(spec: RunSpec):
    """(forcing, phi_ini, exact bundle or None) for the selected source."""
    p = spec.phys
    if spec.source == "eq3_mms":
        ms = corrected_mms(p.eta, p.nu, p.lambda_ref)
        return ms.forcing, ms.phi_ini, ms
    if spec.source == "smooth_mms":
        ms = smooth_mms(p.eta, p.nu, p.lambda_ref, L=p.L)
        return ms.forcing, ms.phi_ini, ms
    if spec.source == "eq4":
        forcing = Forcing(volume=lambda t, x, y: eq4_source(t, x, y, p.L))
        return forcing, lambda x, y: np.zeros_like(np.asarray(x, dtype=float)), None
    if spec.source == "zero":
        ini = lambda x, y: np.full_like(np.asarray(x, dtype=float), p.lambda_ref)
        return Forcing(), ini, None
    # eq3_literal: documented-inconsistent, no source term to integrate with
    raise ConfigError(
        ["InvalidSource: eq3_literal violates the sheath conditions and has no "
         "source term; it is available to 'validate' only"]
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


def _write_config_echo(spec: RunSpec, path: Path, extra: str = "") -> None:
    with open(path, "w") as fh:
        fh.write(spec_echo(spec) + "\n")
        if extra:
            fh.write(extra + "\n")


# ---- subcommands -------------------------------------------------------


def _cmd_run(spec: RunSpec, args) -> int:
    forcing, phi_ini, ms = _resolve_source(spec)
    grid = build_grid(spec.phys, spec.disc)
    if args.dump_matrix:
        system = build_system(grid, spec.phys, spec.disc, spec.scheme)
        write_matrix_market(system.matrix, args.dump_matrix)
    final = run(grid, spec.phys, spec.disc, forcing, phi_ini, scheme=spec.scheme)
    print(f"steps={final.n} t={final.t!r}")
    print(f"phi: l2={l2_norm(grid, final.phi)!r} max={float(np.abs(final.phi).max())!r}")
    if final.q is not None:
        print(f"q:   l2={l2_norm(grid, final.q)!r} max={float(np.abs(final.q).max())!r}")
    if ms is not None:
        x, y = grid.node_coords()
        err = l2_norm(grid, final.phi - ms.phi(final.t, x, y))
        print(f"error vs exact: l2={err!r}")
    if args.dump_fields:
        Path(args.dump_fields).parent.mkdir(parents=True, exist_ok=True)
        dump_field(grid, final, args.dump_fields, header=spec_echo(spec))
    return 0


def _parse_float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _cmd_mms_convergence(spec: RunSpec, args) -> int:
    deltas = _parse_float_list(args.grids)
    variant = "smooth" if spec.source == "smooth_mms" else "eq3_corrected"
    study = verification.run_mms_convergence(
        deltas,
        dt=spec.disc.dt,
        eta=spec.phys.eta,
        nu=spec.phys.nu,
        lambda_ref=spec.phys.lambda_ref,
        L=spec.phys.L,
        t_end=spec.phys.t_end,
        variant=variant,
    )
    spec.outdir.mkdir(parents=True, exist_ok=True)
    out = spec.outdir / "mms_convergence.csv"
    write_csv(study.rows, out)
    _write_config_echo(spec, spec.outdir / "mms_convergence.config.txt",
                       extra=f"grids={args.grids} fitted_order={study.order!r}")
    print(f"wrote {out}")
    print(f"fitted order: {study.order!r}")
    return 0


def _cmd_eta_sweep(spec: RunSpec, args) -> int:
    etas = _parse_float_list(args.etas)
    study = verification.run_eta_sweep(
        etas,
        delta=spec.disc.dx,
        dt=spec.disc.dt,
        nu=spec.phys.nu,
        L=spec.phys.L,
        t_end=spec.phys.t_end,
    )
    spec.outdir.mkdir(parents=True, exist_ok=True)
    out = spec.outdir / "eta_sweep.csv"
    write_csv(study.rows, out)
    _write_config_echo(spec, spec.outdir / "eta_sweep.config.txt",
                       extra=f"etas={args.etas} slope_l1={study.slope_l1!r} "
                             f"slope_l2={study.slope_l2!r}")
    print(f"wrote {out}")
    print(f"slopes: L1 {study.slope_l1!r}  L2 {study.slope_l2!r}")
    return 0


def _cmd_condition_study(spec: RunSpec, args) -> int:
    etas = _parse_float_list(args.etas)
    study = verification.run_condition_study(
        etas,
        delta=spec.disc.dx,
        dt=spec.disc.dt,
        nu=spec.phys.nu,
        lambda_ref=spec.phys.lambda_ref,
        L=spec.phys.L,
    )
    spec.outdir.mkdir(parents=True, exist_ok=True)
    out = spec.outdir / "condition_study.csv"
    write_csv(study.rows, out)
    _write_config_echo(spec, spec.outdir / "condition_study.config.txt",
                       extra=f"etas={args.etas}")
    print(f"wrote {out}")
    for row in study.rows:
        naive = "absent" if row.kappa_naive is None else repr(row.kappa_naive)
        print(f"eta={row.eta!r}: kappa_ap={row.kappa_ap!r} kappa_naive={naive}")
    return 0


def _cmd_validate(spec: RunSpec, args) -> int:
    validate_config(spec.phys, spec.disc)
    build_grid(spec.phys, spec.disc)
    print("config ok:", spec_echo(spec))
    p = spec.phys
    ms: Optional[ManufacturedSolution] = None
    if spec.source == "eq3_mms":
        ms = corrected_mms(p.eta, p.nu, p.lambda_ref)
    elif spec.source == "eq3_literal":
        ms = literal_mms(p.eta, p.lambda_ref)
    elif spec.source == "smooth_mms":
        ms = smooth_mms(p.eta, p.nu, p.lambda_ref, L=p.L)
    if ms is not None:
        from .manufactured import sheath_residuals

        times = np.linspace(0.1, min(1.0, p.t_end), 7)
        ys = (
            np.linspace(0.0, 0.35, 8)
            if spec.source == "eq3_literal"
            else np.linspace(0.0, 1.0, 21)
        )
        rw, re = sheath_residuals(ms, p.lambda_ref, p.L, times, ys)
        print(f"sheath residuals ({ms.variant}): west={rw!r} east={re!r}")
    forcing, phi_ini, _ = (
        _resolve_source(spec) if spec.source != "eq3_literal" else (None, ms.phi_ini, None)
    )
    report = validate_compatibility(
        p, phi_ini, None if forcing is None else forcing.volume
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
        for key in _DEFAULTS:
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
    overrides = {key: getattr(args, key) for key in _DEFAULTS}

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
