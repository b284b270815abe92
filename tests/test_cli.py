import numpy as np
import pytest

from edgepot.cli import (
    KEYS,
    dump_field,
    main,
    parse_config,
    read_field_dump,
    spec_echo,
    write_csv,
)
from edgepot import errors, verification
from edgepot.errors import ConfigError, ParseError, UnknownKeyError
from edgepot.geometry import DiscConfig, PhysConfig, build_grid
from edgepot.timeloop import init_state
from edgepot.verification import CondRow, ConvergenceRow


# ---- configuration parsing ---------------------------------------------------


def test_empty_file_gives_defaults(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    spec = parse_config(str(cfg))
    assert spec.phys.eta == 1e-3
    assert spec.phys.nu == 1.0
    assert spec.phys.lambda_ref == 0.0
    assert spec.phys.L == 0.4
    assert spec.disc.dx == 0.0125
    assert spec.disc.dt == 1e-3
    assert spec.scheme == "ap"
    assert spec.source == "eq3_mms"


def test_comma_separated_pairs(tmp_path):
    cfg = tmp_path / "fine.cfg"
    cfg.write_text("eta=0.001, dx=0.003125, dt=0.0001\ndy = 0.003125\n")
    spec = parse_config(str(cfg))
    assert spec.phys.eta == 0.001
    assert spec.disc.dx == 0.003125
    assert spec.disc.dy == 0.003125
    assert spec.disc.dt == 0.0001


def test_comments_and_blank_lines(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# a comment\n\neta = 0.01  # trailing\n")
    assert parse_config(str(cfg)).phys.eta == 0.01


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("etaa = 1\n")
    with pytest.raises(UnknownKeyError, match="line 1"):
        parse_config(str(cfg))


def test_malformed_line_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("eta\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_config(str(cfg))


@pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
def test_unreadable_config_file_is_a_parse_error(tmp_path, capsys, kind):
    path = tmp_path / "c.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "undecodable":
        path.write_bytes(b"eta = 0.01 \xff\xfe\n")
    with pytest.raises(ParseError, match="cannot read config file"):
        parse_config(str(path))
    assert main(["validate", "--config", str(path)]) == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_negative_eta_rejected():
    with pytest.raises(ConfigError, match="eta"):
        parse_config(None, {"eta": -1})


def test_overrides_win_over_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("eta = 0.01\n")
    spec = parse_config(str(cfg), {"eta": "0.5"})
    assert spec.phys.eta == 0.5


def test_spec_echo_round_trips_key_values():
    spec = parse_config(None)
    echo = spec_echo(spec)
    assert "eta=0.001" in echo
    assert "scheme=ap" in echo


def test_config_round_trip_through_echo(tmp_path):
    # a valid, non-default value for every key of the table
    values = {
        "eta": 0.02, "nu": 0.5, "lambda": 0.25, "L": 0.3, "l": 0.5, "T": 0.75,
        "dx": 0.05, "dy": 0.05, "dt": 1e-4, "mode": "full", "scheme": "naive",
        "source": "smooth_mms", "outdir": str(tmp_path / "out"),
    }
    assert values.keys() == KEYS.keys()
    spec = parse_config(None, values)
    for key, k in KEYS.items():
        owner = spec if k.owner is None else getattr(spec, k.owner)
        assert getattr(owner, k.field) != k.default, key
    cfg = tmp_path / "echo.cfg"
    cfg.write_text(spec_echo(spec).replace(" ", "\n") + "\n")  # one pair per line
    # the echo leaves out the output directory, which it is written into
    assert parse_config(str(cfg), {"outdir": values["outdir"]}) == spec


# ---- field dumps ---------------------------------------------------------------


def test_dump_field_round_trip(tmp_path):
    phys = PhysConfig(eta=1e-3)
    disc = DiscConfig(dx=0.1, dy=0.1, dt=1e-3)
    grid = build_grid(phys, disc)
    rng = np.random.default_rng(5)
    state = init_state(grid, phys, lambda x, y: np.zeros_like(x))
    state.u[:] = rng.standard_normal(grid.N)
    path = tmp_path / "fields.txt"
    dump_field(grid, state, path, header="test dump")
    x, y, phi, q = read_field_dump(path)
    assert len(x) == len(grid.plasma_ordinals)
    assert np.array_equal(phi, state.phi[grid.plasma_ordinals])
    assert np.array_equal(q, state.q[grid.plasma_ordinals])


def test_dump_field_naive_omits_q(tmp_path):
    phys = PhysConfig(eta=1e-2)
    disc = DiscConfig(dx=0.1, dy=0.1, dt=1e-3)
    grid = build_grid(phys, disc)
    state = init_state(grid, phys, lambda x, y: np.ones_like(x), scheme="naive")
    path = tmp_path / "fields.txt"
    dump_field(grid, state, path)
    *_, q = read_field_dump(path)
    assert q is None


# ---- CSV ------------------------------------------------------------------------


def test_write_csv_rows_full_precision(tmp_path):
    rows = [ConvergenceRow(h=0.1, dt=1e-3, err_l2=1 / 3)]
    path = tmp_path / "rows.csv"
    write_csv(rows, path)
    assert path.read_bytes() == b"h,dt,err_l2\n0.1,0.001,0.3333333333333333\n"


def test_write_csv_absent_entry_is_empty_cell(tmp_path):
    rows = [
        CondRow(eta=0.0, kappa_ap=2.0, kappa_ap_converged=True,
                kappa_naive=None, kappa_naive_converged=None)
    ]
    path = tmp_path / "cond.csv"
    write_csv(rows, path)
    assert path.read_bytes() == (
        b"eta,kappa_ap,kappa_ap_converged,kappa_naive,kappa_naive_converged\n"
        b"0.0,2.0,True,,\n"
    )


# ---- entry point ------------------------------------------------------------------


def test_main_validate_defaults_ok(capsys):
    assert main(["validate", "--dx", "0.05", "--dy", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    assert "compatibility ok" in out


def test_main_validate_reports_literal_residuals(capsys):
    code = main(["validate", "--dx", "0.05", "--dy", "0.05", "--source", "eq3_literal"])
    assert code == 0
    assert "eq3_literal" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["eq3_mms", "smooth_mms"])
def test_main_validate_labels_residuals_with_the_source_name(capsys, source):
    assert main(["validate", "--dx", "0.05", "--dy", "0.05", "--source", source]) == 0
    assert f"sheath residuals ({source}):" in capsys.readouterr().out


def test_main_bad_config_exits_1(capsys):
    assert main(["run", "--eta", "-1"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_main_unaligned_mesh_exits_1(capsys):
    assert main(["validate", "--dx", "0.03"]) == 1
    assert "NonAlignedMesh" in capsys.readouterr().err


def test_main_naive_eta_zero_exits_2(capsys):
    code = main(["run", "--scheme", "naive", "--eta", "0",
                 "--dx", "0.1", "--dy", "0.1", "--T", "0.01"])
    assert code == 2
    assert "EtaZeroUndefined" in capsys.readouterr().err


def test_main_unstable_full_run_stops_at_the_sheath_headroom(capsys):
    # full geometry at eta = 0 grows until exp(lambda - phi) would overflow
    code = main(["run", "--mode", "full", "--l", "0.5", "--source", "eq4", "--eta", "0",
                 "--dx", "0.025", "--dy", "0.025", "--dt", "1e-2", "--T", "1"])
    assert code == 2
    assert "beyond the headroom +-700" in capsys.readouterr().err


def test_numerical_errors_are_the_exit_2_failures():
    numerical = {
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.NumericalError)
        and cls is not errors.NumericalError
    }
    assert numerical == {
        "SingularPivotError", "NonFiniteSourceError", "NonFiniteInitialError",
        "EtaZeroUndefinedError",
    }
    assert not issubclass(errors.LogDomainError, errors.NumericalError)  # exits 1


@pytest.mark.parametrize(
    "args,target",
    [
        (["run", "--source", "zero", "--T", "0.01", "--dump-fields"], "directory"),
        (["condition-study", "--etas", "1e-2", "--outdir"], "file"),
    ],
    ids=["run --dump-fields", "condition-study --outdir"],
)
def test_main_unwritable_output_path_exits_1(tmp_path, capsys, args, target):
    path = tmp_path / target
    if target == "directory":
        path.mkdir()
    else:
        path.write_text("")
    assert main(args + [str(path), "--dx", "0.1", "--dy", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command,driver",
    [
        ("mms-convergence", "run_mms_convergence"),
        ("eta-sweep", "run_eta_sweep"),
        ("condition-study", "run_condition_study"),
    ],
)
@pytest.mark.parametrize("below", [False, True], ids=["outdir", "outdir parent"])
def test_main_study_refuses_an_outdir_file_before_the_study_runs(
    tmp_path, capsys, monkeypatch, command, driver, below
):
    def never(*args, **kwargs):
        raise AssertionError(f"{driver} ran before the outdir was checked")

    monkeypatch.setattr(verification, driver, never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    outdir = blocker / "out" if below else blocker
    assert main([command, "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a directory" in err
    assert blocker.read_text() == ""  # left as it was


def test_main_run_zero_source(capsys, tmp_path):
    dump = tmp_path / "f.txt"
    code = main([
        "run", "--source", "zero", "--lambda", "1.5", "--dx", "0.1", "--dy", "0.1",
        "--T", "0.01", "--dump-fields", str(dump),
    ])
    assert code == 0
    x, y, phi, q = read_field_dump(dump)
    assert phi == pytest.approx(1.5, abs=1e-9)
    out = capsys.readouterr().out
    assert "steps=10" in out
    assert "error vs exact" not in out  # the zero source has no exact solution


def test_main_run_reports_the_error_against_an_exact_solution(capsys):
    code = main(["run", "--source", "eq3_mms", "--dx", "0.1", "--dy", "0.1", "--T", "0.01"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("error vs exact: l2=")
    assert 0 < float(lines[-1].split("=")[1]) < 1e-4


def test_main_run_literal_source_is_config_error(capsys):
    code = main(["run", "--source", "eq3_literal", "--dx", "0.1", "--dy", "0.1",
                 "--T", "0.01"])
    assert code == 1


def test_main_dump_matrix(tmp_path):
    mtx = tmp_path / "a.mtx"
    code = main([
        "run", "--source", "zero", "--dx", "0.2", "--dy", "0.25", "--T", "0.01",
        "--dt", "0.01", "--dump-matrix", str(mtx),
    ])
    assert code == 0
    header = mtx.read_text().splitlines()[0]
    assert header.startswith("%%MatrixMarket")


def test_main_dump_matrix_creates_the_directory(tmp_path):
    mtx = tmp_path / "new" / "dir" / "a.mtx"
    code = main([
        "run", "--source", "zero", "--dx", "0.2", "--dy", "0.25", "--T", "0.01",
        "--dt", "0.01", "--dump-matrix", str(mtx),
    ])
    assert code == 0
    assert mtx.read_text().startswith("%%MatrixMarket")


def test_dump_fields_subcommand_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["dump-fields"])
    assert exc.value.code == 2
    # run --dump-fields writes the same file, creating its directory
    out = tmp_path / "out" / "fields.txt"
    assert main(["run", "--source", "zero", "--dx", "0.1", "--dy", "0.1", "--T", "0.01",
                 "--dump-fields", str(out)]) == 0
    assert out.exists()


def test_main_condition_study_csv_and_determinism(tmp_path, capsys):
    args = [
        "condition-study", "--etas", "1e-2,0", "--dx", "0.1", "--dy", "0.1",
        "--outdir", str(tmp_path / "a"),
    ]
    assert main(args) == 0
    args2 = [
        "condition-study", "--etas", "1e-2,0", "--dx", "0.1", "--dy", "0.1",
        "--outdir", str(tmp_path / "b"),
    ]
    assert main(args2) == 0
    csv_a = (tmp_path / "a" / "condition_study.csv").read_text()
    csv_b = (tmp_path / "b" / "condition_study.csv").read_text()
    assert csv_a == csv_b  # bit-identical across invocations
    lines = csv_a.splitlines()
    assert lines[0].startswith("eta,kappa_ap")
    assert len(lines) == 3
    assert lines[2].split(",")[3] == ""  # naive absent at eta = 0
    assert (tmp_path / "a" / "condition_study.config.txt").exists()


def test_main_mms_convergence_quick(tmp_path, capsys):
    code = main([
        "mms-convergence", "--grids", "0.1,0.05", "--dt", "0.0005", "--T", "0.2",
        "--outdir", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "mms_convergence.csv").read_text().splitlines()
    assert lines[0] == "h,dt,err_l2"
    hs = [float(line.split(",")[0]) for line in lines[1:]]
    assert hs == sorted(hs, reverse=True)  # sorted by h descending
    assert "fitted order" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["eq4", "zero", "eq3_literal"])
def test_main_mms_convergence_refuses_source_without_exact_solution(tmp_path, capsys, source):
    code = main([
        "mms-convergence", "--source", source, "--grids", "0.1,0.05", "--dt", "0.0005",
        "--T", "0.2", "--outdir", str(tmp_path),
    ])
    assert code == 1
    assert "InvalidSource" in capsys.readouterr().err
    assert not (tmp_path / "mms_convergence.csv").exists()


def test_main_mms_convergence_refuses_one_grid(tmp_path, capsys):
    code = main([
        "mms-convergence", "--grids", "0.1", "--dt", "0.0005", "--T", "0.2",
        "--outdir", str(tmp_path),
    ])
    assert code == 1  # a configuration error
    assert "InvalidGrids" in capsys.readouterr().err
    assert not (tmp_path / "mms_convergence.csv").exists()


def test_main_mms_convergence_refuses_full_mode(tmp_path, capsys):
    code = main([
        "mms-convergence", "--mode", "full", "--l", "0.5", "--grids", "0.1,0.05",
        "--dt", "0.0005", "--T", "0.2", "--outdir", str(tmp_path),
    ])
    assert code == 1
    assert "InvalidMode" in capsys.readouterr().err
    assert not (tmp_path / "mms_convergence.csv").exists()


@pytest.mark.parametrize("command", ["eta-sweep", "condition-study"])
def test_main_study_refuses_full_mode(tmp_path, capsys, command):
    code = main([
        command, "--mode", "full", "--l", "0.5", "--etas", "1e-2,1e-3", "--dx", "0.1",
        "--dy", "0.1", "--dt", "0.01", "--T", "0.2", "--outdir", str(tmp_path),
    ])
    assert code == 1
    assert "InvalidMode" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args,failure",
    [
        (["mms-convergence", "--eta", "0", "--grids", "0.1,0.05", "--dt", "0.0005"],
         "EtaZeroUndefined"),
        (["eta-sweep", "--etas", "1e-2,1e-14", "--dx", "0.1", "--dy", "0.1", "--dt", "0.01"],
         "SingularPivot"),
    ],
    ids=["mms-convergence", "eta-sweep"],
)
def test_main_study_runs_the_given_scheme(tmp_path, capsys, args, failure):
    # the single-field scheme is undefined at eta = 0 and its factorization is
    # refused at eta = 1e-14; the coupled scheme runs the same sweep
    code = main(args + ["--scheme", "naive", "--T", "0.2", "--outdir", str(tmp_path / "naive")])
    assert code == 2
    assert failure in capsys.readouterr().err
    assert main(args + ["--T", "0.2", "--outdir", str(tmp_path / "ap")]) == 0


@pytest.mark.parametrize(
    "args",
    [
        ["mms-convergence", "--grids", ","],
        ["mms-convergence", "--grids", "0.1,0"],
        ["eta-sweep", "--etas", ","],
        ["eta-sweep", "--etas", "1e-2"],
        ["eta-sweep", "--etas", "1e-2,1e-2"],
        ["eta-sweep", "--etas", "1e-2,0"],
        ["condition-study", "--etas", ","],
    ],
    ids=lambda a: f"{a[0]} {a[2]}",
)
def test_main_study_refuses_a_sweep_it_cannot_run_or_fit(tmp_path, capsys, args):
    # a fitted study needs two distinct values, all > 0; the condition study one
    code = main(args + ["--dx", "0.1", "--dy", "0.1", "--dt", "0.01", "--T", "0.2",
                        "--outdir", str(tmp_path / "out")])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args,left_out",
    [
        (["mms-convergence", "--grids", "0.1,0.05", "--dt", "0.0005", "--T", "0.2"],
         {"dx", "dy"}),
        (["eta-sweep", "--etas", "1e-2,1e-3", "--dx", "0.1", "--dy", "0.1", "--dt", "0.01",
          "--nu", "0.01", "--T", "0.2"], {"eta", "source"}),
        (["condition-study", "--etas", "1e-2,0", "--dx", "0.1", "--dy", "0.1"],
         {"eta", "T", "scheme", "source"}),
    ],
    ids=["mms-convergence", "eta-sweep", "condition-study"],
)
def test_main_study_echo_leaves_out_replaced_and_unread_keys(tmp_path, capsys, args, left_out):
    # the swept values replace dx/dy or eta; the sweep always runs eq4, and the
    # condition study reads neither T, nor the scheme (it builds both), nor the source
    assert main(args + ["--outdir", str(tmp_path)]) == 0
    name = args[0].replace("-", "_")
    echo, extra = (tmp_path / f"{name}.config.txt").read_text().splitlines()
    keys = [pair.split("=", 1)[0] for pair in echo.split()]
    assert keys == [key for key in KEYS if key != "outdir" and key not in left_out]
    assert extra.split()[0] == f"{args[1][2:]}={args[2]}"  # grids=... or etas=...


def test_main_eta_sweep_quick(tmp_path, capsys):
    code = main([
        "eta-sweep", "--etas", "1e-2,1e-3", "--dx", "0.1", "--dy", "0.1",
        "--dt", "0.01", "--nu", "0.01", "--T", "0.2", "--outdir", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "eta_sweep.csv").exists()
    assert (tmp_path / "eta_sweep.config.txt").exists()


def test_main_eta_sweep_refuses_nonzero_lambda(tmp_path, capsys):
    code = main([
        "eta-sweep", "--lambda", "0.5", "--etas", "1e-2,1e-3", "--dx", "0.1", "--dy", "0.1",
        "--dt", "0.01", "--nu", "0.01", "--T", "0.2", "--outdir", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "InvalidLambda" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_condition_study_meshes_the_given_dy(tmp_path, capsys):
    def rows(dy):
        out = tmp_path / dy
        assert main([
            "condition-study", "--etas", "1e-2,0", "--dx", "0.1", "--dy", dy,
            "--outdir", str(out),
        ]) == 0
        return (out / "condition_study.csv").read_text().splitlines()[1:]

    coarse, fine = rows("0.1"), rows("0.05")
    assert len(coarse) == len(fine) == 2
    assert all(a != b for a, b in zip(coarse, fine))
