"""Command-line interface: argument handling, exit codes, fault injection
through the verification harness, and the artifacts each subcommand writes."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qna import checks, cli
from qna.cli import build_parser, main, run_train_toy
from qna.layer import QnAParams
from qna.tensor import NumericalRangeError, make_rng, save_qnat


def _with_perturbed(fn, tensor):
    """``fn`` evaluated on a copy of its params with one entry of ``tensor``
    moved by 0.1, far above every tolerance of ``check``."""
    def wrapped(x, cfg, params, *args):
        bad = QnAParams(**{n: t.copy() for n, t in params.tensors().items()})
        bad.tensors()[tensor].reshape(-1)[0] += 0.1
        return fn(x, cfg, bad, *args)
    return wrapped


# ---------------------------------------------------------------------------
# Parser and usage errors
# ---------------------------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    for argv in ([], ["frobnicate"], ["check", "--grid", "huge"],
                 ["bench", "--input", "abc"], ["bench", "--k", "3,x"],
                 ["bench", "--impls", "nope"], ["model"],
                 ["model", "--variant", "giga"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()


def test_bench_conv_impl_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--impls", "conv"])
    assert exc.value.code == 2
    assert "choose from qna_efficient, qna_unfold, sasa_unfold" in capsys.readouterr().err


def test_parser_defaults():
    args = build_parser().parse_args(["check"])
    assert args.grid == "small" and args.dtype == "f64" and args.seed == 42
    args = build_parser().parse_args(["bench"])
    assert args.input == (256, 256, 64)
    assert args.k == (3, 5, 7, 9, 11, 13, 15)
    assert len(args.impls) == 3
    assert args.out == "qna_bench.csv"
    args = build_parser().parse_args(["train-toy"])
    assert args.steps == 200 and args.seed == 42


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_small_grid_passes(capsys):
    assert main(["check", "--grid", "small"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "gradcheck" in out  # f64 default includes the gradient check


def test_check_small_grid_f32(capsys):
    assert main(["check", "--grid", "small", "--dtype", "f32"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "gradcheck" not in out


def test_small_f32_grid_has_48_passing_cases():
    errs = [err for _, err in checks.oracle_grid(checks.SMALL_GRID, "f32", 42)]
    assert len(errs) == 48
    assert max(errs) < 1e-5


@pytest.mark.parametrize("tensor", ["w_o", "bias"])
def test_check_fault_injection_fails(tensor, capsys, monkeypatch):
    # an oracle that disagrees with the layer must fail the grid
    monkeypatch.setattr(checks, "qna_window_oracle",
                        _with_perturbed(checks.qna_window_oracle, tensor))
    assert main(["check", "--grid", "small", "--dtype", "f32"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tensor", ["w_v", "queries", "bias"])
def test_check_gradcheck_fault_injection(tensor, capsys, monkeypatch):
    # analytic gradients of other weights must fail the finite-difference check
    monkeypatch.setattr(cli, "qna_backward", _with_perturbed(cli.qna_backward, tensor))
    assert main(["check", "--grid", "small"]) == 1
    out = capsys.readouterr().out
    assert "FAIL gradcheck" in out and "FAIL grid" not in out


def test_check_tiny_model(capsys):
    assert main(["check", "--grid", "tiny-model"]) == 0
    assert "tiny-model oracle swap" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["bench", "--input", "12x12x4", "--k", "1,3",
                 "--impls", "qna_efficient,sasa_unfold", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("impl,k,H")
    assert len(lines) == 5
    assert lines[1].split(",")[0] == "qna_efficient"
    assert "wrote 4 rows" in capsys.readouterr().out


def test_bench_unwritable_path_exits_three(tmp_path, capsys):
    code = main(["bench", "--input", "8x8x4", "--k", "1",
                 "--impls", "sasa_unfold", "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 3
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


def test_model_report_text(capsys):
    assert main(["model", "--variant", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "total params" in out and "total macs" in out
    assert "patch_embed" in out and "head" in out


def test_model_report_json(capsys):
    assert main(["model", "--variant", "tiny", "--report", "params", "--json"]) == 0
    import json

    doc = json.loads(capsys.readouterr().out)
    assert doc["variant"] == "tiny"
    assert "params" in doc and "flops" not in doc
    assert all("flops" not in row for row in doc["rows"])
    assert doc["params"] == sum(row["params"] for row in doc["rows"])


def test_model_bad_resolution_exits_two(capsys):
    assert main(["model", "--variant", "tiny", "--resolution", "223"]) == 2
    assert "divisible by 32" in capsys.readouterr().err
    for resolution in ("0", "-32"):  # multiples of 32, but not positive
        assert main(["model", "--variant", "tiny", "--resolution", resolution]) == 2
        assert "positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# viz
# ---------------------------------------------------------------------------


def _write_input(path, shape, dtype=np.float64, seed=0):
    save_qnat(path, make_rng(seed).standard_normal(shape).astype(dtype))


def test_viz_writes_pgm_per_query_and_head(tmp_path, capsys):
    src = tmp_path / "map.qnat"
    _write_input(src, (12, 10, 6))
    outdir = tmp_path / "maps"
    assert main(["viz", "--input", str(src), "--out", str(outdir)]) == 0
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["attn_q0_h0.pgm", "attn_q0_h1.pgm", "attn_q1_h0.pgm", "attn_q1_h1.pgm"]
    blob = (outdir / "attn_q0_h0.pgm").read_bytes()
    assert blob.startswith(b"P5\n10 12\n255\n")
    assert len(blob) == len(b"P5\n10 12\n255\n") + 12 * 10


def test_viz_odd_channels_single_head(tmp_path):
    src = tmp_path / "map.qnat"
    _write_input(src, (6, 6, 5))
    outdir = tmp_path / "maps"
    assert main(["viz", "--input", str(src), "--out", str(outdir)]) == 0
    assert len(list(outdir.iterdir())) == 2  # L=2, one head


def test_write_pgm_scaling(tmp_path):
    from qna.cli import _write_pgm

    path = tmp_path / "ramp.pgm"
    _write_pgm(path, np.array([[0.0, 51.0], [102.0, 255.0]]))
    assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 51, 102, 255])
    # a constant map has no range to normalize; it renders as black
    _write_pgm(path, np.full((2, 3), 7.25))
    assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes(6)


def test_viz_missing_file_exits_three(tmp_path, capsys):
    assert main(["viz", "--input", str(tmp_path / "nope.qnat")]) == 3
    assert "error" in capsys.readouterr().err


def test_viz_corrupt_file_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.qnat"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert main(["viz", "--input", str(bad)]) == 3
    capsys.readouterr()


def test_viz_wrong_rank_exits_two(tmp_path, capsys):
    src = tmp_path / "mat.qnat"
    _write_input(src, (6, 6))
    assert main(["viz", "--input", str(src)]) == 2
    assert "rank" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-2"])
def test_viz_bad_window_exits_two(tmp_path, capsys, k):
    src = tmp_path / "map.qnat"
    _write_input(src, (6, 6, 4))
    assert main(["viz", "--input", str(src), "--k", k, "--out", str(tmp_path / "maps")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_viz_non_finite_input_exits_two(tmp_path, capsys):
    src = tmp_path / "map.qnat"
    x = make_rng(0).standard_normal((6, 6, 4))
    x[2, 3, 1] = np.nan
    save_qnat(src, x)
    assert main(["viz", "--input", str(src), "--out", str(tmp_path / "maps")]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_viz_no_channels_exits_two(tmp_path, capsys):
    src = tmp_path / "map.qnat"
    _write_input(src, (6, 6, 0))
    assert main(["viz", "--input", str(src), "--out", str(tmp_path / "maps")]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------


def test_train_toy_short_run_prints_trace(capsys):
    code = main(["train-toy", "--steps", "20"])
    out = capsys.readouterr().out
    assert "step    0" in out
    assert "step   10" in out
    assert out.strip().splitlines()[-1].startswith(("PASS", "FAIL"))
    assert code in (0, 1)  # 20 steps need not reach the halving target


def test_train_toy_zero_lr_fails(capsys):
    assert main(["train-toy", "--steps", "5", "--lr", "0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_train_toy_bad_steps_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train-toy", "--steps", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_run_train_toy_deterministic():
    a = run_train_toy(6, 0.2, 11)
    b = run_train_toy(6, 0.2, 11)
    assert a[0] == b[0] and a[1] == b[1]
    assert a[2] == b[2] and len(a[2]) == 7  # per-step losses plus the final
    c = run_train_toy(6, 0.2, 12)
    assert c[0] != a[0] or c[1] != a[1]


def test_run_train_toy_batches_its_layer_calls(monkeypatch):
    # two steps over 32 samples in slices of 16 make 4 forward-with-tape
    # calls, and the final evaluation 2 plain forward calls
    calls = {"qna_forward": 0, "qna_vjp": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    run_train_toy(2, 0.2, 1)
    assert calls == {"qna_forward": 2, "qna_vjp": 4}


def test_run_train_toy_zero_lr_keeps_loss():
    initial, final, trace = run_train_toy(4, 0.0, 3)
    assert initial == final
    assert all(v == initial for v in trace)
    with pytest.raises(ValueError):
        run_train_toy(0, 0.1, 3)


# ---------------------------------------------------------------------------
# Exit-code contract
# ---------------------------------------------------------------------------


def _fake_trainer(*args, **kwargs):
    raise NumericalRangeError("window weight sum underflowed to zero")


# One row per argv: the exit codes it may end with, and whether main maps a
# raised error to that code (one "error:" line on stderr) rather than argparse
# rejecting the argv or the handler returning its verdict. "{tmp}" is the
# test's directory, which holds the viz inputs. A row whose argv starts with
# "fake-trainer" runs train-toy with run_train_toy raising NumericalRangeError.
EXIT_CONTRACT = [
    *((["check", "--seed", seed], {2}, False) for seed in ("-1", str(2**64), "x")),
    (["bench", "--seed", "-1"], {2}, False),
    (["model", "--variant", "tiny", "--seed", "42"], {2}, False),  # model draws nothing
    (["viz", "--input", "{tmp}/map.qnat", "--seed", "-1"], {2}, False),
    (["train-toy", "--seed", "-1"], {2}, False),
    *((["train-toy", "--lr", lr], {2}, False) for lr in ("nan", "inf", "-inf", "fast")),
    *((["train-toy", "--steps", steps], {2}, False) for steps in ("0", "-3", "1.5")),
    (["train-toy", "--steps", "2", "--lr", "1e9"], {2}, True),
    (["fake-trainer", "--steps", "1"], {2}, True),
    (["check", "--grid", "tiny-model", "--seed", str(2**64 - 1)], {0, 1}, False),
    (["model", "--variant", "tiny", "--resolution", "223"], {2}, True),
    (["viz", "--input", "{tmp}/rank2.qnat", "--out", "{tmp}/maps"], {2}, True),
    (["viz", "--input", "{tmp}/nonfinite.qnat", "--out", "{tmp}/maps"], {2}, True),
    (["viz", "--input", "{tmp}/empty.qnat", "--out", "{tmp}/maps"], {2}, True),
    (["viz", "--input", "{tmp}/no_rows.qnat", "--out", "{tmp}/maps"], {2}, True),
    (["viz", "--input", "{tmp}/no_cols.qnat", "--out", "{tmp}/maps"], {2}, True),
    (["viz", "--input", "{tmp}/missing.qnat", "--out", "{tmp}/maps"], {3}, True),
    (["viz", "--input", "{tmp}/corrupt.qnat", "--out", "{tmp}/maps"], {3}, True),
    (["bench", "--input", "8x8x4", "--k", "1", "--impls", "sasa_unfold",
      "--out", "{tmp}/missing/x.csv"], {3}, True),
]


@pytest.mark.parametrize("argv, codes, mapped", EXIT_CONTRACT,
                         ids=[" ".join(row[0]) for row in EXIT_CONTRACT])
def test_exit_code_contract(argv, codes, mapped, tmp_path, capsys, monkeypatch):
    _write_input(tmp_path / "map.qnat", (6, 6, 4))
    _write_input(tmp_path / "rank2.qnat", (6, 6))
    _write_input(tmp_path / "empty.qnat", (6, 6, 0))
    _write_input(tmp_path / "no_rows.qnat", (0, 5, 4))
    _write_input(tmp_path / "no_cols.qnat", (5, 0, 4))
    x = make_rng(0).standard_normal((6, 6, 4))
    x[2, 3, 1] = np.inf
    save_qnat(tmp_path / "nonfinite.qnat", x)
    (tmp_path / "corrupt.qnat").write_bytes(b"JUNKJUNKJUNK")
    if argv[0] == "fake-trainer":
        monkeypatch.setattr(cli, "run_train_toy", _fake_trainer)
        argv = ["train-toy", *argv[1:]]
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in codes
    assert "Traceback" not in err
    if mapped:
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: {argv[0]}: ")


def test_entry_point_exit_codes(tmp_path):
    # the installed script and python -m run sys.exit(main())
    src = str(Path(cli.__file__).resolve().parents[1])
    for argv, code in ((["check", "--seed", "-1"], 2),
                       (["viz", "--input", str(tmp_path / "missing.qnat")], 3)):
        proc = subprocess.run([sys.executable, "-m", "qna.cli", *argv], cwd=src,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
