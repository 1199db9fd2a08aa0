"""Tests for the command-line interface: files, formats, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from capwhitham import cli, errors
from capwhitham.cli import main

GOLDEN = Path(__file__).parent / "golden" / "expansion_2_5.json"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stderr_envelope(err):
    lines = [line for line in err.strip().splitlines() if line]
    assert len(lines) == 1
    return json.loads(lines[0])


def test_expand_writes_golden_bytes(tmp_path, capsys):
    code, out, err = _run(
        capsys, "expand", "--k1", "2", "--k2", "5", "--out", str(tmp_path)
    )
    assert code == 0
    assert err == ""
    path = Path(out.strip())
    assert path == tmp_path / "expansion.json"
    assert path.read_bytes() == GOLDEN.read_bytes()
    data = json.loads(path.read_text())
    monomials = {tuple(m["factors"]): m["coeff"] for m in data["monomials"]}
    assert monomials == oracles.MONOMIALS_2_5
    assert data["prefactor_exponent"] == oracles.PREFACTOR_EXPONENT_2_5
    assert data["N"] == 630
    assert data["M"] == 4


# SHA-256 of `capwhitham expand` output, N = 2 to 4.7e7 terms, pinned so
# that the expansion and its writer cannot change a byte.
EXPANSION_SHA256 = {
    (1, 2): "d897e9cb8bc7ff545c2fd1d4953f3dd1ea6ebdbd64129692fb5147e15dc7f819",
    (3, 7): "bc6c65738d492aba9a05271906f74d559ecd2707cc6d7a94c75abb66a33ac540",
    (4, 7): "2d6fc51843b9c852ea62ff3ab567cb352e0ddb3e1f6b4cd6274bd39fdb3dd183",
    (5, 7): "20ff5b0c83327812dd96248ff105c11b66b849634106c0d4078f05db097e35be",
    (3, 8): "8966c33f77467022255c797ba7668180fb5599d45ecafe81f0588561c67f46ff",
    (2, 9): "f11f43978f4e0663e52c2583891eb8541f230197ffd72644cf65c1dd775e1b32",
    (4, 9): "1e871514365c81f9a62b475bf8bb3da738bc1b2979577f4d2a74b36b8f407808",
    (5, 8): "3901112dda5def9112c725fef5ad7367fbc878c1ce2bf5b6867b69260f57537f",
}


@pytest.mark.parametrize("pair", sorted(EXPANSION_SHA256), ids=lambda p: f"{p[0]}_{p[1]}")
def test_expand_bytes_are_pinned(tmp_path, capsys, pair):
    code, out, err = _run(
        capsys, "expand", "--k1", str(pair[0]), "--k2", str(pair[1]), "--out", str(tmp_path)
    )
    assert (code, err) == (0, "")
    digest = hashlib.sha256((tmp_path / "expansion.json").read_bytes()).hexdigest()
    assert digest == EXPANSION_SHA256[pair]


_PAIR = ("--k1", "2", "--k2", "5")
_WAVE_SOLVED = (
    "wave", *_PAIR, "--r1", "0.00125", "--r2", "0.00125",
    "--theta1", "0.15707963", "--T", "0.121474418228",
)
_WAVE_FOLD = (
    "wave", *_PAIR, "--r1", "0.05", "--r2", "0.05",
    "--theta1", "0.15707963267948966", "--T", "0.1215",
)
_PHI_CURVE_SVG = "a3902ce8e9c7f1dc87fc6e0dc217f60af41d68f17e583448a504b9540f9ab56a"
_PAIRS_SVG = "03606c3e698ec9777e13b4505161fbdbd435e6b277619ce3259d599f91da648d"

# SHA-256 of every file each tabular request writes, in both formats, so
# that the table writer cannot change a byte: (argv, exit code, digests).
TABLE_SHA256 = {
    "bifurcate-csv": (
        ("bifurcate", *_PAIR, "--T-grid", "0.05:0.3:26", "--format", "csv"), 0,
        {"bifurcate.csv": "2acb4565034cd0bcafbe7eaaff7df2e2bba1625d4765cd8b7fc3c1cbd27bb995"},
    ),
    "bifurcate-json": (
        ("bifurcate", *_PAIR, "--T-grid", "0.05:0.3:26", "--format", "json"), 0,
        {"bifurcate.json": "2551e72090e5d7233923bffdea0703cc853c0aa2e897bfb94c8edc03a40f6c08"},
    ),
    "phi-eval-csv": (
        ("phi", "eval", *_PAIR, "--T", "0.1215", "--format", "csv"), 0,
        {"phi_eval.csv": "57bc41ba5042d3ec267358f89c69f45c9e563792803ec6f7a8b874cdabf32ad6"},
    ),
    "phi-eval-json": (
        ("phi", "eval", *_PAIR, "--T", "0.1215", "--format", "json"), 0,
        {"phi_eval.json": "8415e2ed5149adfe5444a93502e2519da7bb5966237b977e7c4f93b630d13f72"},
    ),
    "phi-root-csv": (
        ("phi", "root", "--k1", "4", "--k2", "9", "--format", "csv"), 0,
        {"phi_roots.csv": "0341077b3d2e7a94365f68a5cc2b860ed579349b1eb9a39be05631fd3cf8c7f3"},
    ),
    "phi-root-json": (
        ("phi", "root", "--k1", "4", "--k2", "9", "--format", "json"), 0,
        {"phi_roots.json": "3651e07ef587e017d781260edf1de3082de209cb453f27d4c736b3bb67db31be"},
    ),
    "phi-limits-csv": (
        ("phi", "limits", *_PAIR, "--format", "csv"), 0,
        {"phi_limits.csv": "529b18530f66c8723ddc231ea827b1d23a3f06c67a0c20a2e1797e68757ce547"},
    ),
    "phi-limits-json": (
        ("phi", "limits", *_PAIR, "--format", "json"), 0,
        {"phi_limits.json": "b1a6d8174abe48e97a0582e9dbfc411a06d278ac7713d2d7bcd92ab2791ecdb7"},
    ),
    "phi-curve-csv": (
        ("phi", "curve", *_PAIR, "--grid", "50", "--format", "csv"), 0,
        {
            "phi_curve.csv": "941c3da390ef53fd63f40d6d7c16f4896082dd3e42266dfa9b3e733b115819fc",
            "phi_curve.svg": _PHI_CURVE_SVG,
        },
    ),
    "phi-curve-json": (
        ("phi", "curve", *_PAIR, "--grid", "50", "--format", "json"), 0,
        {
            "phi_curve.json": "f81d7269b2a9660d9ba027c592059e53c632a33623f5eb087146fa39b8a8d64d",
            "phi_curve.svg": _PHI_CURVE_SVG,
        },
    ),
    "pairs-csv": (
        ("pairs", "--kmax", "12", "--refine", "--format", "csv"), 0,
        {
            "pairs.csv": "3f80ef8830fe4c35aa65192a2bcc4831e588133e8a672d47224319b81bbdf7cc",
            "pairs.svg": _PAIRS_SVG,
        },
    ),
    "pairs-json": (
        ("pairs", "--kmax", "12", "--refine", "--format", "json"), 0,
        {
            "pairs.json": "2413b04507e9316262168436dd0755dffe0479ef25db76dffceeb7954c99bf9b",
            "pairs.svg": _PAIRS_SVG,
        },
    ),
    "wave-solved": (
        _WAVE_SOLVED, 0,
        {
            "wave_profile.csv": "2f179f53b778cd015cbb0f369a80e9d3459c1027cb65ba63787ccb3de8ae4585",
            "wave_report.json": "b2a4a67d23176fa5c932f902aef64bf8dbd585b3e916cb008f2ee432d1a18cc7",
        },
    ),
    "wave-fold": (
        _WAVE_FOLD, 3,
        {"wave_report.json": "307a2477e62aa89ddc3aa6447a9d7bc5c6cde4139192ee0ebc76b8bc65e0155b"},
    ),
}


@pytest.mark.parametrize("request_id", sorted(TABLE_SHA256))
def test_table_bytes_are_pinned(tmp_path, capsys, request_id):
    argv, expected_code, digests = TABLE_SHA256[request_id]
    code, out, err = _run(capsys, *argv, "--out", str(tmp_path))
    assert code == expected_code
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


EXIT_CODES = {
    "CapWhithamError": 2,
    "DomainError": 2,
    "NearResonanceError": 2,
    "TruncationError": 2,
    "DegenerateDirectionError": 2,
    "ConvergenceError": 3,
    "DivergenceError": 3,
    "SizeGuardError": 4,
}


@pytest.mark.parametrize("name", errors.__all__)
def test_exit_code_follows_error_class(tmp_path, capsys, monkeypatch, name):
    error_type = getattr(errors, name)

    def fail(args, cfg):
        raise error_type("injected failure", where="handler")

    monkeypatch.setattr(cli, "_cmd_expand", fail)
    code, out, err = _run(capsys, "expand", *_PAIR, "--out", str(tmp_path))
    assert code == EXIT_CODES[name]
    assert out == ""
    assert err.count("\n") == 1
    assert _stderr_envelope(err) == {
        "code": code,
        "message": "injected failure",
        "context": {"where": "handler"},
    }


def test_expand_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    _run(capsys, "expand", "--k1", "3", "--k2", "7", "--out", str(first))
    _run(capsys, "expand", "--k1", "3", "--k2", "7", "--out", str(second))
    assert (first / "expansion.json").read_bytes() == (
        second / "expansion.json"
    ).read_bytes()


def test_expand_size_guard_exit_code(tmp_path, capsys):
    code, out, err = _run(
        capsys, "expand", "--k1", "5", "--k2", "9", "--out", str(tmp_path)
    )
    assert code == 4
    envelope = _stderr_envelope(err)
    assert envelope["code"] == 4
    assert "size" in envelope["context"]
    assert not (tmp_path / "expansion.json").exists()


def test_reduction_warning_envelope(tmp_path, capsys):
    code, out, err = _run(
        capsys, "expand", "--k1", "4", "--k2", "10", "--out", str(tmp_path)
    )
    assert code == 0
    envelope = _stderr_envelope(err)
    assert envelope["code"] == 0
    assert envelope["context"]["input"] == [4, 10]
    assert envelope["context"]["reduced"] == [2, 5]
    # The emitted expansion is that of the reduced pair.
    written = json.loads((tmp_path / "expansion.json").read_text())
    assert written == json.loads(GOLDEN.read_text())


def test_bifurcate_single_tension_csv(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        "bifurcate", "--k1", "2", "--k2", "5", "--T", "0.1215",
        "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "bifurcate.csv").read_text().strip().splitlines()
    assert lines[0] == "T,c0,kappa0,residual"
    values = [float(v) for v in lines[1].split(",")]
    assert values[0] == pytest.approx(0.1215)
    assert values[1] == pytest.approx(oracles.C0_2_5_T01215, rel=1e-12)
    assert values[2] == pytest.approx(oracles.KAPPA0_2_5_T01215, rel=1e-12)
    assert abs(values[3]) <= 1e-12


def test_bifurcate_t_grid_json(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        "bifurcate", "--k1", "2", "--k2", "5", "--T-grid", "0.05:0.15:3",
        "--format", "json", "--out", str(tmp_path),
    )
    assert code == 0
    data = json.loads((tmp_path / "bifurcate.json").read_text())
    assert data["pair"] == [2, 5]
    assert [p["T"] for p in data["points"]] == pytest.approx([0.05, 0.1, 0.15])
    assert all(0.0 < p["c0"] < 1.0 for p in data["points"])


def test_bifurcate_requires_tension(tmp_path, capsys):
    code, out, err = _run(
        capsys, "bifurcate", "--k1", "2", "--k2", "5", "--out", str(tmp_path)
    )
    assert code == 2
    assert _stderr_envelope(err)["code"] == 2


def test_bifurcate_rejects_malformed_grid(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        "bifurcate", "--k1", "2", "--k2", "5", "--T-grid", "nope",
        "--out", str(tmp_path),
    )
    assert code == 2


def test_phi_eval_json(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        "phi", "eval", "--k1", "2", "--k2", "5", "--T", "0.1215",
        "--out", str(tmp_path),
    )
    assert code == 0
    data = json.loads((tmp_path / "phi_eval.json").read_text())
    assert data["phi"] == pytest.approx(oracles.PHI_2_5_T01215, rel=1e-6)


def test_phi_eval_requires_tension(tmp_path, capsys):
    code, _, err = _run(
        capsys, "phi", "eval", "--k1", "2", "--k2", "5", "--out", str(tmp_path)
    )
    assert code == 2


def test_phi_root_json(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        "phi", "root", "--k1", "2", "--k2", "5", "--out", str(tmp_path),
    )
    assert code == 0
    data = json.loads((tmp_path / "phi_roots.json").read_text())
    assert len(data["roots"]) == 1
    assert data["roots"][0]["T0"] == pytest.approx(oracles.T0_2_5, abs=1e-10)


def test_phi_limits_csv(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        "phi", "limits", "--k1", "2", "--k2", "5", "--format", "csv",
        "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "phi_limits.csv").read_text().strip().splitlines()
    assert lines[0] == "limit_low,limit_high"
    low, high = (float(v) for v in lines[1].split(","))
    assert low == pytest.approx(oracles.PHI_LIMIT_LOW_2_5, rel=1e-9)
    assert high == pytest.approx(oracles.PHI_LIMIT_HIGH_2_5, rel=1e-9)


def test_phi_curve_files_and_grid(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        "phi", "curve", "--k1", "2", "--k2", "5", "--grid", "24",
        "--out", str(tmp_path),
    )
    assert code == 0
    paths = [Path(line) for line in out.strip().splitlines()]
    assert paths == [tmp_path / "phi_curve.csv", tmp_path / "phi_curve.svg"]
    lines = (tmp_path / "phi_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "T,phi"
    assert len(lines) == 1 + 24
    svg_text = (tmp_path / "phi_curve.svg").read_text()
    assert "<svg" in svg_text and "</svg>" in svg_text


def test_pairs_scan_files(tmp_path, capsys):
    code, out, err = _run(
        capsys, "pairs", "--kmax", "5", "--grid", "64", "--out", str(tmp_path)
    )
    assert code == 0
    lines = (tmp_path / "pairs.csv").read_text().strip().splitlines()
    assert lines[0] == "k1,k2,status,limit_low,limit_high,n_roots,T0_first"
    assert len(lines) == 1 + 10
    admitted = [line for line in lines[1:] if ",admits," in line]
    assert len(admitted) == 1 and admitted[0].startswith("2,5,")
    assert "<svg" in (tmp_path / "pairs.svg").read_text()


def test_pairs_refine_records_roots_json(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        "pairs", "--kmax", "5", "--refine", "--grid", "64", "--format", "json",
        "--out", str(tmp_path),
    )
    assert code == 0
    data = json.loads((tmp_path / "pairs.json").read_text())
    by_pair = {(item["k1"], item["k2"]): item for item in data}
    assert by_pair[(2, 5)]["status"] == "admits"
    assert by_pair[(3, 5)]["status"] == "undecided"
    assert by_pair[(2, 3)]["status"].startswith("excluded")


def test_pairs_refine_rejects_small_grid(tmp_path, capsys):
    # A refined scan needs the 16-point root grid; it fails up front
    # instead of marking every refined pair undecided.
    code, out, err = _run(
        capsys, "pairs", "--kmax", "6", "--refine", "--grid", "8", "--out", str(tmp_path)
    )
    assert code == 2
    assert out == ""
    envelope = _stderr_envelope(err)
    assert envelope["code"] == 2
    assert envelope["context"] == {"grid_size": 8}
    assert list(tmp_path.iterdir()) == []


def test_pairs_rejects_small_kmax(tmp_path, capsys):
    code, _, err = _run(capsys, "pairs", "--kmax", "2", "--out", str(tmp_path))
    assert code == 2


def test_wave_solve_writes_profile_and_report(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        "wave", "--k1", "2", "--k2", "5", "--r1", "0.00125", "--r2", "0.00125",
        "--theta1", str(math.pi / 20.0), "--T", str(oracles.T0_2_5),
        "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "wave_profile.csv").read_text().strip().splitlines()
    assert lines[0] == "x,u"
    assert len(lines) == 1 + 1024
    report = json.loads((tmp_path / "wave_report.json").read_text())
    assert report["converged"] is True
    assert report["mode"] == "asymmetric"
    assert report["asymmetric"] is True
    assert abs(report["T"] - oracles.T0_2_5) <= 5e-3
    assert report["period"] == pytest.approx(math.pi / report["kappa"])
    assert report["residuals"]["J_inf"] <= 1e-10


def test_wave_fold_exit_code_and_report(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        "wave", "--k1", "2", "--k2", "5", "--r1", "0.05", "--r2", "0.05",
        "--theta1", str(math.pi / 20.0), "--T", "0.1215",
        "--out", str(tmp_path),
    )
    assert code == 3
    envelope = _stderr_envelope(err)
    assert envelope["code"] == 3
    report = json.loads((tmp_path / "wave_report.json").read_text())
    assert report["converged"] is False
    assert "error" in report
    assert "fold" in report["error"]["message"]
    # The report path is still announced on stdout.
    assert str(tmp_path / "wave_report.json") in out


@pytest.mark.parametrize(
    "flags",
    [("--r1", "nan", "--r2", "0.01"), ("--r1", "0.01", "--r2", "0.01", "--theta1", "inf")],
)
def test_wave_rejects_non_finite_parameters(tmp_path, capsys, flags):
    out = tmp_path / "out"
    code, stdout, err = _run(
        capsys,
        "wave", "--k1", "2", "--k2", "5", *flags, "--T", "0.1215",
        "--out", str(out),
    )
    assert code == 2
    assert stdout == ""
    envelope = _stderr_envelope(err)
    assert envelope["code"] == 2
    assert envelope["message"] == "modal parameters must be finite"
    assert not out.exists()


def test_config_file_env_and_flag_precedence(tmp_path, capsys, monkeypatch):
    env_cfg = tmp_path / "env.cfg"
    env_cfg.write_text("grid = 10\n")
    file_cfg = tmp_path / "file.cfg"
    file_cfg.write_text("grid = 14\n")

    # Environment variable alone.
    monkeypatch.setenv("CAPWHITHAM_CONFIG", str(env_cfg))
    out_a = tmp_path / "a"
    _run(capsys, "phi", "curve", "--k1", "2", "--k2", "5", "--out", str(out_a))
    assert len((out_a / "phi_curve.csv").read_text().strip().splitlines()) == 11

    # --config beats the environment.
    out_b = tmp_path / "b"
    _run(
        capsys,
        "--config", str(file_cfg),
        "phi", "curve", "--k1", "2", "--k2", "5", "--out", str(out_b),
    )
    assert len((out_b / "phi_curve.csv").read_text().strip().splitlines()) == 15

    # An explicit flag beats both.
    out_c = tmp_path / "c"
    _run(
        capsys,
        "--config", str(file_cfg),
        "phi", "curve", "--k1", "2", "--k2", "5", "--grid", "18",
        "--out", str(out_c),
    )
    assert len((out_c / "phi_curve.csv").read_text().strip().splitlines()) == 19


def test_config_rejects_unknown_key(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 3\n")
    code, _, err = _run(
        capsys,
        "--config", str(bad),
        "phi", "limits", "--k1", "2", "--k2", "5", "--out", str(tmp_path),
    )
    assert code == 2


def test_config_rejects_svg_format(tmp_path, capsys):
    # No command writes its table as SVG, so the config file may not ask
    # for it (the --format flag already refuses it).
    cfg = tmp_path / "svg.cfg"
    cfg.write_text("format = svg\n")
    out = tmp_path / "out"
    for argv in (
        ("phi", "eval", "--k1", "2", "--k2", "5", "--T", "0.1"),
        ("phi", "curve", "--k1", "2", "--k2", "5", "--grid", "10"),
        ("bifurcate", "--k1", "2", "--k2", "5", "--T", "0.1"),
    ):
        code, stdout, err = _run(
            capsys, "--config", str(cfg), *argv, "--out", str(out)
        )
        assert code == 2
        assert stdout == ""
        assert _stderr_envelope(err)["message"] == "unknown output format"
    assert not out.exists()


def test_stdout_lists_every_written_file(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        "wave", "--k1", "2", "--k2", "5", "--r1", "0.001", "--r2", "0.001",
        "--theta1", str(math.pi / 20.0), "--T", str(oracles.T0_2_5),
        "--out", str(tmp_path),
    )
    assert code == 0
    printed = [Path(line) for line in out.strip().splitlines()]
    assert printed == [tmp_path / "wave_profile.csv", tmp_path / "wave_report.json"]
    for path in printed:
        assert path.exists()


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; the command line must not load it.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, capwhitham.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
