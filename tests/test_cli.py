"""Tests for the command-line interface: files, formats, exit codes."""

import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from capwhitham import DomainError, SizeGuardError, WaveNumberPair, cli, coefficients
from capwhitham import emitters, errors
from capwhitham import symbol, symmetry_breaking
from capwhitham.cli import main

GOLDEN = Path(__file__).parent / "golden" / "expansion_2_5.json"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def _stderr_envelope(err):
    lines = [line for line in err.strip().splitlines() if line]
    assert len(lines) == 1
    return json.loads(lines[0], parse_constant=_reject_constant)


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


# SHA-256 of `capwhitham expand` output, N = 2 to 6.8e7 terms, pinned so
# that the expansion and its writer cannot change a byte.  (6, 7), (3, 11)
# and (2, 13) are the largest pairs under the size guard, with the widest
# exponent rows and the largest coefficients.
EXPANSION_SHA256 = {
    (1, 2): "d897e9cb8bc7ff545c2fd1d4953f3dd1ea6ebdbd64129692fb5147e15dc7f819",
    (3, 7): "bc6c65738d492aba9a05271906f74d559ecd2707cc6d7a94c75abb66a33ac540",
    (4, 7): "2d6fc51843b9c852ea62ff3ab567cb352e0ddb3e1f6b4cd6274bd39fdb3dd183",
    (5, 7): "20ff5b0c83327812dd96248ff105c11b66b849634106c0d4078f05db097e35be",
    (3, 8): "8966c33f77467022255c797ba7668180fb5599d45ecafe81f0588561c67f46ff",
    (2, 9): "f11f43978f4e0663e52c2583891eb8541f230197ffd72644cf65c1dd775e1b32",
    (4, 9): "1e871514365c81f9a62b475bf8bb3da738bc1b2979577f4d2a74b36b8f407808",
    (5, 8): "3901112dda5def9112c725fef5ad7367fbc878c1ce2bf5b6867b69260f57537f",
    (6, 7): "3444e40336dcda824145b477b63ab5c4ab221ffd66d8df85f1a0dcd5b6ce69be",
    (3, 11): "a559e49bd02c8c99cf4d119d76635434cc0c46d6344978a1bb11bc87cd4b6fb9",
    (2, 13): "dade36dda4a51b8441a96783b890bfe2eefe589dc36e73d71052ce96a8a7ac29",
}


@pytest.mark.parametrize("pair", sorted(EXPANSION_SHA256), ids=lambda p: f"{p[0]}_{p[1]}")
def test_expand_bytes_are_pinned(tmp_path, capsys, pair):
    code, out, err = _run(
        capsys, "expand", "--k1", str(pair[0]), "--k2", str(pair[1]), "--out", str(tmp_path)
    )
    assert (code, err) == (0, "")
    digest = hashlib.sha256((tmp_path / "expansion.json").read_bytes()).hexdigest()
    assert digest == EXPANSION_SHA256[pair]


def test_expand_builds_no_monomial_objects(tmp_path, capsys, monkeypatch):
    # The expand path writes the file from the exponent rows alone.
    def refuse(*args):
        raise AssertionError("expand built a Monomial")

    monkeypatch.setattr(coefficients, "Monomial", refuse)
    code, out, err = _run(capsys, "expand", "--k1", "5", "--k2", "8", "--out", str(tmp_path))
    assert (code, err) == (0, "")
    digest = hashlib.sha256((tmp_path / "expansion.json").read_bytes()).hexdigest()
    assert digest == EXPANSION_SHA256[(5, 8)]


_PAIR = ("--k1", "2", "--k2", "5")
_WAVE_SOLVED = (
    "wave", *_PAIR, "--r1", "0.00125", "--r2", "0.00125",
    "--theta1", "0.15707963", "--T", "0.121474418228",
)
_WAVE_FOLD = (
    "wave", *_PAIR, "--r1", "0.05", "--r2", "0.05",
    "--theta1", "0.15707963267948966", "--T", "0.1215",
)
# Symmetric (2,5) on the w-Newton fallback, unimodal in k1, and the zero
# wave, which needs no K >= 2*k2.
_T0 = "0.12147441818272467"
_WAVE_SYMMETRIC = (
    "wave", *_PAIR, "--r1", "0.024", "--r2", "0.024",
    "--theta1", "0.6283185307179586", "--T", _T0,
)
_WAVE_UNIMODAL = ("wave", *_PAIR, "--r1", "0.002", "--r2", "0", "--T", _T0)
_WAVE_ZERO = ("wave", *_PAIR, "--r1", "0", "--r2", "0", "--T", _T0, "--K", "4")
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
    # Two worker processes write the serial scan's bytes.
    "pairs-json-jobs2": (
        ("pairs", "--kmax", "12", "--refine", "--jobs", "2", "--format", "json"), 0,
        {
            "pairs.json": "2413b04507e9316262168436dd0755dffe0479ef25db76dffceeb7954c99bf9b",
            "pairs.svg": _PAIRS_SVG,
        },
    ),
    "wave-solved": (
        _WAVE_SOLVED, 0,
        {
            "wave_profile.csv": "1d02adddd0744770a1db4d85dd6aec34c67f9df582116dfff7408f6fe2160fb6",
            "wave_report.json": "50d30c57a5309f39e1aca06bad70c8ac98ef1fd37034ae968ad1f536c79398d6",
        },
    ),
    "wave-fold": (
        _WAVE_FOLD, 3,
        {"wave_report.json": "307a2477e62aa89ddc3aa6447a9d7bc5c6cde4139192ee0ebc76b8bc65e0155b"},
    ),
    # Holds at OpenBLAS's default thread count only: with
    # OPENBLAS_NUM_THREADS=1 the w-Newton fallback's linear solves round
    # differently and the profile and report bytes change.
    "wave-symmetric": (
        _WAVE_SYMMETRIC, 0,
        {
            "wave_profile.csv": "1596df583bd82314aa75b23e77c0bf10c448cfd5d1a84e12c9af7ef650bc706a",
            "wave_report.json": "205f742a2a0e45f04a1e5d1e34252bf587ff67dbe7d969024537997e543b7076",
        },
    ),
    "wave-unimodal": (
        _WAVE_UNIMODAL, 0,
        {
            "wave_profile.csv": "d365eee10d3ff5f65515c6842423f0d6ebce07a4c36d8cc7746da52d2660f9af",
            "wave_report.json": "08a2d04fae6d25384684765d57cc9a96e7b072f93df5e2e5d8551dc01b7ad30e",
        },
    ),
    "wave-zero": (
        _WAVE_ZERO, 0,
        {
            "wave_profile.csv": "bbba289531c5340b39a5a4d22178041fb2a43e7818af9fce3ae5c3953e360b58",
            "wave_report.json": "b0bb111ae94688cc926674cdf988f91b2156ba9945d8befcfc0df8adc331d31f",
        },
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
    "ConvergenceError": 3,
    "SizeGuardError": 4,
}


@pytest.mark.parametrize("name", errors.__all__)
def test_exit_code_follows_error_class(tmp_path, capsys, monkeypatch, name):
    # A retired or added error type without an entry here fails the suite.
    assert set(EXIT_CODES) == set(errors.__all__)
    error_type = getattr(errors, name)

    def fail(args):
        raise error_type("injected failure", where="handler", bounds=(0.5, (math.nan, -math.inf)))

    monkeypatch.setattr(cli, "_cmd_expand", fail)
    code, out, err = _run(capsys, "expand", *_PAIR, "--out", str(tmp_path))
    assert code == EXIT_CODES[name]
    assert out == ""
    assert err.count("\n") == 1
    assert _stderr_envelope(err) == {
        "code": code,
        "message": "injected failure",
        "context": {"where": "handler", "bounds": [0.5, ["nan", "-inf"]]},
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


@pytest.mark.parametrize(
    "argv",
    [("phi", "root", "--grid", "64"), ("phi", "eval", "--T", "0.2"), ("phi", "curve", "--grid", "32")],
    ids=lambda argv: argv[1],
)
def test_k1_one_warning_envelope(tmp_path, capsys, argv):
    code, out, err = _run(capsys, *argv, "--k1", "1", "--k2", "4", "--out", str(tmp_path))
    assert code == 0
    assert len(err.splitlines()) == 1
    envelope = json.loads(err)
    assert envelope["code"] == 0
    assert "k1 = 1" in envelope["message"]
    assert envelope["context"] == {"category": "UserWarning"}


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


def test_bifurcate_t_grid_of_one_point(tmp_path, capsys):
    # One point is A itself: np.linspace(A, inf, 1) would give nan.
    code, out, err = _run(
        capsys, "bifurcate", *_PAIR, "--T-grid", "0.1:0.2:1", "--out", str(tmp_path)
    )
    assert (code, err) == (0, "")
    lines = (tmp_path / "bifurcate.csv").read_text().splitlines()
    assert len(lines) == 2 and float(lines[1].split(",")[0]) == 0.1
    out = tmp_path / "none"
    code, stdout, err = _run(
        capsys, "bifurcate", *_PAIR, "--T-grid", "0.1:0.2:0", "--out", str(out)
    )
    assert (code, stdout) == (2, "")
    assert _stderr_envelope(err)["message"] == "T grid needs at least one point"
    assert not out.exists()


def test_bifurcate_requires_tension(tmp_path, capsys):
    code, out, err = _run(
        capsys, "bifurcate", "--k1", "2", "--k2", "5", "--out", str(tmp_path)
    )
    assert code == 2
    assert _stderr_envelope(err)["code"] == 2
    # A non-finite tension is refused too; JSON has no Infinity, so the
    # envelope writes it as a string.
    code, out, err = _run(
        capsys, "bifurcate", "--k1", "2", "--k2", "5", "--T", "inf", "--out", str(tmp_path)
    )
    assert (code, out) == (2, "")
    assert _stderr_envelope(err) == {
        "code": 2,
        "message": "double bifurcation points exist only for 0 < T < 1/3",
        "context": {"T": "inf"},
    }


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


def test_pairs_names_errored_pairs_on_stderr(tmp_path, capsys, monkeypatch):
    # The files have no error column: a pair whose limits stage fails is
    # named in one code-0 envelope, and the run still exits 0.
    argv = ("pairs", "--kmax", "8", "--refine", "--grid", "64", "--format", "json")
    code, _, err = _run(capsys, *argv, "--out", str(tmp_path / "base"))
    assert (code, err) == (0, "")
    real = symmetry_breaking._limit_ell

    def failing(pair, *args):
        if pair == WaveNumberPair(3, 7):
            raise DomainError("forced failure")
        return real(pair, *args)

    monkeypatch.setattr(symmetry_breaking, "_limit_ell", failing)
    code, _, err = _run(capsys, *argv, "--out", str(tmp_path / "failed"))
    assert code == 0
    error = "DomainError: forced failure"
    assert _stderr_envelope(err) == {
        "code": 0,
        "message": "pairs left undecided by an error",
        "context": {"errors": [{"pair": [3, 7], "error": error}]},
    }
    base, failed = (
        json.loads((tmp_path / d / "pairs.json").read_text()) for d in ("base", "failed")
    )
    # The failed pair's row is the undecided row of a pair with no limits.
    for b, f in zip(base, failed):
        if (b["k1"], b["k2"]) == (3, 7):
            b.update(status="undecided", limit_low=None, limit_high=None, roots=[])
            b["error"] = error
        assert f == b


def test_pairs_exits_3_when_every_classified_pair_errored(tmp_path, capsys, monkeypatch):
    # Excluded pairs carry no error, so they do not keep the run at exit 0;
    # the files and the envelope are written as for one failing pair.
    def failing(pair, *args):
        raise DomainError("forced failure")

    monkeypatch.setattr(symmetry_breaking, "_limit_ell", failing)
    code, out, err = _run(
        capsys, "pairs", "--kmax", "8", "--refine", "--grid", "64", "--format", "json",
        "--out", str(tmp_path),
    )
    assert code == 3
    assert out.split() == [str(tmp_path / "pairs.json"), str(tmp_path / "pairs.svg")]
    data = json.loads((tmp_path / "pairs.json").read_text())
    classified = [item for item in data if not item["status"].startswith("excluded")]
    assert len(classified) == 8
    assert all(item["error"] == "DomainError: forced failure" for item in classified)
    envelope = _stderr_envelope(err)
    assert envelope["code"] == 0
    assert [e["pair"] for e in envelope["context"]["errors"]] == [
        [item["k1"], item["k2"]] for item in classified
    ]


def test_phi_root_and_pairs_refine_refine_roots_alike(tmp_path, capsys):
    # Up to kmax 12 only (4, 11) gets its roots from the refined scan;
    # both commands report them bit for bit alike.
    argv = ("pairs", "--kmax", "12", "--refine", "--format", "json")
    code, _, _ = _run(capsys, *argv, "--out", str(tmp_path / "pairs"))
    assert code == 0
    scanned = [
        item for item in json.loads((tmp_path / "pairs" / "pairs.json").read_text())
        if item["roots"]
    ]
    assert [(item["k1"], item["k2"]) for item in scanned] == [(4, 11)]
    argv = ("phi", "root", "--k1", "4", "--k2", "11", "--format", "json")
    code, _, _ = _run(capsys, *argv, "--out", str(tmp_path / "root"))
    assert code == 0
    roots = json.loads((tmp_path / "root" / "phi_roots.json").read_text())["roots"]

    def bits(items):
        return [(r["T0"].hex(), [b.hex() for b in r["bracket"]], r["slope"].hex()) for r in items]

    assert roots and bits(scanned[0]["roots"]) == bits(roots)


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
    # Below a command's minimum, the library function that reads the grid names it.
    code, out, err = _run(capsys, "phi", "curve", *_PAIR, "--grid", "1", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert _stderr_envelope(err) == {
        "code": 2,
        "message": "curve needs at least two points",
        "context": {"grid_size": 1},
    }
    assert list(tmp_path.iterdir()) == []


_SMALL_WAVE = ("wave", *_PAIR, "--r1", "0.001", "--r2", "0.001", "--T", "0.1215")
_WAVE_TOLERANCES = "tolerances must be positive and finite"


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (("phi", "root", *_PAIR), "--tol-root", "inf"),
        (("phi", "root", *_PAIR), "--tol-root", "nan"),
        (_SMALL_WAVE, "--tol-w", "inf"),
        (_SMALL_WAVE, "--tol-newton", "inf"),
    ],
)
def test_non_finite_tolerances_are_rejected(tmp_path, capsys, argv, flag, value):
    # An infinite w tolerance would fail only after a whole solve.  The
    # root and Newton tolerances are constants: the parser refuses their
    # former flags.
    out = tmp_path / "out"
    if flag == "--tol-w":
        code, stdout, err = _run(capsys, *argv, flag, value, "--out", str(out))
        context = {"tol_w": value}
        assert _stderr_envelope(err) == {"code": 2, "message": _WAVE_TOLERANCES, "context": context}
    else:
        with pytest.raises(SystemExit) as info:
            main([*argv, flag, value, "--out", str(out)])
        code, (stdout, err) = info.value.code, capsys.readouterr()
        assert f"unrecognized arguments: {flag} {value}" in err
    assert code == 2
    assert stdout == ""
    assert not out.exists()


def _refusals():
    """Every out-of-range value of a flag that a command reads, with the library's envelope."""
    phi_root, phi_curve, wave = ("phi", "root", *_PAIR), ("phi", "curve", *_PAIR), _SMALL_WAVE
    pairs, root_grid = ("pairs", "--kmax", "6"), "root scan needs at least 16 points"
    cases = [
        ("phi-root", phi_root, "--grid", "8", root_grid, {"grid_size": 8}),
        ("phi-curve", phi_curve, "--grid", "1", "curve needs at least two points", {"grid_size": 1}),
        ("pairs-refine", (*pairs, "--refine"), "--grid", "8", root_grid, {"grid_size": 8}),
        ("pairs", pairs, "--jobs", "0", "scan needs jobs >= 1", {"jobs": 0}),
        ("wave", wave, "--K", "0", "truncation needs K >= 1", {"K": 0}),
    ]
    for text, shown in [("0", 0.0), ("-1", -1.0), ("inf", "inf"), ("nan", "nan")]:
        cases += [
            ("wave", wave, "--tol-w", text, _WAVE_TOLERANCES, {"tol_w": shown}),
        ]
    for name, argv, flag, text, message, context in cases:
        yield pytest.param((*argv, flag, text), message, context, id=f"{name}-{flag[2:]}-{text}")


@pytest.mark.parametrize("argv, message, context", _refusals())
def test_library_refuses_every_out_of_range_flag(tmp_path, capsys, argv, message, context):
    # Each value is checked once, by the library function that reads it,
    # before any file is written.
    code, stdout, err = _run(capsys, *argv, "--out", str(tmp_path))
    assert (code, stdout) == (2, "")
    assert _stderr_envelope(err) == {"code": 2, "message": message, "context": context}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, unread",
    [
        (("phi", "limits", *_PAIR), ("--grid", "1")),
        (("pairs", "--kmax", "6"), ("--grid", "1")),
    ],
)
def test_flags_an_action_does_not_read_are_ignored(tmp_path, capsys, argv, unread):
    written = []
    for name, extra in (("plain", ()), ("unread", unread)):
        out = tmp_path / name
        code, _, err = _run(capsys, *argv, *extra, "--out", str(out))
        assert (code, err) == (0, "")
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert written[0] == written[1]
    assert written[0]


def test_pairs_rejects_small_kmax(tmp_path, capsys):
    code, out, err = _run(capsys, "pairs", "--kmax", "2", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    envelope = _stderr_envelope(err)
    assert envelope == {
        "code": 2, "message": "scan needs k_max >= 3", "context": {"k_max": 2}
    }
    assert list(tmp_path.iterdir()) == []


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


def test_wave_profile_grid_grows_with_K(tmp_path, capsys, monkeypatch):
    # K = 520 needs 2K+2 = 1042 sample points, more than the default 1024.
    profiles = []
    real_csv = emitters.wave_profile_csv

    def recording_csv(profile):
        profiles.append(profile)
        return real_csv(profile)

    monkeypatch.setattr(emitters, "wave_profile_csv", recording_csv)
    code, out, err = _run(
        capsys,
        "wave", *_PAIR, "--r1", "0.001", "--r2", "0.001", "--theta1", "0.3",
        "--T", "0.12147441818272467", "--K", "520", "--out", str(tmp_path),
    )
    assert (code, err) == (0, "")
    lines = (tmp_path / "wave_profile.csv").read_text().splitlines()
    assert lines[0] == "x,u"
    assert len(lines) == 1 + 1042
    # The one-join writer gives the bytes of the generic CSV writer.
    (profile,) = profiles
    x = (2.0 * np.pi * np.arange(1042) / 1042).tolist()
    rows = zip(map(repr, x), profile.sample(1042).tolist())
    text = emitters.csv_text(("x", "u"), rows)
    assert (tmp_path / "wave_profile.csv").read_bytes() == text.encode()
    report = json.loads((tmp_path / "wave_report.json").read_text())
    assert (report["K"], report["converged"]) == (520, True)


@pytest.mark.parametrize("K", ["1", "2"])
def test_zero_wave_below_the_kernel_modes(tmp_path, capsys, K):
    # 2K < k2 = 5: the zero wave needs no mode k2, and matches K = 4 but for K.
    argv = ("wave", *_PAIR, "--r1", "0", "--r2", "0", "--T", _T0)
    code, _, err = _run(capsys, *argv, "--K", K, "--out", str(tmp_path / "low"))
    assert (code, err) == (0, "")
    code, _, _ = _run(capsys, *argv, "--K", "4", "--out", str(tmp_path / "ref"))
    assert code == 0
    low, ref = (tmp_path / d for d in ("low", "ref"))
    assert (low / "wave_profile.csv").read_bytes() == (ref / "wave_profile.csv").read_bytes()
    report = json.loads((low / "wave_report.json").read_text())
    assert report == {**json.loads((ref / "wave_report.json").read_text()), "K": int(K)}
    assert (report["mode"], report["converged"]) == ("trivial", True)


def test_bifurcate_rejects_a_wave_speed_that_rounds_to_one(tmp_path, capsys):
    # Just below T = 1/3 the bifurcation speed c0 rounds to 1.0.
    argv = ("bifurcate", *_PAIR, "--T", "0.3333333333", "--out", str(tmp_path))
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (3, "")
    assert _stderr_envelope(err) == {
        "code": 3,
        "message": "wave speed outside (0, 1)",
        "context": {"T": 0.3333333333, "c0": 1.0},
    }


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


def test_no_config_file_layer(tmp_path, capsys, monkeypatch):
    # Every setting is a flag: CAPWHITHAM_CONFIG is not read, and the
    # parser refuses --config.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid = 10\n")
    monkeypatch.setenv("CAPWHITHAM_CONFIG", str(cfg))
    out = tmp_path / "out"
    code, _, err = _run(capsys, "phi", "curve", *_PAIR, "--out", str(out))
    assert (code, err) == (0, "")
    lines = (out / "phi_curve.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + symmetry_breaking.DEFAULT_GRID_SIZE
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "phi", "limits", *_PAIR, "--out", str(out)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "tensions", [(), ("--T", "0.1", "--T-grid", "0.1:0.2:3")], ids=["neither", "both"]
)
def test_bifurcate_needs_exactly_one_tension_flag(tmp_path, capsys, tensions):
    out = tmp_path / "out"
    code, stdout, err = _run(capsys, "bifurcate", *_PAIR, *tensions, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert _stderr_envelope(err) == {
        "code": 2, "message": "bifurcate needs exactly one of --T and --T-grid", "context": {}
    }
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("bifurcate", *_PAIR, "--T", "1e-25"),
        ("wave", *_PAIR, "--r1", "0.001", "--r2", "0.001", "--T", "1e-25"),
    ],
    ids=["bifurcate", "wave"],
)
def test_tension_beyond_the_turning_point_reach_is_a_domain_error(tmp_path, capsys, argv):
    # Inside (0, 1/3) but below the ladder's 2**-80: exit 2, and no wave report.
    code, stdout, err = _run(capsys, *argv, "--out", str(tmp_path))
    assert (code, stdout) == (2, "")
    assert _stderr_envelope(err) == {
        "code": 2,
        "message": "tension beyond the reach of the turning-point scan",
        "context": {"T": 1e-25, "reach": [2.0**-80, 0.3333333333332929]},
    }
    assert list(tmp_path.iterdir()) == []


def test_wave_truncation_size_guard_exit_code(tmp_path, capsys):
    code, stdout, err = _run(capsys, *_SMALL_WAVE, "--K", "4097", "--out", str(tmp_path))
    assert (code, stdout) == (4, "")
    assert _stderr_envelope(err) == {
        "code": 4,
        "message": "truncation order exceeds the size guard",
        "context": {"size": 4097, "guard": 4096},
    }
    assert list(tmp_path.iterdir()) == []


_OVER_GRID = str(symbol.GRID_GUARD + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ("bifurcate", *_PAIR, "--T-grid", f"0.1:0.2:{_OVER_GRID}"),
        ("phi", "root", *_PAIR, "--grid", _OVER_GRID),
        ("phi", "curve", *_PAIR, "--grid", _OVER_GRID),
        ("pairs", "--kmax", "6", "--refine", "--grid", _OVER_GRID),
    ],
    ids=["bifurcate-T-grid", "phi-root-grid", "phi-curve-grid", "pairs-refine-grid"],
)
def test_tension_grid_size_guard_exit_code(tmp_path, capsys, monkeypatch, argv):
    # The guard refuses the grid before any tension array is built.
    def unbuilt(*args, **kwargs):
        raise AssertionError("a tension grid was built")

    monkeypatch.setattr(np, "linspace", unbuilt)
    monkeypatch.setattr(symmetry_breaking, "_tension_grid", unbuilt)
    code, stdout, err = _run(capsys, *argv, "--out", str(tmp_path))
    assert (code, stdout) == (4, "")
    assert _stderr_envelope(err) == {
        "code": 4,
        "message": "tension grid exceeds the size guard",
        "context": {"size": symbol.GRID_GUARD + 1, "guard": symbol.GRID_GUARD},
    }
    assert list(tmp_path.iterdir()) == []


def test_tension_grids_at_the_size_guard_pass_it():
    symbol.guard_grid_size(symbol.GRID_GUARD)
    with pytest.raises(SizeGuardError):
        symbol.guard_grid_size(symbol.GRID_GUARD + 1)


def test_package_reads_no_environment_variable():
    # Every setting is a flag, so no module of the package may consult
    # os.environ or os.getenv.
    banned = {"environ", "environb", "getenv", "getenvb"}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert not (node.value.id == "os" and node.attr in banned), path.name
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                assert not banned & {alias.name for alias in node.names}, path.name


def test_cli_imports_no_private_name_of_the_package():
    # The CLI is built on the public library surface only.
    tree = ast.parse(Path(cli.__file__).read_text())
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level > 0 or (node.module or "").split(".")[0] == "capwhitham":
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            assert not private, f"cli.py imports {private} from {node.module}"


# ROADMAP "Line budget": src/capwhitham/*.py holds at most this many lines.
# A direction that states a larger delta raises it and logs that in CHANGES.md.
LINE_BUDGET = 3300


def test_package_stays_within_the_line_budget():
    # The newline count, as `cat src/capwhitham/*.py | wc -l` gives it.
    sources = sorted(Path(cli.__file__).parent.glob("*.py"))
    text = b"".join(path.read_bytes() for path in sources)
    lines = text.count(b"\n")
    wc = subprocess.run(["wc", "-l"], input=text, capture_output=True, check=True)
    assert lines == int(wc.stdout)
    assert lines <= LINE_BUDGET, (
        f"src/capwhitham/*.py has {lines} lines, over the {LINE_BUDGET}-line budget: "
        'see the ROADMAP constraint "Line budget"'
    )


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


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    grid = ("bifurcate", *_PAIR, "--T-grid", "0.1:0.2:3")
    _run(capsys, *grid, "--format", "json", "--out", str(tmp_path / "a"))
    code, out, err = _run(capsys, *grid, "--out", str(tmp_path / "b"))
    assert (code, err) == (0, "")
    assert [p.name for p in (tmp_path / "b").iterdir()] == ["bifurcate.csv"]


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


def test_cli_import_loads_no_process_pool():
    # Only pair scans with jobs > 1 use worker processes; every other run
    # must not pay for loading the pool's modules.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, capwhitham.cli; "
        "print(sorted(m for m in sys.modules "
        "if m == 'multiprocessing' or m == 'concurrent.futures'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
