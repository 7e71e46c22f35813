"""End-to-end command-line tests through ``main(argv)``.

Each call runs in-process; stdout/stderr are captured via capsys and the
return value is the exit code (0 ok, 2 parse error, 3 domain error, 4
infeasible).  The console-script tests at the end run the declared
``steinmult`` wrapper in a fresh interpreter instead.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from steinmult.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# pinned outputs


def test_factors_count(capsys):
    code, out, _ = run_cli(capsys, "factors", "--cartan", "A3", "--w", "e", "--count")
    assert code == 0 and out == "48\n"
    code, out, _ = run_cli(
        capsys, "factors", "--cartan", "A3", "--w", "s1*s2*s1", "--count"
    )
    assert code == 0 and out == "12\n"


def test_factors_json_first_row(capsys):
    code, out, _ = run_cli(capsys, "factors", "--cartan", "A3", "--w", "e", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 48
    assert rows[0] == {"v": "e", "I": ["s1", "s2", "s3"], "J": [], "mult": 1}
    assert all(row["mult"] >= 1 for row in rows)


def test_factors_text_row_shape(capsys):
    code, out, _ = run_cli(capsys, "factors", "--cartan", "A1", "--w", "e")
    assert code == 0
    assert out.splitlines() == ["[1, {s1}, {}, 1]", "[s1, {}, {}, 1]"]


def test_omega_text(capsys):
    code, out, _ = run_cli(capsys, "omega", "--gln", "4", "--mu", "3,2,1,-6")
    assert code == 0
    assert out == "e s1 s2 s1*s2 s2*s1 s1*s2*s1\n"


def test_omega_direct_coroot_coordinates(capsys):
    # Partial sums of (3,2,1,-6) given directly as coroot coordinates.
    code, out, _ = run_cli(capsys, "omega", "--cartan", "A3", "--mu", "3,5,6")
    assert code == 0
    assert out == "e s1 s2 s1*s2 s2*s1 s1*s2*s1\n"


def test_omega_subset_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "omega", "--gln", "4", "--mu", "5,1,-2,-4", "--subset", "1,3", "--json",
    )
    assert code == 0
    assert json.loads(out) == {
        "I": ["s1", "s3"],
        "elements": [
            "e", "s1", "s2", "s3", "s1*s2", "s1*s3", "s2*s3", "s3*s2",
            "s1*s2*s3", "s1*s3*s2", "s2*s3*s2", "s1*s2*s3*s2",
        ],
    }


def test_kl_text_and_json(capsys):
    args = ("kl", "--cartan", "A3", "--x", "e", "--w", "s1*s2*s3*s2*s1")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and out == "1 + q\n"
    code, out, _ = run_cli(capsys, *args, "--json")
    assert code == 0
    assert json.loads(out) == {
        "x": "e",
        "w": "s1*s2*s3*s2*s1",
        "coeffs": [1, 1],
        "display": "1 + q",
    }


def test_complex_text(capsys):
    code, out, _ = run_cli(capsys, "complex", "--gln", "4", "--mu", "5,1,-2,-4")
    assert code == 0
    assert out.splitlines() == [
        "i0=3; levels: [1,3,2]",
        "level 0 (degree 3): e",
        "level 1 (degree 2): s1 s2 s3",
        "level 2 (degree 1): s1*s3 s2*s3",
    ]


def test_complex_json(capsys):
    code, out, _ = run_cli(
        capsys, "complex", "--gln", "4", "--mu", "2,1,0,-3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["i0"] == 3
    assert payload["levels"] == [["e"], ["s1", "s2"], ["s2*s1"]]
    assert payload["degrees"] == [3, 2, 1]
    assert payload["warnings"] == []


def test_yspace_text(capsys):
    code, out, _ = run_cli(
        capsys, "yspace", "--gln", "4", "--mu", "3,2,1,-6", "--subset", "1,3"
    )
    assert code == 0
    assert out.splitlines() == [
        "levi_positive_roots=2 top_dim=4",
        "e dim=2",
        "s2 dim=3",
        "s2*s1 dim=4",
    ]


def test_yspace_base_subset_text(capsys):
    code, out, _ = run_cli(capsys, "yspace", "--gln", "4", "--mu", "3,2,1,-6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "levi_positive_roots=0 top_dim=3"
    assert lines[1] == "e dim=0"
    assert lines[-1] == "s1*s2*s1 dim=3"


def test_homology_text(capsys):
    code, out, _ = run_cli(capsys, "homology", "--gln", "4", "--mu", "5,1,-2,-4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "H_3:"
    assert lines[1] == "  v^G_B(λ)  mult=1"
    assert lines[2] == "H_2:"
    assert len(lines) == 16
    assert lines[-1] == "H_1: 0"
    assert all(line.endswith("mult=1") for line in lines[3:15])
    assert "UNDETERMINED" not in out


def test_homology_json(capsys):
    code, out, _ = run_cli(
        capsys, "homology", "--gln", "4", "--mu", "3,2,1,-6", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["i0"] == 3
    blocks = {block["degree"]: block["factors"] for block in payload["degrees"]}
    assert set(blocks) == {3, 2, 1, 0}
    assert len(blocks[3]) == 4
    assert blocks[2] == blocks[1] == blocks[0] == []
    for row in blocks[3]:
        assert row["mult_lo"] == row["mult_hi"] == 1 and row["pinned"]


def test_double_layout_text(capsys):
    code, out, _ = run_cli(capsys, "double-layout", "--gln", "4", "--mu", "3,2,1,-6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(-3,6): ({}, e)"
    assert lines[-1] == "(0,6): ({1,2,3}, e)"
    assert "(-3,5): ({}, s1) ({}, s2)" in lines


def test_double_layout_json(capsys):
    code, out, _ = run_cli(
        capsys, "double-layout", "--gln", "4", "--mu", "3,2,1,-6", "--json"
    )
    assert code == 0
    entries = json.loads(out)["entries"]
    assert {"p": 0, "q": 6, "I": ["s1", "s2", "s3"], "w": "e"} in entries
    assert all(entry["p"] <= 0 and entry["q"] <= 6 for entry in entries)


def test_gln_recenter(capsys):
    code, out, _ = run_cli(
        capsys, "omega", "--gln", "4", "--mu", "7,4,3,2", "--recenter"
    )
    assert code == 0 and out.strip()


def test_fractional_mu(capsys):
    code, out, _ = run_cli(capsys, "omega", "--cartan", "A3", "--mu", "2,7/2,9/2")
    assert code == 0
    tokens = out.split()
    assert tokens[0] == "e" and len(tokens) >= 1


def test_determinism(capsys):
    first = run_cli(capsys, "homology", "--gln", "4", "--mu", "2,1,0,-3")
    second = run_cli(capsys, "homology", "--gln", "4", "--mu", "2,1,0,-3")
    assert first == second
    first = run_cli(capsys, "factors", "--cartan", "B2", "--w", "s1*s2", "--json")
    second = run_cli(capsys, "factors", "--cartan", "B2", "--w", "s1*s2", "--json")
    assert first == second


# ---------------------------------------------------------------------------
# cartan matrix files


def test_cartan_file_valid(capsys, tmp_path):
    path = tmp_path / "a3.txt"
    path.write_text("3\n2 -1 0\n-1 2 -1\n0 -1 2\n")
    code, out, _ = run_cli(
        capsys, "kl", "--cartan", str(path), "--x", "e", "--w", "s1*s2*s3*s2*s1"
    )
    assert code == 0 and out == "1 + q\n"


def test_cartan_file_malformed(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n2 -1\n")
    code, _, err = run_cli(capsys, "kl", "--cartan", str(path), "--x", "e", "--w", "e")
    assert code == 2 and "error:" in err

    path2 = tmp_path / "alpha.txt"
    path2.write_text("2\n2 x\n-1 2\n")
    code, _, err = run_cli(capsys, "kl", "--cartan", str(path2), "--x", "e", "--w", "e")
    assert code == 2 and "non-integer" in err


def test_cartan_file_not_finite(capsys, tmp_path):
    path = tmp_path / "affine.txt"
    path.write_text("2\n2 -2\n-2 2\n")
    code, _, err = run_cli(capsys, "kl", "--cartan", str(path), "--x", "e", "--w", "e")
    assert code == 3 and "error:" in err


# ---------------------------------------------------------------------------
# exit codes


def test_bad_word_is_parse_error(capsys):
    code, _, err = run_cli(capsys, "factors", "--cartan", "A3", "--w", "s9")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "kl", "--cartan", "A3", "--x", "foo", "--w", "e")
    assert code == 2 and "error:" in err


def test_non_dominant_mu_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "omega", "--gln", "4", "--mu", "1,2,3,-6")
    assert code == 3 and "positive chamber" in err


def test_nonzero_gln_sum_mentions_recenter(capsys):
    code, _, err = run_cli(capsys, "omega", "--gln", "4", "--mu", "4,3,2,1")
    assert code == 3 and "recenter" in err


def test_wrong_mu_arity(capsys):
    code, _, err = run_cli(capsys, "omega", "--cartan", "A3", "--mu", "1,2")
    assert code == 2 and "expects 3" in err
    code, _, err = run_cli(capsys, "omega", "--gln", "4", "--mu", "1,2,3")
    assert code == 2 and "expects 4" in err


def test_bad_mu_token(capsys):
    code, _, err = run_cli(capsys, "omega", "--cartan", "A3", "--mu", "1,x,3")
    assert code == 2 and "bad number" in err


def test_bad_subset(capsys):
    code, _, err = run_cli(
        capsys, "omega", "--gln", "4", "--mu", "3,2,1,-6", "--subset", "x"
    )
    assert code == 2 and "subset" in err
    code, _, err = run_cli(
        capsys, "omega", "--gln", "4", "--mu", "3,2,1,-6", "--subset", "9"
    )
    assert code == 2 and "out of range" in err


def test_yspace_rejects_full_subset(capsys):
    code, _, err = run_cli(
        capsys, "yspace", "--cartan", "A3", "--mu", "3,5,6", "--subset", "1,2,3"
    )
    assert code == 3 and "proper" in err


def test_unknown_cartan(capsys):
    code, _, err = run_cli(capsys, "kl", "--cartan", "A9", "--x", "e", "--w", "e")
    assert code == 2
    code, _, err = run_cli(capsys, "kl", "--cartan", "nosuchfile", "--x", "e", "--w", "e")
    assert code == 2 and "neither" in err


def test_gln_too_small(capsys):
    code, _, err = run_cli(capsys, "omega", "--gln", "1", "--mu", "0")
    assert code == 2 and "N >= 2" in err


def test_over_large_group_refused_before_enumeration(capsys, monkeypatch):
    # A10 has 11! elements, past the default max_size; the order comes from
    # the root system, so no reflection row may be applied to build one.
    def refuse(*args):
        raise AssertionError("an element was built")

    monkeypatch.setattr("steinmult.weyl._reflect", refuse)
    code, out, err = run_cli(
        capsys, "omega", "--gln", "11", "--mu", "10,9,8,7,6,5,4,3,2,1,-55"
    )
    assert code == 3 and out == ""
    assert "39916800 elements" in err and "max_size" in err


def test_high_rank_gln_refused(capsys):
    # Validating A29 as finite type must not cost time exponential in the
    # rank before the order check refuses its 30! elements.
    mu = ",".join(str(x) for x in range(29, 0, -1)) + ",-435"
    code, out, err = run_cli(capsys, "omega", "--gln", "30", "--mu", mu)
    assert code == 3 and out == ""


def test_argparse_failures(capsys):
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "factors", "--cartan", "A3")[0] == 2
    assert run_cli(capsys, "factors", "--cartan", "A3", "--gln", "4", "--w", "e")[0] == 2
    assert run_cli(capsys, "factors", "--w", "e")[0] == 2
    assert run_cli(capsys)[0] == 2


# ---------------------------------------------------------------------------
# the ``steinmult`` console script

REPO_ROOT = Path(__file__).resolve().parent.parent


def _installed_distribution() -> importlib.metadata.Distribution | None:
    try:
        return importlib.metadata.distribution("steinmult")
    except importlib.metadata.PackageNotFoundError:
        return None


def test_entry_point_installed():
    """``pyproject.toml`` declares ``steinmult`` and its wrapper works.

    Runs the wrapper a console script installs, ``sys.exit(main())``, and
    ``python -m steinmult``, each in a fresh interpreter with ``src/`` on
    the path, so it holds for a source checkout as well as for an
    installed package.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle).get("project", {})
    target = project.get("scripts", {}).get("steinmult")
    assert target == "steinmult.cli:main"
    module, _, attr = target.partition(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def script(launcher, *argv):
        return subprocess.run(
            [sys.executable, *launcher, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    for launcher in (("-c", wrapper), ("-m", "steinmult")):
        done = script(launcher, "omega", "--gln", "4", "--mu", "3,2,1,-6")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "e s1 s2 s1*s2 s2*s1 s1*s2*s1\n"
        assert script(launcher, "nonsense").returncode == 2


@pytest.mark.skipif(
    _installed_distribution() is None,
    reason="the steinmult distribution is not installed "
    "(importlib.metadata finds none); run after pip install",
)
def test_console_script_on_path():
    assert shutil.which("steinmult") is not None
    scripts = [
        entry.value
        for entry in _installed_distribution().entry_points
        if entry.group == "console_scripts" and entry.name == "steinmult"
    ]
    assert scripts == ["steinmult.cli:main"]
