import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bcslab
from bcslab import gapsolve
from bcslab.analysis import CheckResult, VerificationReport
from bcslab.cli import emit_report, load_config, main
from bcslab.errors import ValidationError

PAIR_CONFIG = {
    "lattice": {"modes": [[1, 0, 0], [-1, 0, 0]], "xi": [1.6, 1.6]},
    "kernel": {"matrix": [[0, -4], [-4, 0]]},
    "solver": {"equation": "classic", "init": 1.0, "damping": 1.0, "tol": 1e-12},
}


@pytest.fixture
def pair_config(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(PAIR_CONFIG))
    return str(path)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_config_pair(pair_config):
    cfg = load_config(pair_config)
    assert cfg.mt.n_modes == 2
    assert np.array_equal(cfg.kernel.u, [[0.0, -4.0], [-4.0, 0.0]])
    assert cfg.tol == 1e-12


def test_load_config_separable(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            "sep.json",
            {
                "lattice": {"L": 6.283185307179586, "kmax": 1.0},
                "physics": {"mu": 1.0},
                "kernel": {"separable": {"g": 2.0, "shell": [0.5, 1.5]}},
            },
        )
    )
    assert cfg.mt.n_modes == 7
    assert cfg.kernel.u[0, 0] == 0.0


def test_load_config_rejects_defects(tmp_path):
    with pytest.raises(ValidationError):
        load_config(str(tmp_path / "missing.json"))
    bad = [
        {},  # no lattice
        {"lattice": {"L": 1.0}},  # incomplete lattice
        {"lattice": {"L": 1.0, "kmax": 1.0, "modes": [[0, 0, 0]]}},  # both forms
        {"lattice": {"modes": [[0, 0, 0]]}},  # no kernel
        {
            "lattice": {"modes": [[0, 0, 0]]},
            "kernel": {"matrix": [[0]], "separable": {"g": 1}},
        },
        {
            "lattice": {"modes": [[1, 0, 0], [-1, 0, 0]]},
            "kernel": {"matrix": [[0, 2], [2, 0]]},  # positive entries
        },
        {
            "lattice": {"modes": [[0, 0, 0]]},
            "kernel": {"matrix": [[0]]},
            "solver": {"tol": -1},
        },
        {
            "lattice": {"modes": [[0, 0, 0]]},
            "kernel": {"matrix": [[0]]},
            "solver": {"equation": "quantum"},
        },
        {
            "lattice": {"modes": [[0, 0, 0]]},
            "kernel": {"matrix": [[0]]},
            "output": {"formats": ["yaml"]},
        },
    ]
    for i, payload in enumerate(bad):
        with pytest.raises(ValidationError):
            load_config(write_config(tmp_path, f"bad{i}.json", payload))


def test_lattice_command(capsys):
    assert main(["lattice", "--L", "6.2831853", "--kmax", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "M = 7" in out


@pytest.mark.parametrize("argv", [["--L", "inf", "--kmax", "1"], ["--L", "6.28", "--kmax", "inf"]])
def test_lattice_non_finite_scale_is_config_error(argv, capsys):
    """A non-finite L or kmax is a config error, as it is from a config, not a mode-count overflow."""
    assert main(["lattice", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "positive and finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [["--L", "3", "--kmax", "9"], ["--mu", "0.5"], ["--kmax", "1"]])
def test_lattice_flags_conflict_with_config(flags, capsys):
    """--L, --kmax or --mu given with --config is a conflict (exit 2), not silently ignored."""
    assert main(["lattice", "--config", str(GOLDEN / "pair" / "config.json"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "not both" in err and flags[0] in err
    assert main(["lattice", "--config", str(GOLDEN / "pair" / "config.json")]) == 0
    assert "M = 2 modes" in capsys.readouterr().out


def test_lattice_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["lattice", "--bogus"])
    assert err.value.code == 2


def test_solve_gap_command(pair_config, capsys):
    assert main(["solve-gap", "--config", pair_config]) == 0
    out = capsys.readouterr().out
    assert "1.2000000000" in out
    assert "converged" in out


def test_solve_gap_subcritical_labels_trivial(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "sub.json",
        {
            "lattice": {"modes": [[1, 0, 0], [-1, 0, 0]], "xi": [1.6, 1.6]},
            "kernel": {"matrix": [[0, -2], [-2, 0]]},
        },
    )
    assert main(["solve-gap", "--config", cfg]) == 0
    assert "trivial" in capsys.readouterr().out


def test_solve_gap_nonconvergence_exit_code(pair_config, capsys):
    assert main(["solve-gap", "--config", pair_config, "--max-iter", "2"]) == 3


def test_solve_new_gap_command(pair_config, capsys):
    assert main(["solve-new-gap", "--config", pair_config]) == 0
    out = capsys.readouterr().out
    assert "D_k" in out and "4D_k/(D+2)" in out


def test_spectrum_command(pair_config, capsys):
    assert main(["spectrum", "--config", pair_config]) == 0
    assert main(["spectrum", "--config", pair_config, "--equation", "new"]) == 0


def test_spectrum_command_on_the_seven_mode_lattice(tmp_path, capsys):
    """The sector route diagonalizes H_M at every M up to the mode cap."""
    cfg = write_config(
        tmp_path,
        "m7.json",
        {
            "lattice": {"L": 6.283185307179586, "kmax": 1.0},
            "physics": {"mu": 1.0},
            "kernel": {"separable": {"g": 2.0, "shell": [0.5, 1.5]}},
        },
    )
    for equation in ("classic", "new"):
        assert main(["spectrum", "--config", cfg, "--equation", equation]) == 0
        dev = re.search(r"deviation = (\S+)", capsys.readouterr().out).group(1)
        assert float(dev) <= 1e-9


def test_energy_command(pair_config, capsys):
    assert main(["energy", "--config", pair_config]) == 0
    out = capsys.readouterr().out
    assert "-0.080000000000" in out
    assert "-0.090383572259" in out


def test_verify_command_pass_and_report(pair_config, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["verify", "--config", pair_config, "--out", str(out_dir)]) == 0
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["metadata"]["n_modes"] == 2
    for check in payload["checks"]:
        if not check["skipped"]:
            assert check["deviation"] <= check["tolerance"] or check["name"] == "energy_ordering_chain"
    with (out_dir / "report.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    by_name = {r["name"]: r for r in rows}
    assert by_name["condensation_energy"]["pass"] == "true"
    assert float(by_name["condensation_energy"]["deviation"]) <= 1e-10


def test_verify_config_error_exit_code(tmp_path):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {
            "lattice": {"modes": [[1, 0, 0], [-1, 0, 0]], "xi": [1.6, 1.6]},
            "kernel": {"matrix": [[-1, -4], [-4, 0]]},
        },
    )
    assert main(["verify", "--config", cfg]) == 2


@pytest.mark.parametrize("command", ["solve-gap", "solve-new-gap", "verify", "report"])
def test_empty_mode_list_is_config_error(tmp_path, capsys, command):
    cfg = write_config(
        tmp_path, "empty.json", {"lattice": {"modes": []}, "kernel": {"separable": {"g": 1.0}}}
    )
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "mode list is empty" in err
    assert "Traceback" not in err


def test_verify_checks_filter(tmp_path, capsys, monkeypatch):
    payload = dict(PAIR_CONFIG)
    payload["checks"] = ["car_relations", "gap_solution_classic"]
    cfg = write_config(tmp_path, "filtered.json", payload)
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "car_relations" in out
    assert "hm_spectrum_multiset" not in out
    # a list runs only the stages that own its rows: kernel_constraints alone builds only the two
    # gap solutions that the metadata reads, and an unknown name exits 2 before anything is built
    built = []

    def counting(name, build):
        return lambda inst: built.append(name) or build(inst)

    for name, build in list(bcslab.analysis._BUILD.items()):
        monkeypatch.setitem(bcslab.analysis._BUILD, name, counting(name, build))
    payload["checks"] = ["kernel_constraints"]
    assert main(["verify", "--config", write_config(tmp_path, "kernel.json", payload)]) == 0
    assert sorted(built) == ["new_sol", "sol"]
    built.clear()
    payload["checks"] = ["car_relations", "no_such_check"]
    cfg = write_config(tmp_path, "unknown.json", payload)
    assert main(["verify", "--config", cfg]) == 2
    assert built == []
    assert capsys.readouterr().err == "config error: unknown check names: ['no_such_check']\n"


@pytest.mark.parametrize(
    "fields, env, named",
    [
        ({"lattice": {"L": "abc", "kmax": 1.0}}, {}, "'abc'"),
        ({"solver": {"max_iter": -5}}, {}, "-5"),
        ({"checks": "car_relations"}, {}, "'car_relations'"),
        ({"output": {"formats": "json"}}, {}, "'json'"),
        ({}, {"BCSLAB_DIM_CAP": "x"}, "'x'"),
        ({"physics": "x"}, {}, "physics"),
        ({"solver": []}, {}, "solver"),
        ({"output": 7}, {}, "output"),
        ({"kernel": {"separable": "x"}}, {}, "kernel.separable"),
        ({"lattice": {"modes": "ab"}}, {}, "lattice.modes"),
        ({"lattice": {"modes": 5}}, {}, "lattice.modes"),
        ({"lattice": {"modes": [[1, 0], [-1, 0]]}}, {}, "lattice.modes"),
        ({"lattice": {"modes": [[1, 0, 0], [-1, 0, 0]], "xi": ["a", "a"]}}, {}, "lattice.xi"),
        ({"kernel": {"separable": {"shell": [0.5, 1.5]}}}, {}, "kernel.separable.g"),
        ({"kernel": {"separable": {"g": 4.0, "shell": [0.5]}}}, {}, "kernel.separable.shell"),
        ({"physics": {"mu": True}}, {}, "physics.mu"),
        ({"seed": False}, {}, "seed"),
        ({"solver": {"tol": math.nan}}, {}, "solver.tol"),
        ({"physics": {"hbar": math.inf}}, {}, "physics.hbar"),
        ({"kernel": {"matrix": [[0, -math.inf], [-math.inf, 0]]}}, {}, "kernel.matrix"),
        ({"solver": {"max_iter": 2.5}}, {}, "solver.max_iter"),
        ({"output": {"dir": ["out"]}}, {}, "output.dir"),
        ({"lattice": {"modes": [[1, 0, 0], [-1, 0, 0]], "L": 0}}, {}, "box size L"),
        ({"physics": {"m": 0}}, {}, "mass m"),
        ({"lattice": {"L": 6.283185307179586, "kmax": 1.0}, "physics": {"m": -0.5}}, {}, "mass m"),
        ({"seed": -1}, {}, "seed must be a nonnegative integer"),
        ({}, {"BCSLAB_DIM_CAP": "0"}, "BCSLAB_DIM_CAP must be at least 1, got '0'"),
        ({}, {"BCSLAB_DIM_CAP": "-1"}, "BCSLAB_DIM_CAP must be at least 1, got '-1'"),
        ({"checks": []}, {}, "checks"),
        ({"output": {"formats": [], "dir": "out"}}, {}, "output.formats"),
        # a huge wave vector prints each component as %.6g, not as its exact integer of up to 309 digits
        ({"lattice": {"modes": [[10**159, 0, 0]]}, "kernel": {"matrix": [[0]]}}, {}, "missing -k for k=(1e+159, 0, 0)"),
        (
            {"lattice": {"modes": [[1e300, 0, 0], [-1e300, 0, 0]], "xi": [1, 1]}, "kernel": {"matrix": [[0, 1], [1, 0]]}},
            {},
            "positive entry at (k=(1e+300, 0, 0), k'=(-1e+300, 0, 0))",
        ),
        # an integer past the float range prints as %.6g, not in all its 401 digits
        (
            {"lattice": {"modes": [[10**400, 0, 0], [-10**400, 0, 0]]}},
            {},
            "lattice.modes must be an integer, got 1e+400",
        ),
    ],
)
def test_malformed_input_is_config_error(tmp_path, monkeypatch, capsys, fields, env, named):
    for name, setting in env.items():
        monkeypatch.setenv(name, setting)
    cfg = write_config(tmp_path, "malformed.json", {**PAIR_CONFIG, **fields})
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert err.count("\n") == 1 and len(err) <= 201  # one line of at most 200 characters


def _solver(equation):
    return {"solver": {**PAIR_CONFIG["solver"], "equation": equation}}


@pytest.mark.parametrize(
    "argv, fields, code, printed, written",
    [
        pytest.param(["solve-gap", "--tol", "1e-3"], {}, 0, "residual_inf=1.467e-04", {}, id="tol"),
        pytest.param(["solve-gap"], {}, 0, "residual_inf=2.458e-13", {}, id="config-tol"),
        *(
            pytest.param(
                [cmd, "--out", "o", "--format", "csv"], {}, 0, "wrote", {"o": ["report.csv"]}, id=f"{cmd}-csv"
            )
            for cmd in ("verify", "report")
        ),
        pytest.param(
            ["verify", "--out", "o"],
            {"output": {"dir": "config"}},
            0,
            "wrote",
            {"o": ["report.csv", "report.json"]},
            id="out",
        ),
        pytest.param(["spectrum"], _solver("new"), 0, "equation=new", {}, id="config-equation"),
        pytest.param(
            ["spectrum", "--equation", "classic"], _solver("new"), 0, "equation=classic", {}, id="equation"
        ),
        pytest.param(["solve-gap"], _solver("new"), 0, "equation=classic", {}, id="solve-gap-equation"),
        pytest.param(
            ["solve-new-gap"], _solver("classic"), 0, "equation=new", {}, id="solve-new-gap-equation"
        ),
        *(
            pytest.param([cmd, flag, "0"], {}, 2, f"solver.{field}", {}, id=f"{cmd}{flag}")
            for cmd in ("solve-gap", "solve-new-gap", "spectrum", "energy", "verify", "report")
            for flag, field in (("--tol", "tol"), ("--max-iter", "max_iter"))
        ),
        *(
            pytest.param([cmd, "--format", "yaml"], {}, 2, "unknown output format 'yaml'", {}, id=f"{cmd}-yaml")
            for cmd in ("verify", "report")
        ),
    ],
)
def test_flags_override_the_config_field_of_their_name(
    tmp_path, monkeypatch, capsys, argv, fields, code, printed, written
):
    """A flag given beats its config field; the solve commands fix their own equation.

    `printed` is in stdout on success and in the `config error:` line on exit 2; `written` maps each
    directory made under the working directory to the report files in it.
    """
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "override.json", {**PAIR_CONFIG, **fields})
    assert main([*argv, "--config", cfg]) == code
    out, err = capsys.readouterr()
    assert printed in (out if code == 0 else err)
    assert code == 0 or err.startswith("config error:")
    assert {d.name: sorted(f.name for f in d.iterdir()) for d in tmp_path.iterdir() if d.is_dir()} == written


@pytest.mark.parametrize("command", ["verify", "report"])
def test_negative_seed_override_is_config_error(pair_config, capsys, command):
    assert main([command, "--config", pair_config, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed must be a nonnegative integer" in err


@pytest.mark.parametrize("command", ["solve-gap", "solve-new-gap", "spectrum", "energy"])
def test_seed_option_only_on_the_commands_that_read_it(pair_config, capsys, command):
    # only verify and report run the ordering check that the seed drives
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", pair_config, "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "solve-gap", "lattice"])
@pytest.mark.parametrize(
    "fields",
    [
        {"lattice": {"modes": [[1, 0, 0], [-1, 0, 0]], "L": 1e-300}},
        {"lattice": {"modes": [[1, 0, 0], [-1, 0, 0]]}, "physics": {"hbar": 1e200}},
        {"lattice": {"modes": [[1, 0, 0], [-1, 0, 0]]}, "physics": {"m": 1e-320}},
        {"lattice": {"modes": [[1e300, 0, 0], [-1e300, 0, 0]]}},
    ],
)
def test_overflowing_xi_is_config_error(tmp_path, capsys, command, fields):
    """Finite L, m, hbar or wave vector whose xi = hbar^2 |k|^2/(2m) - mu overflows exits 2 before any solve."""
    cfg = write_config(tmp_path, "overflow.json", {**PAIR_CONFIG, **fields})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "xi must be finite" in err
    assert err.count("\n") == 1 and len(err) <= 201  # one line of at most 200 characters


# every numeric field and section of the pair config, present or optional
CONFIG_FIELDS = [
    ("lattice",), ("kernel",), ("physics",), ("solver",), ("output",), ("seed",),
    ("lattice", "modes"), ("lattice", "xi"), ("lattice", "L"), ("kernel", "matrix"),
    ("physics", "mu"), ("physics", "hbar"), ("physics", "m"),
    ("solver", "init"), ("solver", "damping"), ("solver", "tol"), ("solver", "max_iter"),
]


def _is_numeric(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


MALFORMED_VALUES = st.one_of(
    st.text(max_size=6).filter(lambda t: not _is_numeric(t)),
    st.lists(
        st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.lists(st.none(), max_size=2)),
        max_size=3,
    ),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.none(),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(field=st.sampled_from(CONFIG_FIELDS), value=MALFORMED_VALUES)
def test_malformed_field_is_config_error(tmp_path_factory, field, value):
    """A non-number in a numeric field, or a non-object section, exits 2 and raises nothing."""
    # an object is a valid optional section, and null leaves xi to the formula
    assume(not (isinstance(value, dict) and field in {("physics",), ("solver",), ("output",)}))
    assume(not (value is None and field == ("lattice", "xi")))
    payload = json.loads(json.dumps(PAIR_CONFIG))
    parent = payload
    for key in field[:-1]:
        parent = parent.setdefault(key, {})
    parent[field[-1]] = value
    path = tmp_path_factory.mktemp("malformed") / "config.json"
    path.write_text(json.dumps(payload))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", "--config", str(path)])
    assert code == 2
    assert err.getvalue().startswith("config error:")


def test_nonfinite_iterate_exits_as_convergence_error(tmp_path, capsys):
    # U^2 overflows in D_k, so the corrected iterate turns NaN on the first step
    payload = {**PAIR_CONFIG, "kernel": {"matrix": [[0, -1e200], [-1e200, 0]]}}
    cfg = write_config(tmp_path, "huge.json", payload)
    assert main(["solve-new-gap", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource/convergence error:") and "non-finite" in err


def test_verify_overflowing_dk_exits_without_warning(tmp_path, capsys):
    # U^2 overflows in D_k at the classic solution; pytest turns a numpy RuntimeWarning into an error
    payload = {
        "lattice": {"modes": [[1, 0, 0], [-1, 0, 0]], "xi": [1e300, 1e300]},
        "kernel": {"matrix": [[0, -1e300], [-1e300, 0]]},
    }
    cfg = write_config(tmp_path, "overflow_dk.json", payload)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource/convergence error:") and "non-finite" in err


def test_verify_solves_both_gap_equations_before_any_stage(tmp_path, capsys):
    # the classic solve succeeds at Delta ~ 1e200 and the corrected one turns non-finite; a stage
    # that read the classic gap first would overflow in numpy before the pass stopped
    payload = {
        "lattice": {"modes": [[1, 0, 0], [-1, 0, 0]], "xi": [1.6, 1.6]},
        "kernel": {"matrix": [[0, -1e200], [-1e200, 0]]},
    }
    cfg = write_config(tmp_path, "overflow_u.json", payload)
    assert main(["verify", "--config", cfg]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("resource/convergence error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "report", "spectrum", "energy"])
def test_overflowing_kinetic_term_is_config_error(tmp_path, capsys, command):
    # xi = 1e308 is finite, but T's entries 2 xi are not; a Fock command exits 2 before any output
    payload = {
        "lattice": {"modes": [[1, 0, 0], [-1, 0, 0]], "xi": [1e308, 1e308]},
        "kernel": {"matrix": [[0, -1], [-1, 0]]},
    }
    cfg = write_config(tmp_path, "overflow_t.json", payload)
    assert main([command, "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: kinetic term overflows") and err.count("\n") == 1


def test_unconverged_gap_solve_exits_as_convergence_error(tmp_path, capsys):
    # the correction factor is <= 0 on both modes: the corrected iteration never settles
    payload = {
        "lattice": {"modes": [[1, 0, 0], [-1, 0, 0]], "xi": [0.2711921194798909] * 2},
        "kernel": {"matrix": [[0, -3.1152392532996203], [-3.1152392532996203, 0]]},
    }
    cfg = write_config(tmp_path, "unsettled.json", payload)
    assert main(["solve-new-gap", "--config", cfg]) == 3
    capsys.readouterr()
    for command in ("verify", "report"):
        out_dir = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out_dir)]) == 3
        captured = capsys.readouterr()
        assert "gap_solution_new" in captured.out
        assert "new gap equation did not converge" in captured.err
        assert "classic gap equation did not converge" not in captured.err
        assert (out_dir / "report.json").is_file() and (out_dir / "report.csv").is_file()


# Modes {0, +-e1} with an attractive kernel whose corrected equation has a
# solution, Delta = (0.29962, 0.06986, 0.06986), that the damped map with
# b = 0.5 repels: its gap-map Jacobian has eigenvalues -0.568 +- 3.106i, so
# (1-b) + b lambda lies outside the unit circle for every b above 0.259
REPELLING_NEW_GAP = {
    "lattice": {"modes": [[0, 0, 0], [1, 0, 0], [-1, 0, 0]], "xi": [-0.26, -0.329, -0.329]},
    "kernel": {"matrix": [[0.0, -2.784, -2.784], [-2.784, 0.0, -0.575], [-2.784, -0.575, 0.0]]},
}


def test_repelling_corrected_solution_exits_as_unconverged(tmp_path, capsys):
    # the damped start never brings the residual down to the Anderson switch,
    # so verify reports the corrected equation unconverged; no certificate is relaxed
    cfg = write_config(tmp_path, "repelling.json", REPELLING_NEW_GAP)
    assert main(["verify", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert "new gap equation did not converge" in captured.err
    assert "classic gap equation did not converge" not in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert re.search(r"^gap_solution_new .* FAIL$", captured.out, re.M)
    assert re.search(r"^gap_solution_classic .* PASS$", captured.out, re.M)
    # a mixing weight below 0.259 makes that solution attracting, and the same driver finds it
    cfg = load_config(write_config(tmp_path, "damped.json", {**REPELLING_NEW_GAP, "solver": {"damping": 0.2}}))
    sol = gapsolve.solve_new_gap(cfg.mt, cfg.kernel, **cfg.solver)
    assert sol.converged and not sol.trivial
    assert np.allclose(sol.delta.delta, [0.29962219, 0.06985807, 0.06985807], atol=1e-8)


GOLDEN = Path(__file__).parent / "golden"


# each stage's rows alone, and rows of four stages that skip every reader of the pair sectors
FILTERED_CHECKS = [
    *(list(names) for _, names in bcslab.analysis._STAGES),
    ["car_relations", "hm_splitting", "delta_e_formula_vs_dense", "ordering_invariance"],
]


@pytest.mark.parametrize("instance", ["pair", "three_mode", "six_mode", "seven_mode", "ac10"])
def test_verify_matches_golden_report(instance, tmp_path, capsys):
    """Reports stay byte-identical to the committed ones for existing configs.

    A checks list writes the committed rows of the checks it names, bit for bit, and exits as the
    full pass does.
    """
    golden = GOLDEN / instance
    code = json.loads((golden / "exit_codes.json").read_text())["verify"]
    assert main(["verify", "--config", str(golden / "config.json"), "--out", str(tmp_path)]) == code
    for name in ("report.json", "report.csv"):
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name
    full = json.loads((golden / "report.json").read_text())
    csv_rows = (golden / "report.csv").read_bytes().splitlines(keepends=True)
    config = json.loads((golden / "config.json").read_text())
    capsys.readouterr()
    for i, checks in enumerate(FILTERED_CHECKS):
        cfg = write_config(tmp_path, f"filtered{i}.json", {**config, "checks": checks})
        out = tmp_path / f"filtered{i}"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == code
        assert capsys.readouterr().err == ""
        rows = [c for c in full["checks"] if c["name"] in checks]
        assert {c["name"] for c in rows} == set(checks)
        payload = json.dumps({"metadata": full["metadata"], "checks": rows}, indent=2, sort_keys=True) + "\n"
        assert (out / "report.json").read_bytes() == payload.encode(), checks
        expected_csv = [csv_rows[0], *(r for r in csv_rows[1:] if r.split(b",", 1)[0].decode() in checks)]
        assert (out / "report.csv").read_bytes() == b"".join(expected_csv), checks


# the stdout of each command on each golden, in <stem>.out, and its exit code, in exit_codes.json;
# verify and report write no report files here
GOLDEN_COMMANDS = {
    "energy": ["energy"],
    "spectrum-classic": ["spectrum", "--equation", "classic"],
    "spectrum-new": ["spectrum", "--equation", "new"],
    "solve-gap": ["solve-gap"],
    "solve-new-gap": ["solve-new-gap"],
    "verify": ["verify"],
    "report": ["report"],
    "lattice": ["lattice"],
}


def _matches_golden_stdout(instance, stem, capsys):
    golden = GOLDEN / instance
    code = main([*GOLDEN_COMMANDS[stem], "--config", str(golden / "config.json")])
    assert capsys.readouterr().out == (golden / f"{stem}.out").read_text()
    assert code == json.loads((golden / "exit_codes.json").read_text())[stem]


@pytest.mark.parametrize("stem", ["energy", "spectrum-classic", "spectrum-new"])
@pytest.mark.parametrize("instance", ["pair", "three_mode", "six_mode", "seven_mode", "ac10"])
def test_energy_and_spectrum_match_golden_stdout(instance, stem, capsys):
    """energy and both spectrum equations print the committed stdout and exit with the committed code.

    The printed spectrum deviation reads `op_norm_inf`, so this also pins the one row-sum routine.
    """
    _matches_golden_stdout(instance, stem, capsys)


@pytest.mark.parametrize("stem", ["solve-gap", "solve-new-gap", "verify", "report", "lattice"])
@pytest.mark.parametrize("instance", ["pair", "three_mode", "six_mode", "seven_mode", "ac10"])
def test_solve_verify_and_report_match_golden_stdout(instance, stem, capsys):
    """Both solve commands, verify and report without --out, and lattice print the committed stdout.

    Each also exits with the committed code.
    """
    _matches_golden_stdout(instance, stem, capsys)


def test_readme_command_examples_use_existing_configs():
    root = Path(__file__).resolve().parents[1]
    block = (root / "README.md").read_text().split("## Command line", 1)[1].split("```")[1]
    paths = re.findall(r"--config (\S+)", block)
    assert paths
    assert [p for p in paths if not (root / p).is_file()] == []


def test_readme_library_example_runs(capsys):
    """The README "Library use" block runs as written on the pair instance and its verification passes."""
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "[1.2 1.2]"
    assert out[-1] == "True"


def _forbid(monkeypatch, *names):
    """Make every bcslab binding of each named function or class raise when called."""
    for name in names:
        original = getattr(bcslab.analysis, name)

        def unread(*args, name=name):
            raise AssertionError(f"{name} was called by a command that does not print it")

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("bcslab") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, unread)


def test_classic_spectrum_builds_only_the_paired_state(pair_config, monkeypatch, capsys):
    """H_M of the classic equation reads Psi_B's pair table; the gammas and Phi are not built."""
    _forbid(monkeypatch, "quasi_ops", "correction_state")
    assert main(["spectrum", "--config", pair_config, "--equation", "classic"]) == 0
    assert "(tolerance 1e-09)" in capsys.readouterr().out


def test_new_spectrum_never_solves_the_classic_equation(pair_config, monkeypatch, capsys):
    """spectrum --equation new reads the corrected solution, its Psi~ and H_M only."""
    _forbid(monkeypatch, "solve_gap")
    assert main(["spectrum", "--config", pair_config, "--equation", "new"]) == 0
    assert capsys.readouterr().out.startswith("equation=new ")


def test_energy_builds_no_mean_field_or_corrected_equation(pair_config, monkeypatch, capsys):
    """energy prints classic energies only: no corrected solve, K, pair sectors or H_M."""
    _forbid(monkeypatch, "solve_new_gap", "build_GB", "PairSectors", "build_HM")
    assert main(["energy", "--config", pair_config]) == 0
    assert "(Psi, H Psi) = " in capsys.readouterr().out


def test_report_command(pair_config, tmp_path, capsys):
    out_dir = tmp_path / "rep"
    assert main(["report", "--config", pair_config, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "classic gap equation" in out
    assert "verification" in out


def test_report_solves_each_gap_equation_once(pair_config, monkeypatch, capsys):
    """report prints the solutions the verification solved; it does not solve them again."""
    solves = []
    solve = gapsolve._solve
    monkeypatch.setattr(gapsolve, "_solve", lambda *args: solves.append(args) or solve(*args))
    assert main(["report", "--config", pair_config]) == 0
    assert len(solves) == 4  # classic, corrected, and the permuted pair


def test_report_prints_the_iterations_of_its_report(tmp_path, capsys):
    # tol = 1e-10 here, looser than the 1e-12 the verification solves at
    config = GOLDEN / "three_mode" / "config.json"
    assert main(["report", "--config", str(config), "--out", str(tmp_path)]) == 0
    printed = re.findall(r"^equation=(\w+) .* iterations=(\d+) ", capsys.readouterr().out, re.M)
    metadata = json.loads((tmp_path / "report.json").read_text())["metadata"]
    assert printed == [(eq, str(metadata[eq]["iterations"])) for eq in ("classic", "new")]


def test_lattice_bound_past_the_float_range_prints_short(capsys):
    """At L = 1e300 the lower bound on M has 898 digits: the exit-3 line prints it as %.6g."""
    assert main(["lattice", "--L", "1e300", "--kmax", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource/convergence error:") and "M>=6.20681e+897 modes" in err
    assert err.count("\n") == 1 and len(err) <= 201  # one line of at most 200 characters


def test_lattice_too_large_for_the_cap_exits_promptly(tmp_path):
    """(2 nmax + 1)^3 ~ 3e16 triples at L = 1e6: the box must be rejected before enumerating them."""
    cfg = write_config(tmp_path, "big.json", {**PAIR_CONFIG, "lattice": {"L": 1e6, "kmax": 1.0}})
    src = Path(bcslab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "bcslab", "lattice", "--config", cfg],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("resource/convergence error:") and "M>=" in proc.stderr


def test_verify_deterministic_output(pair_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", pair_config, "--out", str(out_a)]) == 0
    assert main(["verify", "--config", pair_config, "--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()


def test_emit_report_empty_checks(tmp_path):
    report = VerificationReport(checks=[], metadata={"n_modes": 0})
    written = emit_report(report, str(tmp_path / "empty"), formats=("json", "csv"))
    payload = json.loads(written[0].read_text())
    assert payload["checks"] == []


def test_emit_report_roundtrip_bit_exact(tmp_path):
    values = [0.1 + 0.2, -0.08, 1e-300, 0.09038357225875576, np.pi]
    checks = [
        CheckResult(f"check_{i}", v, v, abs(v) / 3.0, 1e-10, True) for i, v in enumerate(values)
    ]
    report = VerificationReport(checks=checks, metadata={"x": values})
    written = emit_report(report, str(tmp_path / "rt"), formats=("json", "csv"))
    payload = json.loads(written[0].read_text())
    for i, entry in enumerate(payload["checks"]):
        assert entry["formula_value"] == values[i]  # bit-exact round trip
        assert entry["deviation"] == abs(values[i]) / 3.0
    assert payload["metadata"]["x"] == values
    with written[1].open() as fh:
        rows = list(csv.DictReader(fh))
    for i, row in enumerate(rows):
        assert float(row["formula_value"]) == values[i]
