"""Command-line interface: config ingestion, experiment subcommands, reports.

Subcommands: lattice, solve-gap, solve-new-gap, spectrum, energy, verify,
report.  Exit codes: 0 success / all checks pass, 1 check failures,
2 usage or config errors, 3 resource or convergence errors (for verify and
report also a gap solve that did not converge).

Configs are JSON; see README for the schema.  Human-readable tables go to
stdout, diagnostics to stderr, machine-readable reports to --out.

Each subcommand is one `set_defaults` entry on its subparser: its handler
`run` and any setting it fixes.  A flag given overrides the config field
(`RunConfig`) of its dest name.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import (
    TOL_LOOSE,
    Instance,
    VerificationReport,
    condensation_energy,
    delta_E_formula,
    free_fermi_energy,
    hm_spectrum_check,
    run_verification,
)
from .errors import ConvergenceError, ResourceLimitError, ValidationError
from .gapsolve import GapSolution, check_solver, solve_gap, solve_new_gap
from .model import (
    Kernel,
    ModeTable,
    build_lambda,
    explicit_modes,
    number_text,
    separable_kernel,
    validate_kernel,
)

EXIT_OK = 0
EXIT_CHECK_FAILURES = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
FORMATS = ("json", "csv")


@dataclass
class RunConfig:
    mt: ModeTable
    kernel: Kernel
    equation: str = "classic"
    init: float = 1.0
    damping: float = 0.5
    tol: float = 1e-10
    max_iter: int = 10000
    checks: object = "all"
    out_dir: str | None = None
    formats: tuple = FORMATS
    seed: int = 0

    @property
    def solver(self) -> dict:
        """The solver settings, as keyword arguments of the gap solvers."""
        return {"init": self.init, "damping": self.damping, "tol": self.tol, "max_iter": self.max_iter}


def _number(value, name: str, kind=float):
    """`value` as `kind` if it is a finite JSON number, else a config error naming the field.

    Booleans, strings, NaN and infinities are rejected; an int field takes integral values only.
    A rejected integer, one past the float range, is shown through `number_text`.
    """
    try:
        ok = (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value)
            and (kind is float or value == int(value))
        )
    except OverflowError:
        ok = False
    if not ok:
        noun = "an integer" if kind is int else "a finite number"
        shown = number_text(value) if isinstance(value, int) and not isinstance(value, bool) else repr(value)
        raise ValidationError(f"{name} must be {noun}, got {shown}")
    return kind(value)


def _numbers(values, name: str, length=None, kind=float) -> list:
    """A JSON list of numbers (of `length` entries when given), each checked by `_number`."""
    if not isinstance(values, list) or length not in (None, len(values)):
        size = "" if length is None else f"{length} "
        raise ValidationError(f"{name} must be a list of {size}numbers, got {values!r}")
    return [_number(v, name, kind) for v in values]


def _rows(value, name: str, width=None, kind=float) -> list:
    """A JSON list of rows of `width` numbers each (as many as there are rows when None)."""
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a list of rows, got {value!r}")
    return [_numbers(r, name, len(value) if width is None else width, kind) for r in value]


def _section(raw: dict, key: str, name: str) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ValidationError(f"{name} must be an object, got {value!r}")
    return value


def _formats(names) -> tuple:
    if not isinstance(names, (list, tuple)):
        raise ValidationError(f"output formats must be a list, got {names!r}")
    if not names:
        raise ValidationError("output.formats must name at least one format, got []")
    for fmt in names:
        if fmt not in FORMATS:
            raise ValidationError(f"unknown output format {fmt!r}")
    return tuple(names)


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON config; raises ValidationError on any defect."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")

    lattice = raw.get("lattice")
    if not isinstance(lattice, dict):
        raise ValidationError("config needs a 'lattice' object")
    physics = _section(raw, "physics", "physics")
    mu = _number(physics.get("mu", 0.0), "physics.mu")
    hbar = _number(physics.get("hbar", 1.0), "physics.hbar")
    mass = _number(physics.get("m", 0.5), "physics.m")

    has_ball = "L" in lattice and "kmax" in lattice
    has_modes = "modes" in lattice
    if has_ball == has_modes:
        raise ValidationError("lattice must specify exactly one of {L,kmax} or {modes}")
    if has_ball:
        L, kmax = _number(lattice["L"], "lattice.L"), _number(lattice["kmax"], "lattice.kmax")
        mt = build_lambda(L, kmax, mu=mu, hbar=hbar, mass=mass)
    else:
        xi = lattice.get("xi")
        mt = explicit_modes(
            _rows(lattice["modes"], "lattice.modes", 3, int),
            xi_override=None if xi is None else _numbers(xi, "lattice.xi"),
            L=_number(lattice.get("L", 2.0 * math.pi), "lattice.L"),
            mu=mu,
            hbar=hbar,
            mass=mass,
        )

    kspec = raw.get("kernel")
    if not isinstance(kspec, dict):
        raise ValidationError("config needs a 'kernel' object")
    has_matrix = "matrix" in kspec
    has_sep = "separable" in kspec
    if has_matrix == has_sep:
        raise ValidationError("kernel must specify exactly one of {matrix} or {separable}")
    if has_matrix:
        kernel = Kernel(u=np.array(_rows(kspec["matrix"], "kernel.matrix")))
    else:
        sep = _section(kspec, "separable", "kernel.separable")
        shell = None
        if "shell" in sep:
            lo, hi = _numbers(sep["shell"], "kernel.separable.shell", 2)
            shell = lambda knorm: lo <= knorm <= hi  # noqa: E731
        kernel = separable_kernel(mt, _number(sep.get("g"), "kernel.separable.g"), shell=shell)
    # reject a bad kernel before any matrix is built
    violations = validate_kernel(kernel, mt)
    if violations:
        raise ValidationError("kernel constraint violations: " + "; ".join(violations))

    solver = _section(raw, "solver", "solver")
    equation = solver.get("equation", "classic")
    if equation not in ("classic", "new"):
        raise ValidationError(f"solver.equation must be 'classic' or 'new', got {equation!r}")
    checks = raw.get("checks", "all")
    if checks not in ("all", None) and not (
        isinstance(checks, list) and checks and all(isinstance(c, str) for c in checks)
    ):
        raise ValidationError(f"checks must be \"all\" or a nonempty list of check names, got {checks!r}")

    output = _section(raw, "output", "output")
    out_dir = output.get("dir")
    if not isinstance(out_dir, (str, type(None))):
        raise ValidationError(f"output.dir must be a path string, got {out_dir!r}")
    cfg = RunConfig(
        mt=mt,
        kernel=kernel,
        equation=equation,
        init=_number(solver.get("init", 1.0), "solver.init"),
        damping=_number(solver.get("damping", 0.5), "solver.damping"),
        tol=_number(solver.get("tol", 1e-10), "solver.tol"),
        max_iter=_number(solver.get("max_iter", 10000), "solver.max_iter", int),
        checks=checks,
        out_dir=out_dir,
        formats=_formats(output.get("formats", FORMATS)),
        seed=_number(raw.get("seed", 0), "seed", int),
    )
    check_solver(**cfg.solver)
    return cfg


def _config(args) -> RunConfig:
    """The config at --config, each flag given set on the field of its name, solver settings checked."""
    cfg = load_config(args.config)
    for field in fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(cfg, field.name, _formats(value.split(",")) if field.name == "formats" else value)
    check_solver(**cfg.solver)
    return cfg


# ---------------------------------------------------------------------------
# report emission


def _float_repr(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def report_payload(report: VerificationReport) -> dict:
    return {"metadata": report.metadata, "checks": [asdict(c) for c in report.checks]}


def emit_report(report: VerificationReport, out_dir: str, formats=("json", "csv")) -> list:
    """Write report.json / report.csv under out_dir; returns the paths written."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = []
        if "json" in formats:
            path = out / "report.json"
            path.write_text(json.dumps(report_payload(report), indent=2, sort_keys=True) + "\n")
            written.append(path)
        if "csv" in formats:
            path = out / "report.csv"
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(
                    ["name", "formula_value", "brute_value", "deviation", "tolerance", "pass"]
                )
                for c in report.checks:
                    status = "skipped" if c.skipped else str(bool(c.passed)).lower()
                    writer.writerow(
                        [
                            c.name,
                            _float_repr(c.formula_value),
                            _float_repr(c.brute_value),
                            _float_repr(c.deviation),
                            _float_repr(c.tolerance),
                            status,
                        ]
                    )
            written.append(path)
        return written
    except OSError as exc:
        raise ResourceLimitError(f"cannot write report to {out_dir}: {exc}") from exc


def _print_check_table(report: VerificationReport) -> None:
    width = max((len(c.name) for c in report.checks), default=10)
    print(f"{'check':<{width}}  {'deviation':>12}  {'tolerance':>12}  status")
    for c in report.checks:
        if c.skipped:
            print(f"{c.name:<{width}}  {'-':>12}  {'-':>12}  SKIP ({c.reason})")
        else:
            status = "PASS" if c.passed else "FAIL"
            note = f" ({c.reason})" if c.reason else ""
            print(f"{c.name:<{width}}  {c.deviation:>12.3e}  {c.tolerance:>12.3e}  {status}{note}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_lattice(args) -> int:
    if args.config:
        if flags := [f"--{name}" for name in ("L", "kmax", "mu") if getattr(args, name) is not None]:
            raise ValidationError(f"lattice takes --config or --L/--kmax/--mu, not both; got {' '.join(flags)}")
        mt = _config(args).mt
    else:
        if args.L is None or args.kmax is None:
            raise ValidationError("lattice needs either --config or both --L and --kmax")
        mt = build_lambda(args.L, args.kmax, mu=0.0 if args.mu is None else args.mu)
    print(f"M = {mt.n_modes} modes, dimension 2^{2 * mt.n_modes} = {mt.dim}")
    print(f"{'idx':>4} {'n':>12} {'|k|':>10} {'xi':>12} {'pair':>4}")
    for i, n in enumerate(mt.nvecs):
        print(f"{i:>4} {str(n):>12} {mt.knorm(i):>10.6f} {mt.xi[i]:>12.6f} {mt.pair[i]:>4}")
    return EXIT_OK


def _print_solution(mt: ModeTable, sol: GapSolution) -> None:
    label = "trivial" if sol.trivial else ("converged" if sol.converged else "NOT CONVERGED")
    print(
        f"equation={sol.equation}  status={label}  iterations={sol.iterations}  "
        f"residual_inf={sol.residual_inf:.3e}"
    )
    header = f"{'idx':>4} {'n':>12} {'xi':>10} {'Delta':>14} {'theta':>10} {'E':>12}"
    if sol.dk is not None:
        header += f" {'D_k':>12}"
    print(header)
    gap = sol.delta
    for i, n in enumerate(mt.nvecs):
        row = (
            f"{i:>4} {str(n):>12} {mt.xi[i]:>10.4f} {gap.delta[i]:>14.10f} "
            f"{gap.theta[i]:>10.6f} {gap.energy[i]:>12.8f}"
        )
        if sol.dk is not None:
            row += f" {sol.dk[i]:>12.4e}"
        print(row)
    if sol.dsum is not None:
        print(f"D = {sol.dsum:.10e}   max_k 4D_k/(D+2) = {sol.max_factor_dev:.10e}")
    if sol.clamped:
        print("note: nonnegativity clamp activated during iteration")
    if sol.nonpositive_factor:
        print(f"note: correction factor <= 0 at mode indices {list(sol.nonpositive_factor)}")
    if sol.degenerate_modes:
        print(f"note: degenerate modes (xi = Delta = 0) at indices {list(sol.degenerate_modes)}")


def _cmd_solve(args) -> int:
    cfg = _config(args)
    sol = (solve_new_gap if cfg.equation == "new" else solve_gap)(cfg.mt, cfg.kernel, **cfg.solver)
    _print_solution(cfg.mt, sol)
    return EXIT_OK if sol.converged else EXIT_RESOURCE


def _cmd_spectrum(args) -> int:
    cfg = _config(args)
    inst = Instance(cfg.mt, cfg.kernel, cfg.solver)
    # H_M reads the pair table of the state its equation pairs: Psi_B or Psi~
    new = cfg.equation == "new"
    sol = inst.new_sol if new else inst.sol
    if not sol.converged:
        print("gap equation did not converge; no spectrum check", file=sys.stderr)
        return EXIT_RESOURCE
    gap, hm, ebcs = (inst.gap_t, inst.hm_t, inst.ebcs_t) if new else (inst.gap, inst.hm, inst.ebcs)
    dev, spectrum = hm_spectrum_check(hm, inst.sectors, gap, ebcs)
    print(f"equation={sol.equation}  E_BCS={ebcs:.12f}  ground={spectrum[0]:.12f}")
    print(f"spectrum multiset deviation = {dev:.3e} (tolerance {TOL_LOOSE:g})")
    return EXIT_OK if dev <= TOL_LOOSE else EXIT_CHECK_FAILURES


def _cmd_energy(args) -> int:
    cfg = _config(args)
    inst = Instance(cfg.mt, cfg.kernel, cfg.solver)
    if not inst.sol.converged:
        print("gap equation did not converge; no energy table", file=sys.stderr)
        return EXIT_RESOURCE
    mt, gap, e_b, e_f = cfg.mt, inst.gap, inst.e_b, inst.e_f
    denergy = delta_E_formula(mt, cfg.kernel, gap, inst.corr.overlap)
    rows = [
        ("E_BCS (formula)", inst.ebcs, "(Psi_B, H Psi_B)", e_b),
        ("free sea (formula)", free_fermi_energy(mt), "(Psi_F, H Psi_F)", e_f),
        ("condensation (formula)", condensation_energy(mt, gap), "dense difference", e_b - e_f),
        ("Delta-E (formula)", denergy, "dense difference", inst.e_psi - e_b),
    ]
    worst = 0.0
    for name, formula, brutename, brute in rows:
        dev = abs(formula - brute)
        worst = max(worst, dev)
        print(f"{name:<24} {formula:>20.12f}   {brutename:<18} {brute:>20.12f}   dev {dev:.3e}")
    print(f"(Psi, H Psi) = {inst.e_psi:.12f}")
    return EXIT_OK if worst <= TOL_LOOSE else EXIT_CHECK_FAILURES


def _cmd_verify(args) -> int:
    cfg = _config(args)
    report = run_verification(cfg.mt, cfg.kernel, **cfg.solver, seed=cfg.seed, checks=cfg.checks)
    if args.solutions:
        for equation, sol in report.solutions.items():
            print(f"--- {equation} gap equation ---")
            _print_solution(cfg.mt, sol)
        print("--- verification ---")
    _print_check_table(report)
    if cfg.out_dir:
        written = emit_report(report, cfg.out_dir, cfg.formats)
        for path in written:
            print(f"wrote {path}")
    if not report.all_passed:
        print(f"{len(report.failures())} check(s) failed", file=sys.stderr)
    unsolved = [equation for equation, sol in report.solutions.items() if not sol.converged]
    for equation in unsolved:
        print(f"{equation} gap equation did not converge", file=sys.stderr)
    if unsolved:
        return EXIT_RESOURCE
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILURES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcslab",
        description="Exact Fock-space checks for BCS pairing instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lat = sub.add_parser("lattice", help="print the mode table")
    p_lat.set_defaults(run=_cmd_lattice)
    p_lat.add_argument("--config")
    p_lat.add_argument("--L", type=float)
    p_lat.add_argument("--kmax", type=float)
    p_lat.add_argument("--mu", type=float)

    def command(name, summary, run, out=False, **settings):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run, **settings)
        p.add_argument("--config", required=True)
        p.add_argument("--tol", type=float)
        p.add_argument("--max-iter", dest="max_iter", type=int)
        if out:
            p.add_argument("--seed", type=int)
            # each dest names the RunConfig field the flag sets; metavar keeps the usage text
            p.add_argument("--out", dest="out_dir", metavar="OUT")
            p.add_argument("--format", dest="formats", metavar="FORMAT")
        return p

    command("solve-gap", "solve the classic gap equation", _cmd_solve, equation="classic")
    command("solve-new-gap", "solve the corrected gap equation", _cmd_solve, equation="new")
    p_spec = command("spectrum", "mean-field spectrum vs the quasiparticle formula", _cmd_spectrum)
    p_spec.add_argument("--equation", choices=("classic", "new"))
    command("energy", "energy table: formulas vs dense expectations", _cmd_energy)
    command("verify", "run the full verification report", _cmd_verify, out=True, solutions=False)
    command("report", "verification report plus solution tables", _cmd_verify, out=True, solutions=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResourceLimitError, ConvergenceError) as exc:
        print(f"resource/convergence error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
