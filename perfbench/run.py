#!/usr/bin/env python3
"""bcslab benchmark: verification reports and gap-solve sweeps, timed from outside.

Run from the root of a bcslab source tree (the package is imported from
./src, never from an installed copy):

    python3 perfbench/run.py --workload verify-m5 --seed 1 --seconds 15 --trace 0

Workloads: verify-m5 (AC-10 instance), verify-m7 (default 7-mode lattice),
gap-sweep (seeded couplings on both mode tables, classic and corrected).
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
--smoke runs each phase once and prints both sets.  README.md in this
directory documents every metric and workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import tracer as tracer_mod

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("verify-m5", "verify-m7", "gap-sweep")
# Processes per untraced run, each set up cold and then timed warm.  More
# processes spread the samples over more of the box's speed swings; the
# counts keep the cold phase near 15 s on each workload.
FRESH_PROCESSES = {"verify-m5": 7, "verify-m7": 5, "gap-sweep": 8}
CHILD_TIMEOUT_S = 150
SOLVER_TOL = 1e-10  # bcslab's default solver tolerance, used by every workload
SWEEP_COUPLINGS = 128  # per mode table, each solved with both equations
SWEEP_RANGE = (0.1, 4.0)
# Draws within this relative distance of a critical coupling are moved out:
# at g_c itself the classic fixed point converges only algebraically and
# exhausts max_iter (known defect, see README.md), and just outside it the
# iteration count swings by 10x with the draw, which would make the sweep's
# cost depend on the seed.
CRITICAL_MARGIN = 0.05
# Every timed span is scaled by the box's speed around it, measured with a
# fixed pure-Python loop that shares no code with bcslab.  On a shared VM the
# whole CPU runs 1.2x-1.8x slower for minutes at a time, and the loop slows
# down with it; see "Reference speed" in README.md.
CALIBRATION_LOOP = 40_000  # iterations of one calibration loop
CALIBRATION_REPEATS = 5  # loops per speed reading; the reading is their median
CALIBRATION_REFERENCE_S = 0.0021  # one loop at the reference box's full speed

TWO_PI = 2.0 * math.pi


class Instance:
    """A mode table and separable kernel, described independently of bcslab."""

    def __init__(self, modes, mu, g, shell, config_lattice):
        self.modes = [tuple(n) for n in modes]
        self.mu = mu
        self.g = g
        self.shell = shell
        self.config_lattice = config_lattice
        norm2 = np.array([n[0] ** 2 + n[1] ** 2 + n[2] ** 2 for n in self.modes], dtype=np.float64)
        self.xi = norm2 - mu  # hbar = 1, 2m = 1, L = 2 pi
        knorm = np.sqrt(norm2)
        if shell is None:
            self.in_shell = np.ones(len(self.modes), dtype=bool)
        else:
            self.in_shell = (knorm >= shell[0]) & (knorm <= shell[1])

    def kernel(self, g: float) -> np.ndarray:
        s = self.in_shell.astype(np.float64)
        u = -g * np.outer(s, s)
        np.fill_diagonal(u, 0.0)
        return u

    def config(self, seed: int) -> dict:
        sep = {"g": self.g}
        if self.shell is not None:
            sep["shell"] = list(self.shell)
        return {
            "lattice": self.config_lattice,
            "physics": {"mu": self.mu},
            "kernel": {"separable": sep},
            "solver": {"tol": SOLVER_TOL},
            "seed": seed,
        }

    def shell_test(self):
        if self.shell is None:
            return None
        lo, hi = self.shell
        return lambda knorm: lo <= knorm <= hi

    def critical_couplings(self) -> list:
        """Couplings in SWEEP_RANGE where the gap map linearised at Delta = 0 has unit gain.

        Covers the classic and the corrected equation.  A coupled mode with
        xi = 0 has no normal state to linearise about, so no g_c exists.
        """
        energy = np.abs(self.xi)
        if np.any(energy[self.in_shell] == 0.0):
            return []
        sign = np.sign(self.xi)
        shape = (1.0 - np.outer(sign, sign)) ** 2
        esum2 = (energy[:, None] + energy[None, :]) ** 2

        def gain(g, corrected):
            u = self.kernel(g)
            factor = np.ones_like(energy)
            if corrected:
                dk = 0.25 * (u**2 * shape / esum2).sum(axis=1)
                factor = 1.0 - 4.0 * dk / (dk.sum() + 2.0)
            return float(np.max(np.linalg.eigvals(-0.5 * u * (factor / energy)[None, :]).real)) - 1.0

        found = []
        grid = np.linspace(SWEEP_RANGE[0], SWEEP_RANGE[1], 400)
        for corrected in (False, True):
            vals = [gain(g, corrected) for g in grid]
            for i in range(len(grid) - 1):
                if vals[i] * vals[i + 1] < 0:
                    lo, hi = grid[i], grid[i + 1]
                    for _ in range(60):
                        mid = 0.5 * (lo + hi)
                        if gain(mid, corrected) * vals[i] > 0:
                            lo = mid
                        else:
                            hi = mid
                    found.append(0.5 * (lo + hi))
        return sorted(found)

    def sweep_couplings(self, rng, n: int) -> list:
        """n stratified draws, uniform on SWEEP_RANGE minus the critical bands."""
        pieces = [SWEEP_RANGE]
        for gc in self.critical_couplings():
            a, b = gc * (1.0 - CRITICAL_MARGIN), gc * (1.0 + CRITICAL_MARGIN)
            pieces = [p for x, y in pieces for p in ((x, min(y, a)), (max(x, b), y)) if p[1] > p[0]]
        total = sum(y - x for x, y in pieces)
        out = []
        for u in (np.arange(n) + rng.random(n)) / n:
            t = u * total
            for x, y in pieces:
                if t <= y - x:
                    out.append(float(x + t))
                    break
                t -= y - x
            else:
                out.append(float(pieces[-1][1]))
        return out


def _lattice_modes(kmax: float) -> list:
    nmax = int(math.floor(kmax))
    return sorted(
        (a, b, c)
        for a in range(-nmax, nmax + 1)
        for b in range(-nmax, nmax + 1)
        for c in range(-nmax, nmax + 1)
        if a * a + b * b + c * c <= kmax * kmax
    )


def instances() -> dict:
    m5_modes = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    return {
        # AC-10: {0, +-e1, +-e2}, separable kernel over all modes
        "m5": Instance(m5_modes, 0.5, 1.5, None, {"modes": [list(n) for n in m5_modes]}),
        # default lattice: L = 2 pi, kmax = 1, shell [0.5, 1.5]
        "m7": Instance(_lattice_modes(1.0), 1.0, 2.0, (0.5, 1.5), {"L": TWO_PI, "kmax": 1.0}),
    }


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "bcslab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "speed_at_start": CALIBRATION_REFERENCE_S / calibration_s(),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# workloads: set-up and one pass over the instance set


def _import_bcslab():
    """Import bcslab from ./src and refuse any other copy."""
    if not (SRC / "bcslab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bcslab sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import bcslab
    from bcslab import cli

    if Path(bcslab.__file__).resolve().parent != (SRC / "bcslab").resolve():
        raise SystemExit(f"perfbench: imported bcslab from {bcslab.__file__}, not from {SRC}")
    return cli


def work_dir(workload: str, seed: int) -> Path:
    return WORK / f"{workload}-seed{seed}"


def write_inputs(workload: str, seed: int) -> None:
    """Generate the workload's inputs from the seed, before anything is timed."""
    wdir = work_dir(workload, seed)
    wdir.mkdir(parents=True, exist_ok=True)
    insts = instances()
    if workload.startswith("verify-"):
        inst = insts[workload.split("-")[1]]
        (wdir / "config.json").write_text(json.dumps(inst.config(seed)))
        return
    rng = np.random.default_rng(seed)
    couplings = {}
    for key, inst in insts.items():
        (wdir / f"{key}.json").write_text(json.dumps(inst.config(seed)))
        couplings[key] = inst.sweep_couplings(rng, SWEEP_COUPLINGS)
    (wdir / "couplings.json").write_text(json.dumps(couplings))


class VerifyWorkload:
    """One operation is one `bcslab verify --config ... --out ...` in-process."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.inst = instances()[workload.split("-")[1]]
        wdir = work_dir(workload, seed)
        self.config = str(wdir / "config.json")
        self.out = wdir / "out"
        self.skipped = None

    def setup(self, cli):
        self.cli = cli
        cfg = cli.load_config(self.config)
        problems = [] if list(cfg.mt.nvecs) == self.inst.modes else ["mode order differs from the oracle's"]
        self.u = self.inst.kernel(self.inst.g)
        return problems

    def run_pass(self):
        for name in ("report.json", "report.csv"):
            (self.out / name).unlink(missing_ok=True)
        argv = ["verify", "--config", self.config, "--out", str(self.out)]
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        report = self.out / "report.json"
        problems = oracle.check_verify(self.workload, code, report, self.inst.xi, self.u, SOLVER_TOL)
        if not problems:
            self.skipped = sum(c["skipped"] for c in json.loads(report.read_text())["checks"])
        return seconds, 1, len(problems) > 0, problems


class SweepWorkload:
    """One operation is one gap solve; a pass solves every seeded coupling twice."""

    def __init__(self, workload: str, seed: int):
        wdir = work_dir(workload, seed)
        self.insts = instances()
        self.configs = {key: str(wdir / f"{key}.json") for key in self.insts}
        self.couplings = json.loads((wdir / "couplings.json").read_text())
        self.skipped = 0

    def setup(self, cli):
        from bcslab import gapsolve, model

        self.gapsolve, self.model = gapsolve, model
        self.tables = {}
        problems = []
        for key, path in self.configs.items():
            mt = cli.load_config(path).mt
            if list(mt.nvecs) != self.insts[key].modes:
                problems.append(f"{key}: mode order differs from the oracle's")
            self.tables[key] = mt
        return problems

    def run_pass(self):
        seconds = 0.0
        ops = 0
        failed = 0
        problems = []
        for key, inst in self.insts.items():
            mt, shell = self.tables[key], inst.shell_test()
            for g in self.couplings[key]:
                start = time.perf_counter()
                try:
                    kernel = self.model.separable_kernel(mt, g, shell=shell)
                    classic = self.gapsolve.solve_gap(mt, kernel, tol=SOLVER_TOL)
                    corrected = self.gapsolve.solve_new_gap(mt, kernel, tol=SOLVER_TOL)
                except Exception as exc:  # a crash is a failed operation, not the end of the run
                    seconds += time.perf_counter() - start
                    ops += 2
                    failed += 2
                    problems.append(f"{key} g={g!r}: {type(exc).__name__}: {exc}")
                    continue
                seconds += time.perf_counter() - start
                u = inst.kernel(g)
                for equation, sol in (("classic", classic), ("new", corrected)):
                    ops += 1
                    found = oracle.check_solve(equation, sol, inst.xi, u, SOLVER_TOL)
                    if found:
                        failed += 1
                        problems.extend(f"{key} g={g!r}: {p}" for p in found)
        return seconds, ops, failed, problems


def make_workload(workload: str, seed: int):
    return (SweepWorkload if workload == "gap-sweep" else VerifyWorkload)(workload, seed)


# ---------------------------------------------------------------------------
# measurement


def _calibration_loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def calibration_s() -> float:
    """Time of one calibration loop right now: the median of a few."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        _calibration_loop(CALIBRATION_LOOP)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference_speed(seconds: float, cal_before: float, cal_after: float) -> float:
    """`seconds` measured between two speed readings, as they would read at
    the reference speed: scaled by the reference loop time over the mean of
    the two readings."""
    return seconds * CALIBRATION_REFERENCE_S / (0.5 * (cal_before + cal_after))


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, ops, failed, problems):
        self.attempted += ops
        self.failed += int(failed)
        self.problems.extend(problems)


def child_main(args) -> int:
    """Fresh process: set up, report when ready, run a cold pass, then warm passes."""
    cli = _import_bcslab()
    wl = make_workload(args.workload, args.seed)
    tally = Tally()
    problems = wl.setup(cli)
    setup_s = time.time() - args.spawned
    cal_ready = calibration_s()
    tally.add(0, len(problems) > 0, problems)
    first_s, ops, failed, found = wl.run_pass()
    tally.add(ops, failed, found)
    cal_first = calibration_s()
    warm = timed_passes(wl, args.seconds, tally, cal=cal_first)
    print(json.dumps({
        "setup_s": setup_s, "setup_ref_s": at_reference_speed(setup_s, args.spawn_cal, cal_ready),
        "first_pass_s": first_s, "first_pass_ref_s": at_reference_speed(first_s, cal_ready, cal_first),
        "warm_s": warm["plain"], "warm_ref_s": warm["plain_ref"], "warm_ops": warm["plain_ops"],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
    }))
    return 0


def fresh_processes(args, count: int, seconds: float, tally: Tally) -> list:
    """Results of `count` fresh processes, run one after another, each timing
    `seconds` of warm passes; pooling them averages out per-process variation."""
    rows = []
    for _ in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(seconds)]
        cmd += ["--spawn-cal", repr(calibration_s())]
        spawned = time.time()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit("perfbench: a fresh process timed out")
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: a fresh process exited with {proc.returncode}")
        row = json.loads(out.strip().splitlines()[-1])
        tally.add(row["attempted"], row["failed"], row["problems"])
        rows.append(row)
    return rows


def timed_passes(wl, seconds: float, tally: Tally, tracer=None, cal=None):
    """Run passes for about `seconds` of pass time, at least one of each kind.

    Stops once the next pass would end more than half a pass past `seconds`.
    With a tracer, passes alternate traced / untraced.  Returns the pass
    times of each kind, the untraced ones also at the reference speed (read
    before and after each pass; `cal` is a reading just taken), the operations
    of the untraced passes and the span and solve index range of each traced pass.
    """
    plain, plain_ref, traced, ranges = [], [], [], []
    plain_ops = 0
    elapsed = 0.0
    cal_before = calibration_s() if cal is None else cal
    while True:
        done = len(plain) + len(traced)
        if done and plain and (tracer is None or traced) and elapsed + 0.5 * elapsed / done >= seconds:
            break
        use_trace = tracer is not None and len(traced) <= len(plain)
        if use_trace:
            marks = (len(tracer.spans), len(tracer.solves))
            tracer.install()
            try:
                t, ops, failed, problems = wl.run_pass()
            finally:
                tracer.uninstall()
            ranges.append(marks + (len(tracer.spans), len(tracer.solves)))
            traced.append(t)
        else:
            t, ops, failed, problems = wl.run_pass()
            plain_ops += ops
            plain.append(t)
        cal_after = calibration_s()
        if not use_trace:
            plain_ref.append(at_reference_speed(t, cal_before, cal_after))
        cal_before = cal_after
        tally.add(ops, failed, problems)
        elapsed += t
    return {"plain": plain, "plain_ref": plain_ref, "plain_ops": plain_ops, "traced": traced, "ranges": ranges}


# Per-layer metrics read from spans, "<module>.<function>.<field>".  Times are
# shares of the traced pass (seconds = share * trace.total_s): a layer that a
# workload never calls then reads 0 as a ratio, not as a constant time.
LAYER_METRICS = (
    "analysis.eigvalsh.share",
    "analysis.eigvalsh.calls",
    "analysis.hm_spectrum_check.share",
    "analysis.run_verification.self_share",
    "fock.conjugate_series.share",
    "fock.conjugate_series.calls",
    "fock.anticommutator_check.share",
    "fock.ladder_matrix.calls",
    "fock.op_norm_inf.calls",
    "fock.evolve_state.share",
    "hamiltonian.OperatorBundle.share",
    "hamiltonian.build_HM.share",
    "hamiltonian.build_Hprime.share",
    "hamiltonian.build_GB.share",
    "states.bcs_state.share",
    "states.quasi_ops.share",
    "states.correction_state.share",
    "gapsolve.solve_gap.share",
    "gapsolve.solve_new_gap.share",
    "cli.load_config.share",
    "cli.emit_report.share",
)
ROOT_SPAN = "cli.main"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(rows):
    """Medians of the times at the reference speed, and of peak RSS."""
    warm = [t for row in rows for t in row["warm_ref_s"]]
    return {
        "setup_s": _metric(statistics.median(row["setup_ref_s"] for row in rows), "s"),
        "first_pass_s": _metric(statistics.median(row["first_pass_ref_s"] for row in rows), "s"),
        "pass_s": _metric(statistics.median(warm), "s"),
        "peak_rss_mb": _metric(statistics.median(row["rss_mb"] for row in rows), "MB"),
    }


def per_layer_metrics(tracer, passes, wl, tally):
    """Per-pass layer figures averaged over the traced passes, plus trace bookkeeping."""
    traced, ranges = passes["traced"], passes["ranges"]
    sums = dict.fromkeys(LAYER_METRICS, 0.0)
    covered = 0.0
    per_pass_layers = []
    fields = {"calls": ("calls", "count"), "share": ("s", "ratio"), "self_share": ("self_s", "ratio")}
    for (span_lo, _, span_hi, _), pass_s in zip(ranges, traced):
        layers = tracer_mod.layer_times(tracer.spans, span_lo, span_hi)
        per_pass_layers.append(layers)
        for metric in LAYER_METRICS:
            name, field = metric.rsplit(".", 1)
            value = layers.get(name, {}).get(fields[field][0], 0)
            sums[metric] += value if field == "calls" else value / pass_s
        covered += sum(row["self_s"] for name, row in layers.items() if name != ROOT_SPAN)
    n = len(ranges)
    out = {m: _metric(sums[m] / n, fields[m.rsplit(".", 1)[1]][1]) for m in LAYER_METRICS}
    first = ranges[0]
    solves = tracer.solves[first[1]:first[3]]
    out["gapsolve.iterations"] = _metric(sum(it for it, _ in solves), "count")
    out["gapsolve.trivial_frac"] = _metric(
        sum(triv for _, triv in solves) / len(solves) if solves else 0.0, "ratio"
    )
    out["checks_skipped"] = _metric(wl.skipped if wl.skipped is not None else -1, "count")
    out["fail_rate"] = _metric(tally.failed / tally.attempted, "ratio")
    total = sum(traced)
    out["trace.total_s"] = _metric(total / n, "s")
    out["trace.covered_frac"] = _metric(covered / total, "ratio")
    out["trace.overhead_frac"] = _metric(statistics.median(traced) / statistics.median(passes["plain"]) - 1.0, "ratio")
    return out, per_pass_layers


def _print_layers(per_pass_layers, limit=25):
    merged = {}
    for layers in per_pass_layers:
        for name, row in layers.items():
            acc = merged.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for key in acc:
                acc[key] += row[key]
    n = len(per_pass_layers)
    print(f"{'layer (per traced pass)':<36} {'self_s':>10} {'incl_s':>10} {'calls':>9}")
    for name, row in sorted(merged.items(), key=lambda kv: -kv[1]["self_s"])[:limit]:
        print(f"{name:<36} {row['self_s'] / n:>10.4f} {row['s'] / n:>10.4f} {row['calls'] / n:>9.0f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass of each phase; prints every metric")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--spawn-cal", dest="spawn_cal", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    cli = _import_bcslab()
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env), flush=True)
    write_inputs(args.workload, args.seed)
    tally = Tally()
    metrics = {}
    wl = make_workload(args.workload, args.seed)
    untraced = args.smoke or args.trace == 0
    traced = args.smoke or args.trace == 1
    seconds = 0.0 if args.smoke else args.seconds

    if untraced:
        count = 1 if args.smoke else FRESH_PROCESSES[args.workload]
        rows = fresh_processes(args, count, seconds / count, tally)
        metrics.update(end_to_end_metrics(rows))
        per_pass = rows[0]["warm_ops"] / len(rows[0]["warm_s"])
        print(f"samples: {count} fresh processes, {per_pass:g} operations per pass; warm pass_s "
              f"values per process {[[round(t, 4) for t in row['warm_ref_s']] for row in rows]}, "
              f"as measured {[[round(t, 4) for t in row['warm_s']] for row in rows]}")
        for name in ("setup_s", "first_pass_s"):
            print(f"samples: {name} per process {[round(row[name[:-2] + '_ref_s'], 4) for row in rows]}, "
                  f"as measured {[round(row[name], 4) for row in rows]}")
    if traced:
        problems = wl.setup(cli)
        tally.add(0, len(problems) > 0, problems)
        tally.add(*wl.run_pass()[1:])  # warm-up: lazy imports, BLAS threads, caches
        tracer = tracer_mod.Tracer()
        passes = timed_passes(wl, seconds, tally, tracer)
        ranges = passes["ranges"]
        layer_metrics, per_pass_layers = per_layer_metrics(tracer, passes, wl, tally)
        metrics.update(layer_metrics)
        _print_layers(per_pass_layers)
        trace_file = work_dir(args.workload, args.seed) / "trace.json"
        trace_file.write_text(json.dumps({
            "env": env,
            "passes": [{"spans": tracer.spans[a:c], "solves": tracer.solves[b:d]} for a, b, c, d in ranges],
        }))
        print(f"samples: traced passes {len(passes['traced'])}, untraced passes {len(passes['plain'])}; "
              f"spans in {trace_file}")
    for problem in tally.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
