"""swirlfem benchmark: seeded CLI workloads, untraced end-to-end metrics and a
traced per-layer breakdown.

    python3 perfbench/run.py [--workload NAME] --seed N --seconds S
                             --trace 0|1 [--smoke]

Without --workload it runs every workload in turn, each ending in its own
result line.

Every repetition runs one ``swirlfem`` command (``swirlfem.cli.main`` argv)
in a fresh process (``workload.py``), so the per-mesh caches and the heap
start empty each time, with BLAS/OpenMP pools capped at one thread.  A run
repeats its command until about --seconds have passed, never fewer than
twice, and reports medians.  With --trace 0 every repetition is untraced and
the run reports the end-to-end metrics; with --trace 1 traced and untraced
repetitions alternate, the run reports per-layer metrics from the traced
ones and the tracing overhead (traced minus untraced wall time).

Each repetition checks its outputs (CSV rows, columns and finiteness, the
expected snapshot/checkpoint files, the final state's wall velocity and
pressure gauge, the analyze CSV against the in-run one byte for byte).  An
operation is a time step or a diagnostics record; one a check finds broken
counts as failed.  The last line of stdout is the JSON result; the full
record (environment, every repetition, the spans) goes to
``.bench_work/results/``.

The seed draws the six profile eps and six beta entries from [0.95, 1.05];
the program only ever sees the generated YAML config.  --smoke shrinks every
workload to a 4x4 mesh (and sends fine_straight_gmres down the GMRES path
anyway) so the benchmark's own tests run in seconds.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

TAU = 0.0125
REYNOLDS = 1000.0
Q_THRESHOLDS = (50.0, 250.0, 750.0)
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
MIN_REPS = 2
DEADLINE_S = 170      # a run ends within 180 s even if a command hangs
SMOKE_N = 4


@dataclass(frozen=True)
class Workload:
    """A swirlfem command and the run config behind it.

    For ``analyze`` the step counts describe the untimed run that writes the
    snapshots, with a record at every snapshot so that the in-run CSV is the
    reference for the analyze CSV.
    """

    command: str          # "run" or "analyze"
    curved: bool
    n: int                # n_r = n_z
    steps: int
    record_every: int
    snapshot_every: int
    checkpoint_every: int

    def record_steps(self):
        return list(range(0, self.steps + 1, self.record_every))

    def snapshot_steps(self):
        return list(range(0, self.steps + 1, self.snapshot_every))

    def checkpoint_steps(self):
        return list(range(self.checkpoint_every, self.steps + 1,
                          self.checkpoint_every))

    def operations(self) -> int:
        records = len(self.record_steps())
        return records if self.command == "analyze" else self.steps + records


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "desk_curved": Workload("run", curved=True, n=10, steps=16,
                            record_every=4, snapshot_every=8,
                            checkpoint_every=8),
    # 30,798 unknowns: above SolverConfig.direct_threshold, so GMRES
    "fine_straight_gmres": Workload("run", curved=False, n=14, steps=24,
                                    record_every=24, snapshot_every=24,
                                    checkpoint_every=24),
    "analyze_desk": Workload("analyze", curved=True, n=10, steps=20,
                             record_every=4, snapshot_every=4,
                             checkpoint_every=20),
}


def profile_draw(seed: int):
    rng = random.Random(seed)
    eps = [rng.uniform(0.95, 1.05) for _ in range(6)]
    beta = [rng.uniform(0.95, 1.05) for _ in range(6)]
    return eps, beta


def config_text(wl: Workload, seed: int, smoke: bool) -> str:
    eps, beta = profile_draw(seed)
    n = SMOKE_N if smoke else wl.n
    doc = {
        "domain": {"kind": "curved", "R": 1.5} if wl.curved
        else {"kind": "straight"},
        "profile": {"kind": "curved_frame" if wl.curved else "straight_frame",
                    "eps": eps, "beta": beta},
        "mesh": {"n_r": n, "n_z": n},
        "solver": {"reynolds": REYNOLDS, "tau": TAU,
                   "t_end": wl.steps * TAU},
        "vortex": {"q_thresholds": list(Q_THRESHOLDS)},
        "output": {"snapshot_interval": wl.snapshot_every * TAU,
                   "diagnostics_interval": wl.record_every * TAU,
                   "checkpoint_interval": wl.checkpoint_every * TAU},
    }
    return json.dumps(doc, indent=1) + "\n"  # JSON is valid YAML


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.pop("SWIRLFEM_OUTPUT_ROOT", None)
    env.update(THREAD_CAPS)
    env["TMPDIR"] = str(work)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Rep:
    traced: bool
    wall_s: float
    code: int
    result: dict
    stderr: str


def run_command(work: Path, tag: str, argv, traced: bool, smoke_gmres: bool,
                timeout: float):
    """One swirlfem command in a fresh workload.py process."""
    result_path = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "workload.py"), str(result_path)]
    if traced:
        cmd.append("--trace")
    if smoke_gmres:
        cmd += ["--direct-threshold", "0"]
    cmd += ["--"] + [str(a) for a in argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(work),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        code, stderr = -1, f"timed out after {timeout:.0f} s"
    wall = time.perf_counter() - t0
    result = {}
    if result_path.exists():
        result = json.loads(result_path.read_text())
        result_path.unlink()
    return Rep(traced, wall, code, result, stderr)


# ---------------------------------------------------------------------------
# output checks -> failed operations


def crashed(wl: Workload, rep: Rep):
    """A command that did not exit cleanly fails all its operations."""
    return wl.operations(), [f"exit code {rep.code}: "
                             f"{rep.stderr.strip()[-500:]}"]


def check_run(wl: Workload, out: Path, mesh, rep: Rep):
    """(failed operations, problems) of one ``swirlfem run``."""
    import checks

    if rep.code != 0:
        return crashed(wl, rep)
    records = wl.record_steps()
    bad_records, problems = checks.check_csv(
        out / "diagnostics.csv", [k * TAU for k in records], Q_THRESHOLDS)
    files = {f"snapshot_{k:06d}.vtk": k for k in wl.snapshot_steps()}
    files.update({f"checkpoint_{k:06d}.npz": k for k in wl.checkpoint_steps()})
    missing = checks.check_files(out, files)
    bad_steps = {files[n] for n in missing}
    problems += [f"{out / n} missing" for n in missing]
    if 0 in bad_steps:  # written together with the step-0 record
        bad_steps.remove(0)
        bad_records.add(0)
    final = checks.check_final_state(out, mesh, wl.steps)
    if final:
        bad_steps.add(wl.steps)
        problems += final
    return len(bad_steps) + len(bad_records), problems


def check_analyze(wl: Workload, out: Path, reference: Path, rep: Rep):
    import checks

    if rep.code != 0:
        return crashed(wl, rep)
    records = wl.record_steps()
    csv = out / "diagnostics.csv"
    bad, problems = checks.check_csv(csv, [k * TAU for k in records],
                                     Q_THRESHOLDS)
    diff, more = checks.compare_csv(csv, reference, len(records))
    return len(bad | diff), problems + more


# ---------------------------------------------------------------------------
# metrics


def end_to_end(wl: Workload, rep: Rep) -> dict:
    """wall_s, setup_s, ops_per_s and peak_rss_mb of one untraced command.

    Set-up ends, for ``run``, when the first diagnostics record starts (mesh,
    initial state and operator are built by then) plus the one-time
    factorization, which happens lazily in the first solve; for ``analyze``
    it is the mesh build.  ops_per_s counts steps (``run``) or records
    (``analyze``) per second of command time after set-up.
    """
    marks = rep.result["marks"]
    if wl.command == "run":
        setup = marks["first_record"] + marks.get("factor_s", 0.0)
        ops = wl.steps
    else:
        setup = marks["mesh_s"]
        ops = len(wl.record_steps())
    return {"wall_s": rep.wall_s, "setup_s": setup,
            "ops_per_s": ops / (rep.result["main_s"] - setup),
            "peak_rss_mb": rep.result["peak_rss_mb"]}


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "ops_per_s": "1/s",
             "peak_rss_mb": "MB"}


def measure(wl: Workload, name: str, seed: int, seconds: float, trace: bool,
            smoke: bool, work: Path):
    """Repeat the workload's command for about `seconds`; returns the report
    dict (metrics, operation counts, problems, raw repetitions)."""
    from swirlfem.config import parse_config
    from swirlfem.pipeline import build_mesh

    deadline = time.perf_counter() + DEADLINE_S
    text = config_text(wl, seed, smoke)
    cfg_path = work / "config.yaml"
    cfg_path.write_text(text)
    _, mesh = build_mesh(parse_config(text))
    smoke_gmres = smoke and name == "fine_straight_gmres"

    argv = ["run", "--config", cfg_path]
    if wl.command == "analyze":
        src = work / "source"
        gen = run_command(work, "source", argv + ["--out", src], False, False,
                          deadline - time.perf_counter())
        gen_failed, gen_problems = check_run(wl, src, mesh, gen)
        if gen_failed:
            return {"attempted": wl.operations(), "failed": wl.operations(),
                    "problems": ["input run: " + p for p in gen_problems],
                    "reps": [], "end_to_end": {}, "per_layer": {}}
        reference = src / "diagnostics.csv"
        argv = ["analyze", "--config", cfg_path] + \
            [src / f"snapshot_{k:06d}.vtk" for k in wl.snapshot_steps()]

    reps, problems, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while True:
        i = len(reps)
        traced = trace and i % 2 == 1
        out = work / f"rep{i}"
        rep = run_command(work, f"rep{i}", argv + ["--out", out], traced,
                          smoke_gmres, deadline - time.perf_counter())
        if wl.command == "analyze":
            bad, probs = check_analyze(wl, out, reference, rep)
        else:
            bad, probs = check_run(wl, out, mesh, rep)
        shutil.rmtree(out, ignore_errors=True)
        attempted += wl.operations()
        failed += bad
        problems += [f"rep {i}: {p}" for p in probs]
        reps.append(rep)
        # stop once one more repetition of average length would overrun
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and \
                elapsed * (len(reps) + 1) / len(reps) > seconds:
            break

    ok = [r for r in reps if r.code == 0 and r.result]
    report = {"attempted": attempted, "failed": failed, "problems": problems,
              "reps": [vars(r) for r in reps]}
    plain = [end_to_end(wl, r) for r in ok if not r.traced]
    report["end_to_end"] = {
        k: {"value": statistics.median(m[k] for m in plain), "unit": unit}
        for k, unit in E2E_UNITS.items()} if plain else {}
    if trace:
        import tracestats

        layers = [tracestats.layer_metrics(r.result["spans"])
                  for r in ok if r.traced]
        per_layer = tracestats.combine(layers) if layers else {}
        if plain and layers:
            traced_wall = statistics.median(r.wall_s for r in ok if r.traced)
            per_layer["trace.overhead_s"] = {
                "value": traced_wall - report["end_to_end"]["wall_s"]["value"],
                "unit": "s"}
        report["per_layer"] = per_layer
    return report


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "nproc": os.cpu_count(),
            "thread_caps": THREAD_CAPS}


def print_report(name: str, wl: Workload, seed: int, env: dict, report: dict):
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    n_reps = len(report["reps"])
    n_traced = sum(r["traced"] for r in report["reps"])
    print(f"{name} seed={seed}: {n_reps} repetitions ({n_traced} traced), "
          f"{wl.operations()} operations each")
    alias = {"ops_per_s": "steps_per_s" if wl.command == "run"
             else "records_per_s"}
    for key, m in report["end_to_end"].items():
        print(f"  {alias.get(key, key):<34} {m['value']:.6g} {m['unit']}")
    rate = report["failed"] / max(report["attempted"], 1)
    print(f"  {'error_rate':<34} {rate:.6g} ({report['failed']} of "
          f"{report['attempted']} operations failed)")
    for key, m in report.get("per_layer", {}).items():
        print(f"  {key:<34} {m['value']:.6g} {m['unit']}")
    for p in report["problems"]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)


def run_workload(name: str, args) -> None:
    """Measure one workload, keep the full record, print the report and the
    JSON result line."""
    wl = WORKLOADS[name]
    work = WORK / f"{name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report = measure(wl, name, args.seed, args.seconds, bool(args.trace),
                         args.smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"env": env, "workload": name, "seed": args.seed,
         "smoke": args.smoke, **report}))

    print_report(name, wl, args.seed, env, report)
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    correct = report["failed"] == 0 and not report["problems"] \
        and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}),
          flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="default: every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny meshes, for testing the benchmark itself")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "swirlfem" / "cli.py").is_file():
        print(f"error: no swirlfem sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for name in [args.workload] if args.workload else WORKLOADS:
        run_workload(name, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
