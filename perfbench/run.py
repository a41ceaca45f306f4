"""Benchmark of the spinorbit-bell CLI: end-to-end timings and a traced pass.

Run from the repository root:

    python3 perfbench/run.py --workload scan-fock --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the load is a closed loop with one client: each CLI
invocation is its own subprocess, started only after the previous one has
exited, and every output is gated against the closed-form oracles. With
``--trace 1`` the workload runs in-process through ``cli.parse_config`` and
``cli.run``, alternating untraced passes with passes traced by wrappers
around the package's public functions, and reports per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it and
``perfbench/out/`` hold the details (samples, drawn inputs, run manifest).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5

#: Share of the run spent on in-process engine timings in ``--trace 0``.
ENGINE_SHARE = 0.25

#: Whole rounds of the workload's invocations run even past the deadline.
MIN_ROUNDS = 2

#: Traced passes per ``--trace 1`` run at most; counts must agree between them.
MAX_TRACED_PASSES = 5

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120.0


def _fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Tally:
    """Operations attempted and failed, with the gate's findings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.worst_residual = 0.0
        self.unchecked_variances = 0

    def record(self, what: str, verdict) -> None:
        self.attempted += 1
        self.worst_residual = max(self.worst_residual, verdict.worst_residual)
        self.unchecked_variances += verdict.unchecked_variances
        if not verdict.ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {'; '.join(verdict.reasons[:3])}")


def spawn(argv: list[str], env: dict) -> tuple[float, float, int, str]:
    """Run one child to completion: (wall s, own peak RSS MB, exit code, stdout)."""
    OUT.mkdir(parents=True, exist_ok=True)
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=env
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be a
            # running maximum over every child reaped so far.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is reported
    as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def manifest() -> dict:
    import numpy
    import scipy
    import yaml

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "blas": None,
        "thread_env": {
            k: os.environ.get(k)
            for k in (
                "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS",
                "MKL_NUM_THREADS",
                "PYTHONDONTWRITEBYTECODE",
            )
        },
        "git_sha": None,
        "git_dirty": None,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
            )
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
            )
            if sha.returncode == 0:
                info["git_sha"] = sha.stdout.strip()
                info["git_dirty"] = bool(dirty.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def steal_seconds() -> float:
    """CPU time stolen by the hypervisor from this machine so far, all CPUs."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def cli_argv(inv, config_path) -> list[str]:
    argv = [sys.executable, "-m", "spinorbit_bell.cli", inv.mode]
    if config_path is not None:
        argv += ["--config", str(config_path)]
    return argv


def gate_output(inv, text: str):
    if inv.mode == "chsh":
        return gate.check_chsh_json(text, inv.spec, inv.settings)
    if inv.mode == "noise-scan":
        return gate.check_scan_csv(text, inv.spec, *inv.axes)
    return gate.check_verify_report(text)


def measure_setup(env: dict, tally: Tally) -> float:
    """Wall time of one fresh interpreter importing the CLI module."""
    wall, _, code, _ = spawn([sys.executable, "-c", "import spinorbit_bell.cli"], env)
    tally.attempted += 1
    if code != 0:
        tally.failed += 1
        tally.reasons.append(f"setup import exited {code}")
    return wall


def engine_settings(inv) -> int:
    """(alpha, beta) settings one invocation evaluates, counted in-process."""
    if inv.mode == "chsh":
        return 4
    if inv.mode == "noise-scan":
        return len(inv.axes[0]) * len(inv.axes[1])
    from spinorbit_bell import verify

    tracer = spans.Tracer(targets=(("analysis", "noise_point"),))
    tracer.install()
    try:
        verify.run_verification()
    finally:
        tracer.restore()
    return tracer.layer_totals()["analysis.noise_point"]["calls"]


def engine_pass(workload, tally: Tally) -> float:
    """In-process build plus evaluation for every invocation; returns seconds."""
    from spinorbit_bell import analysis, states, verify

    spans.assert_untraced()
    elapsed = 0.0
    for inv in workload.invocations:
        t0 = time.perf_counter()
        if inv.mode == "chsh":
            result = analysis.s_parameter(states.build(inv.spec), inv.settings)
            elapsed += time.perf_counter() - t0
            verdict = gate.check_chsh_result(result, inv.spec, inv.settings)
        elif inv.mode == "noise-scan":
            points = analysis.settings_scan(states.build(inv.spec), *inv.axes)
            elapsed += time.perf_counter() - t0
            verdict = gate.check_scan_points(points, inv.spec, *inv.axes)
        else:
            results = verify.run_verification()
            elapsed += time.perf_counter() - t0
            verdict = gate.check_verify_report(verify.format_report(results))
        tally.record(f"in-process {inv.label}", verdict)
    return elapsed


def end_to_end(workload, paths, env, seconds, tally, details) -> dict:
    n_settings = sum(engine_settings(inv) for inv in workload.invocations)
    details["settings_per_pass"] = n_settings
    t_start = time.perf_counter()
    walls, rss, samples, rounds, engine_times = [], [], [], [], []
    round_means, setup = [], []
    while True:
        # Set-up imports are spread over the run like the other samples.
        if len(setup) < SETUP_REPEATS:
            setup.append(measure_setup(env, tally))
        r0 = time.perf_counter()
        for inv, path in zip(workload.invocations, paths):
            wall, peak, code, stdout = spawn(cli_argv(inv, path), env)
            verdict = gate_output(inv, stdout)
            if code != 0:
                verdict.fail(f"exit code {code}")
            tally.record(inv.label, verdict)
            walls.append(wall)
            rss.append(peak)
            samples.append({"label": inv.label, "wall_s": wall, "peak_rss_mb": peak, "exit": code})
        rounds.append(time.perf_counter() - r0)
        round_means.append(statistics.fmean(walls[-len(paths):]))
        # Engine passes are interleaved with the rounds so that both sample
        # the whole run; they take about ENGINE_SHARE of it.
        while not engine_times or sum(engine_times) < ENGINE_SHARE * (
            time.perf_counter() - t_start
        ):
            engine_times.append(engine_pass(workload, tally))
        elapsed = time.perf_counter() - t_start
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(rounds) > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(env, tally))
    details["setup_s"] = setup
    details["engine_s"] = engine_times
    details["invocations"] = samples
    tail_value, tail_pct = tail(walls)
    details["wall_s.tail"] = {"percentile": tail_pct, "samples": len(walls)}
    return {
        # A median over the pooled invocations of a workload whose invocations
        # differ in cost (build-gaussian) would jump between them; the median
        # over rounds of each round's mean invocation time does not.
        "setup_s": statistics.median(setup),
        "wall_s.p50": statistics.median(round_means),
        "wall_s.tail": tail_value,
        "peak_rss_mb": statistics.median(rss),
        "settings_per_s": statistics.median(n_settings / t for t in engine_times),
    }


def import_counts(env: dict, tally: Tally) -> dict:
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import spinorbit_bell.cli\n"
        "new = set(sys.modules) - before\n"
        "print(json.dumps([len(new), sum(1 for m in new if m.split('.')[0] == 'scipy')]))\n"
    )
    _, _, exit_code, stdout = spawn([sys.executable, "-c", code], env)
    tally.attempted += 1
    try:
        modules, scipy_modules = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        modules = scipy_modules = 0
    if exit_code != 0 or modules <= 0:
        tally.failed += 1
        tally.reasons.append(f"import count probe exited {exit_code}")
    return {"import.modules": modules, "import.scipy_modules": scipy_modules}


def cli_pass(workload, tally: Tally) -> tuple[float, int, int]:
    """parse_config + run for each invocation: (seconds, verify checks, FAILs)."""
    from spinorbit_bell import cli

    elapsed, checks, failed = 0.0, 0, 0
    for inv in workload.invocations:
        t0 = time.perf_counter()
        rendered = cli.run(cli.parse_config(inv.yaml or "", inv.mode))
        elapsed += time.perf_counter() - t0
        verdict = gate_output(inv, rendered)
        checks += verdict.verify_checks
        failed += verdict.verify_failed
        tally.record(f"in-process {inv.label}", verdict)
    return elapsed, checks, failed


def layer_metrics(tracer, checks: int, failed: int) -> dict:
    totals = tracer.layer_totals()
    counts = tracer.counts

    def get(name: str, key: str):
        return totals[name][key] if name in totals else 0

    ti_calls = get("analysis.total_intensity", "calls")
    distinct = counts.get("analysis.total_intensity.distinct", 0)
    return {
        "cli.parse_config.s": get("cli.parse_config", "s"),
        "cli.run.self_s": get("cli.run", "self_s"),
        "cli.output_bytes": counts.get("cli.output_bytes", 0),
        "states.build.s": get("states.build", "s"),
        "states.build.calls": get("states.build", "calls"),
        "states.basis_dim": counts.get("states.basis_dim", 0),
        "states.members": counts.get("states.members", 0),
        "fock.displace.s": get("fock.displace", "s"),
        "fock.displace.calls": get("fock.displace", "calls"),
        "fock.two_mode_squeeze.s": get("fock.two_mode_squeeze", "s"),
        "fock.displace_pair_generator.s": get("fock.displace_pair_generator", "s"),
        "fock.apply_one_body.s": get("fock.apply_one_body", "s"),
        "fock.apply_one_body.calls": get("fock.apply_one_body", "calls"),
        "fock.apply_one_body.amplitudes": counts.get("fock.apply_one_body.amplitudes", 0),
        "fock.expect_one_body.s": get("fock.expect_one_body", "s"),
        "fock.expect_one_body.calls": get("fock.expect_one_body", "calls"),
        "fock.variance_one_body.s": get("fock.variance_one_body", "s"),
        "apparatus.m_operator.s": get("apparatus.m_operator", "s"),
        "apparatus.m_operator.calls": get("apparatus.m_operator", "calls"),
        "analysis.noise_point.self_s": get("analysis.noise_point", "self_s"),
        "analysis.noise_point.calls": get("analysis.noise_point", "calls"),
        "analysis.s_parameter.s": get("analysis.s_parameter", "s"),
        "analysis.settings_scan.s": get("analysis.settings_scan", "s"),
        "analysis.total_intensity.s": get("analysis.total_intensity", "s"),
        "analysis.total_intensity.calls": ti_calls,
        "analysis.total_intensity.useful_ratio": distinct / ti_calls if ti_calls else 0.0,
        "verify.run_verification.s": get("verify.run_verification", "s"),
        "verify.checks": checks,
        "verify.failed": failed,
        "modes.eval_hg_mode.s": get("modes.eval_hg_mode", "s"),
        "modes.eval_hg_mode.calls": get("modes.eval_hg_mode", "calls"),
        "partitions.coherent_on_bell_mode.s": get("partitions.coherent_on_bell_mode", "s"),
        "trace.spans": len(tracer.start),
    }


def traced(workload, env, seconds, tally, details, units, spans_path) -> dict:
    metrics = import_counts(env, tally)
    t_start = time.perf_counter()
    untraced_s, traced_s, passes = [], [], []
    first = None
    while True:
        spans.assert_untraced()
        untraced_s.append(cli_pass(workload, tally)[0])
        tracer = spans.Tracer()
        tracer.install()
        try:
            wall, checks, failed = cli_pass(workload, tally)
        finally:
            tracer.restore()
        traced_s.append(wall)
        layers = layer_metrics(tracer, checks, failed)
        passes.append(layers)
        if first is None:
            first = tracer
            details["bindings"] = tracer.bindings()
        spent = time.perf_counter() - t_start
        if len(passes) >= MAX_TRACED_PASSES or spent + untraced_s[-1] + wall > seconds:
            break
    first.write(spans_path)
    for name, value in passes[0].items():
        # Work counts must repeat exactly between passes; times are medians.
        if units[name] != "s":
            metrics[name] = value
            if any(p[name] != value for p in passes[1:]):
                tally.attempted += 1
                tally.failed += 1
                tally.reasons.append(f"count {name} differs between traced passes")
        else:
            metrics[name] = statistics.median(p[name] for p in passes)
    metrics["trace.untraced_s"] = statistics.median(untraced_s)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - metrics["trace.untraced_s"]
    details["passes"] = {"untraced_s": untraced_s, "traced_s": traced_s}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinorbit_bell" / "cli.py").is_file():
        return _fail_setup(f"no package source at {SRC / 'spinorbit_bell'}")
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail_setup(f"cannot read BENCHMARK.json: {exc}")
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    sys.path.insert(0, str(SRC))
    import spinorbit_bell.cli  # noqa: F401  (loads every package module)

    if not Path(spinorbit_bell.cli.__file__).resolve().is_relative_to(SRC):
        return _fail_setup(f"spinorbit_bell imported from {spinorbit_bell.cli.__file__}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail_setup(
            f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}"
        )
    info = manifest()
    info["loadavg_start"] = loadavg()
    steal_start = steal_seconds()
    problems = gate.self_test()
    if problems:
        return _fail_setup("gate self-test failed: " + "; ".join(problems))

    workload = workloads.WORKLOADS[args.workload](args.seed)
    inputs = OUT / "inputs" / workload.name
    inputs.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, inv in enumerate(workload.invocations):
        path = None
        if inv.yaml is not None:
            path = inputs / f"{i}.yaml"
            path.write_text(inv.yaml, encoding="utf-8")
        paths.append(path)

    env = _child_env()
    tally = Tally()
    details: dict = {}
    tag = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        metrics = traced(
            workload, env, args.seconds, tally, details, units, OUT / f"spans_{tag}.json"
        )
    else:
        metrics = end_to_end(workload, paths, env, args.seconds, tally, details)
        metrics["pass_ratio"] = (tally.attempted - tally.failed) / tally.attempted
    info["loadavg_end"] = loadavg()
    info["steal_s"] = steal_seconds() - steal_start

    if set(metrics) != set(units):
        return _fail_setup(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "drawn": workload.drawn,
        "inputs": {inv.label: inv.yaml for inv in workload.invocations},
        "fail_ratio": tally.failed / tally.attempted,
        "failures": tally.reasons,
        "worst_residual": tally.worst_residual,
        "unchecked_variances": tally.unchecked_variances,
        "manifest": info,
        **details,
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result_{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    for key, value in workload.drawn.items():
        print(f"  drawn {key} = {value!r}")
    print(
        f"  manifest: python {info['python']}, numpy {info['numpy']}, scipy {info['scipy']},"
        f" pyyaml {info['pyyaml']}, blas {info['blas']}, nproc {info['nproc']},"
        f" cpu {info['cpu_model']}, git {info['git_sha']} dirty={info['git_dirty']}"
    )
    print(
        f"  loadavg start [{info['loadavg_start']}] end [{info['loadavg_end']}];"
        f" stolen cpu {info['steal_s']:.2f} s"
    )
    for key in units:
        print(f"  {key:40s} {metrics[key]:.6g} {units[key]}")
    if "wall_s.tail" in details:
        t = details["wall_s.tail"]
        print(f"  wall_s.tail is p{t['percentile']:.0f} of {t['samples']} invocations")
    print(
        f"  fail_ratio {tally.failed}/{tally.attempted} = {record['fail_ratio']:.3g};"
        f" worst residual {tally.worst_residual:.3g};"
        f" unchecked variances {tally.unchecked_variances}"
    )
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
