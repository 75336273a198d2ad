"""Seeded benchmark of qroot: library solves and the CLI pipe.

    python3 bench/run.py --workload spread|deep|pipe|all --seed N \
        --seconds S --trace 0|1

One process drives a closed loop: each instance starts after the previous
one has finished.  BLAS is pinned to one thread here and in every child
process, so the numbers measure the program and not the scheduler.

With --trace 0 the run interleaves library calls to `mth_root` on the
workload's pool with the CLI path (`gen | root | verify` on pipe;
`root | verify` on spread and deep, whose instances are larger than `gen`
can make) and prints the end-to-end metrics.  With --trace 1 it solves each
instance twice, untraced and traced in alternating order, then times each
CLI command on its own; it prints the per-layer metrics, self times and the
tracing overhead, and writes the spans to bench/out/.  Either way it then
solves the workload's known-defect probe once, untimed, and prints how many
of those instances still fail; they are not counted in `attempted` or
`failed`, but a wrong answer among them makes `correct` false.  The last
line of stdout is always one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

# numpy and qroot are imported inside functions: main() pins BLAS threads
# and puts src/ on the path before they load.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BENCHMARK.json gates on spread and deep only: pipe's metrics are nearly all
# process start-up, which on a shared 2-core host swings by half between load
# periods, wider than any bound the gate allows.  It stays runnable by name.
WORKLOADS = ("spread", "deep", "pipe")
# Share of --seconds spent on library solves; the rest goes to the CLI path.
LIBRARY_SHARE = {"spread": 0.6, "deep": 0.6, "pipe": 0.15}
SETUP_REPEATS = 9
# Each kind of sample count sits inside one band of this ladder (library
# solves always over 100, pipes always under 100), so a slower or faster run
# does not switch the tail to another percentile.
TAIL_LADDER = (90.0, 50.0)
CLI_TIMEOUT = 60.0
VERIFY_TOL = 1e-8

# Failure kinds that mean a wrong answer rather than a refusal to answer.
WRONG = {"WrongDecision", "WrongCertificate", "RootRejected"}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's "end_to_end" or "per_layer" metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------

class Tally:
    """Attempted instances, failures by kind, and which failures were wrong answers."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter[str] = Counter()

    def add(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures[failure] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def wrong(self) -> int:
        return sum(c for kind, c in self.failures.items() if kind in WRONG)

    @property
    def fail_rate(self) -> float:
        return self.failed / max(1, self.attempted)


def judge(inst, out) -> str | None:
    """None when `out` is right for `inst`, else the failure kind."""
    from qroot import RootDecision
    import qroot.verify
    if isinstance(out, RootDecision):
        if out.exists or inst.expected.exists:
            return "WrongDecision"
        if out.certificate.kind != inst.expected.certificate.kind:
            return "WrongCertificate"
        return None
    if not inst.expected.exists:
        return "WrongDecision"
    if not qroot.verify.verify_root(out.root, inst.b, inst.h, inst.m, VERIFY_TOL).passed:
        return "RootRejected"
    return None


def solve(inst):
    """(seconds, output, error kind) of one mth_root call."""
    import numpy as np
    import qroot.roots
    from qroot.errors import QRootError
    t0 = time.perf_counter()
    try:
        out = qroot.roots.mth_root(inst.b, inst.h, inst.m)
    except QRootError as exc:
        return time.perf_counter() - t0, None, exc.kind
    except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        return time.perf_counter() - t0, None, type(exc).__name__
    return time.perf_counter() - t0, out, None


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile of a nonempty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it.

    With fewer than 20 samples no percentile at or above the median has ten
    beyond it, and the median stands in.
    """
    for p in TAIL_LADDER:
        if len(values) * (100.0 - p) / 100.0 >= 10:
            return p, percentile(values, p)
    return 50.0, percentile(values, 50.0)


# ---------------------------------------------------------------------------
# the CLI path
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli(args: list[str], stdin: str | None = None) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qroot.cli", *args], input=stdin,
                          capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=CLI_TIMEOUT)
    return time.perf_counter() - t0, proc


def stock_profile_path() -> Path:
    from workloads import STOCK_PROFILE
    OUT.mkdir(exist_ok=True)
    path = OUT / "stock_profile.json"
    path.write_text(json.dumps(STOCK_PROFILE))
    return path


def run_pipe(inst, profile: Path, gen_always: bool = False):
    """One instance through the CLI: (seconds per command, failure kind).

    gen runs when the instance came from the generator; with `gen_always` it
    also runs, with the stock profile, before instances it cannot make, so
    its cost can be measured on every workload.
    """
    from qroot import jsonio
    m = str(inst.m)
    times: dict[str, float] = {}
    if inst.gen_seed is not None or gen_always:
        seed = inst.gen_seed if inst.gen_seed is not None else inst.index
        times["gen"], proc = cli(["gen", "--seed", str(seed), "--m", m, "--in", str(profile)])
        if proc.returncode != 0:
            return times, "cli:gen"
    payload = proc.stdout if inst.gen_seed is not None else jsonio.dumps(inst.payload()) + "\n"
    times["root"], proc = cli(["root", "--m", m], payload)
    if proc.returncode == 2:
        doc = jsonio.loads(proc.stdout)
        if inst.expected.exists:
            return times, "WrongDecision"
        if doc["certificate"]["kind"] != inst.expected.certificate.kind:
            return times, "WrongCertificate"
        return times, None
    if proc.returncode != 0:
        return times, jsonio.loads(proc.stdout).get("error", "cli:root") if proc.stdout else "cli:root"
    if not inst.expected.exists:
        return times, "WrongDecision"
    times["verify"], vproc = cli(["verify", "--m", m], proc.stdout)
    if vproc.returncode != 0 or not jsonio.loads(vproc.stdout).get("passed"):
        return times, "RootRejected"
    return times, None


# ---------------------------------------------------------------------------
# set-up, library loop, pipe loop
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int):
    """(pool, seconds): the pool, and the median of SETUP_REPEATS set-ups.

    Each set-up is a fresh process that imports qroot, builds the same pool
    and solves its first instance, which is what a user of the library pays
    before the first answer.
    """
    from workloads import build_pool
    pool = build_pool(workload, seed)
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import run, workloads; "
            f"run.solve(workloads.build_pool({workload!r}, {seed}, {len(pool)})[0])")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True,
                       timeout=CLI_TIMEOUT)
        times.append(time.perf_counter() - t0)
    return pool, median(times)


def closed_loop(pool, seconds: float, lib_share: float, tally: Tally,
                gen_always: bool = False):
    """Library solves and CLI pipes, one after another, for `seconds`.

    Whichever kind is behind its share of the time spent so far runs next,
    so both are spread over the whole run and see the same machine.  At
    least one pipe runs, and one solve unless the share is 0.  Returns the solves
    as [(seconds, error kind, failure kind)], where the error is set when
    the call raised and the failure also when the answer was wrong, and the
    pipes as [(seconds per command, failure kind)].
    """
    profile = stock_profile_path()
    solves, pipes = [], []
    spent = {True: 0.0, False: 0.0}  # seconds in library solves, in pipes
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        library = lib_share > 0 and spent[True] <= lib_share * (spent[True] + spent[False])
        if library:
            inst = pool[len(solves) % len(pool)]
            dt, out, error = solve(inst)
            failure = error if error is not None else judge(inst, out)
            solves.append((dt, error, failure))
        else:
            times, failure = run_pipe(pool[len(pipes) % len(pool)], profile, gen_always)
            pipes.append((times, failure))
        tally.add(failure)
        now = time.perf_counter()
        spent[library] += now - t0
        if now >= deadline and (solves or lib_share == 0) and pipes:
            return solves, pipes


def run_probe(workload: str, seed: int) -> tuple[list[str], int]:
    """(lines to print, wrong answers) for the workload's known-defect probe."""
    from qroot import RootResult
    from workloads import DEFECTS, build_probe
    probe = build_probe(workload, seed)
    if not probe:
        return [], 0
    lines = [f"known_defects: {len(probe)} untimed probe instances, not in attempted/failed"]
    lines += [f"  {d}: {DEFECTS[d]}" for d in sorted({inst.defect for inst in probe})]
    wrong = 0
    for inst in probe:
        _, out, error = solve(inst)
        failure = error if error is not None else judge(inst, out)
        wrong += failure in WRONG
        if failure is None:
            failure = (f"root, residual {out.residual_power:.2e}" if isinstance(out, RootResult)
                       else "refused as expected")
        lines.append(f"  {inst.defect} n={inst.n} m={inst.m}: {failure}")
    return lines, wrong


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end_run(workload: str, seed: int, seconds: float):
    pool, setup_s = setup(workload, seed)
    tally = Tally()
    solves, pipes = closed_loop(pool, seconds, LIBRARY_SHARE[workload], tally)

    completed = [dt for dt, error, _ in solves if error is None]
    pipe_times = [sum(t.values()) for t, failure in pipes
                  if failure is None or failure in WRONG]
    if not completed or not pipe_times:
        raise SystemExit("no solve completed: cannot report timings")
    correct_solves = sum(1 for _, _, failure in solves if failure is None)
    solve_tail = tail(completed)
    pipe_tail = tail(pipe_times)
    metrics = {
        "setup_s": setup_s,
        "solve_s.p50": median(completed),
        "solve_s.tail": solve_tail[1],
        "solves_per_s": correct_solves / sum(dt for dt, _, _ in solves),
        "pipe_s.p50": median(pipe_times),
        "pipe_s.tail": pipe_tail[1],
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "solve_s.tail": f"p{solve_tail[0]:g} of {len(completed)} completed solves",
        "pipe_s.tail": f"p{pipe_tail[0]:g} of {len(pipe_times)} completed pipes",
        "solves_per_s": f"{correct_solves} correct of {len(solves)} solves",
        "setup_s": f"median of {SETUP_REPEATS} fresh processes that import, build the pool "
                   f"and solve once",
    }
    return pool, tally, metrics, notes


def traced_run(workload: str, seed: int, seconds: float):
    import qroot.jsonio
    from qroot import RootResult
    from spans import Tracer, summarize
    from workloads import build_pool, cluster_count

    t0 = time.perf_counter()
    pool = build_pool(workload, seed)
    gen_s = (time.perf_counter() - t0) / len(pool)
    solve(pool[0])
    tally = Tally()
    tracer = Tracer()
    outputs = []  # (instance, output, JSON bytes) per traced solve
    pairs = []    # (untraced, traced) seconds of the same instance

    def traced_solve(inst):
        tracer.instance = len(outputs)
        with tracer.patched(), tracer.span("instance"):
            dt, out, error = solve(inst)
            tally.add(error if error is not None else judge(inst, out))
            # the JSON a pipe would carry: the instance, then the answer
            docs = [qroot.jsonio.dumps(inst.payload())]
            if out is not None:
                docs.append(qroot.jsonio.dumps(out.to_json()))
            for doc in docs:
                qroot.jsonio.loads(doc)
        outputs.append((inst, out, sum(len(doc) for doc in docs)))
        return dt, error

    deadline = time.perf_counter() + seconds * LIBRARY_SHARE[workload]
    while not outputs or time.perf_counter() < deadline:
        inst = pool[len(outputs) % len(pool)]
        # alternate which of the pair runs first, so neither gets the warm caches
        if len(outputs) % 2:
            dt, error = traced_solve(inst)
            plain = solve(inst)[0]
        else:
            plain = solve(inst)[0]
            dt, error = traced_solve(inst)
        if error is None:
            pairs.append((plain, dt))
    spans = tracer.spans
    count = len(outputs)

    imports = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qroot.cli"], env=child_env(),
                       cwd=ROOT, check=True, timeout=CLI_TIMEOUT)
        imports.append(time.perf_counter() - t0)
    _, pipes = closed_loop(pool, seconds * (1 - LIBRARY_SHARE[workload]), 0.0, tally,
                           gen_always=True)

    def command_median(name):
        xs = [t[name] for t, _ in pipes if name in t]
        return median(xs) if xs else 0.0

    by_name = summarize(spans)
    names = [s[0] for s in spans]

    def total(name, key="total_s"):
        return by_name.get(name, {}).get(key, 0.0)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    # Schur calls made directly by the instance-level canonicalize_pair calls
    # (those whose parent is mth_root), against each instance's cluster count.
    top = {i for i, s in enumerate(spans) if s[0] == "canonical.canonicalize_pair"
           and s[3] >= 0 and names[s[3]] == "roots.mth_root"}
    schur_in_top = Counter(s[3] for s in spans if s[0] == "kernel.schur" and s[3] in top)
    completed_top = [i for i in top if outputs[spans[i][4]][1] is not None]
    clusters = [cluster_count(outputs[spans[i][4]][0].spec) for i in completed_top]
    matches = sum(1 for i, c in zip(completed_top, clusters) if schur_in_top[i] == c)
    svd_canonical = [s for s in spans if s[0] == "kernel.svd" and s[3] >= 0
                     and names[s[3]].startswith("canonical.")]
    builders = [n for n in by_name if n.startswith("roots.builders.")]
    results = [o[1] for o in outputs]
    conds = [r.cond_similarity for r in results if isinstance(r, RootResult)]
    untraced_med = median(plain for plain, _ in pairs)
    traced_med = median(dt for _, dt in pairs)

    metrics = {
        "canonical.schur.calls": calls("kernel.schur") / count,
        "canonical.schur_s": total("kernel.schur") / count,
        "canonical.schur_per_call": (sum(schur_in_top[i] for i in completed_top)
                                     / max(1, len(completed_top))),
        "canonical.clusters_per_call": sum(clusters) / max(1, len(clusters)),
        "canonical.eigvals_s": total("kernel.eigvals") / count,
        "omega.selfadjoint_residual.calls": calls("omega.selfadjoint_residual") / count,
        "omega.selfadjoint_residual_s": total("omega.selfadjoint_residual") / count,
        "roots.mth_root.self_s": total("roots.mth_root", "self_s") / count,
        "canonical.canonicalize_pair.calls": calls("canonical.canonicalize_pair") / count,
        "canonical.canonicalize_pair.self_s": total("canonical.canonicalize_pair", "self_s") / count,
        "canonical.svd.calls": len(svd_canonical) / count,
        "canonical.svd_s": sum(s[2] - s[1] for s in svd_canonical) / count,
        "roots.builders.calls": sum(calls(n) for n in builders) / count,
        "roots.builders_s": sum(total(n) for n in builders) / count,
        "roots.refusals": sum(1 for r in results if r is not None and not isinstance(r, RootResult)) / count,
        "roots.cond_similarity.max": max(conds, default=1.0),
        "omega.embed_extract_s": (total("omega.omega_embed") + total("omega.omega_extract")) / count,
        "quaternion.power_s": total("quaternion.QuatMatrix.power") / count,
        "verify.verify_root_s": total("verify.verify_root") / count,
        "verify.random_instance_s": gen_s,
        "cli.import_s": median(imports),
        "cli.gen_s": command_median("gen"),
        "cli.root_s": command_median("root"),
        "cli.verify_s": command_median("verify"),
        "jsonio.bytes": sum(o[2] for o in outputs) / count,
        "jsonio.dumps_s": total("jsonio.dumps") / count,
        "jsonio.loads_s": total("jsonio.loads") / count,
        "trace.overhead": traced_med / untraced_med,
    }
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload}-{seed}.json"
    span_file.write_text(json.dumps(tracer.to_json()))
    notes = {
        "canonical.schur_per_call": f"Schur calls equal the cluster count on {matches} "
                                    f"of {len(completed_top)} completed instances",
        "trace.overhead": f"median traced solve {traced_med:.4f} s against "
                          f"{untraced_med:.4f} s untraced, same {len(pairs)} instances",
        "spans": f"{len(spans)} spans over {count} traced solves in {span_file.relative_to(ROOT)}",
    }
    print("self time per span name, seconds per traced solve:")
    for name, row in sorted(by_name.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:44s} calls {row['calls'] / count:9.2f}  total {row['total_s'] / count:.6f}"
              f"  self {row['self_s'] / count:.6f}")
    return pool, tally, metrics, notes


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def header(seed: int) -> dict:
    import numpy as np
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "seed": seed}


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import qroot
    import workloads
    if not Path(qroot.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported qroot from {qroot.__file__}, not from {SRC}")

    print("header " + json.dumps(header(args.seed)))
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    if args.trace:
        pool, tally, metrics, notes = traced_run(args.workload, args.seed, args.seconds)
        units = metric_units("per_layer")
    else:
        pool, tally, metrics, notes = end_to_end_run(args.workload, args.seed, args.seconds)
        units = metric_units("end_to_end")
    print("profile " + json.dumps(workloads.properties(pool)))
    kinds = ", ".join(f"{k} x{c}" for k, c in sorted(tally.failures.items())) or "none"
    print(f"fail_rate {tally.fail_rate:.4f} ({tally.failed} of {tally.attempted}; {kinds})")
    probe_lines, probe_wrong = run_probe(args.workload, args.seed)
    for line in probe_lines:
        print(line)
    cells = [f"{name}={metrics[name]:.6g} {unit}" for name, unit in units.items()]
    print(f"row {args.workload}: " + "  ".join(cells))
    for name, note in notes.items():
        print(f"  {name}: {note}")
    print(json.dumps({"correct": tally.wrong == 0 and probe_wrong == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process; one row per workload."""
    rows = {}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=300)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        rows[workload] = json.loads(last)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    print("workload " + " ".join(f"{name}[{unit}]" for name, unit in units.items())
          + " fail_rate[share]")
    for workload, res in rows.items():
        print(f"{workload:8s} " + " ".join(f"{res['metrics'][n]['value']:.6g}" for n in units)
              + f" {res['failed'] / res['attempted']:.4f}")
    print(json.dumps({"correct": all(r["correct"] for r in rows.values()),
                      "attempted": sum(r["attempted"] for r in rows.values()),
                      "failed": sum(r["failed"] for r in rows.values()),
                      "metrics": {f"{w}.{n}": v for w, r in rows.items()
                                  for n, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Before numpy loads; children inherit the setting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "qroot" / "__init__.py").is_file():
        print(f"qroot sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
