"""The qdm benchmark: named workloads of real `qdm` CLI invocations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each invocation is a fresh
`python -m qdm.cli ...` process, run one at a time in a closed loop with one
client.  Passes over the workload repeat until their timed total reaches
S seconds.  Every output is
checked against oracles that do not use qdm (see checks.py) and against the
seed-0 report of the same command.

--trace 0 prints the end-to-end metrics, measured untraced:
  wall_s       median wall time of one pass
  cpu_s        median user+sys CPU of one pass's child processes (os.wait4)
  setup_s      median in-process fan text -> built ring, summed over the
               workload's distinct fans (parse_fan, charge_matrix,
               mori_generators, build_ring), sampled before invocations:
               at least SETUP_REPS times, more while under SETUP_SHARE of S
  peak_rss_mb  median over passes of the largest child ru_maxrss
  ok_frac      invocations with exit 0, "ok": true and every check passing,
               over invocations attempted (1 - fail_frac)
--trace 1 runs one pass in-process with spans around each qdm module's
public functions (layers.py) and prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  `failed` counts outputs the benchmark finds wrong (crash, exit
code other than 0/1, exit and ok disagreeing, corrupt report, failed oracle,
output differing from the reference); an honest "verification failed"
(exit 1 with "ok": false) lowers ok_frac but is not a benchmark failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402

SETUP_REPS = 2
SETUP_SHARE = 0.1
IMPORT_REPS = 5
CACHE_DIR = ".perfbench_cache"
WORK_DIR = ".perfbench_tmp"
OUT_DIR = ".perfbench_out"

# (subcommand, fan, extra arguments, oracles)
WORKLOADS = {
    # Dominated by linalg.nullspace (dp2 is 1382 x 320) and dmodule.apply.
    # p3 and p2xp1 exit 1 today (the window bug), so ok_frac reads 3/5.
    "annihilator-search": [
        ("operators", "p1xp1", [], ["box_relations"]),
        ("operators", "hirzebruch1", ["--allow-general-sign"], []),
        ("operators", "p3", [], []),
        ("operators", "p2xp1", [], ["box_relations"]),
        ("operators", "dp2", ["--allow-general-sign"], []),
    ],
    # Nearly all build_ring/rref plus dual_basis: no series, no nullspace.
    # The sheared fan shows exact-coefficient growth.
    "ring-build": [
        ("cohomology", "p4", [], ["betti"]),
        ("cohomology", "p1x4", [], ["betti"]),
        ("cohomology", "p2xp2", [], ["betti"]),
        ("cohomology", "p2xp2_sheared", [], ["betti"]),
    ],
    # Many degrees over tiny rings: enumerate_degrees/in_cone, Euler-ratio
    # products through CohomRing.multiply, and serialization.
    "series-loop": [
        ("loop-model", "dp3", [], []),
        ("ifunction", "dp3", ["--allow-general-sign", "--components", "0,1,2"], []),
        ("loop-model", "dp2", ["--allow-general-sign", "--format", "text"], []),
        ("ifunction", "p3", ["--max-degree", "32", "--components", "0"],
         ["p3_component0"]),
    ],
}


class Invocation:
    """One CLI command of a workload, with its seeded and seed-0 fan files."""

    def __init__(self, sub, fan_name, extra, oracles, fan, path, ref_path):
        self.sub, self.fan_name, self.extra, self.oracles = sub, fan_name, extra, oracles
        self.fan, self.path, self.ref_path = fan, path, ref_path
        self.fmt = extra[extra.index("--format") + 1] if "--format" in extra else "json"

    def argv(self, path):
        return [self.sub, path] + self.extra

    @property
    def label(self):
        return " ".join([self.sub, self.fan_name] + self.extra)


def run_child(argv, env):
    """Run `python -m qdm.cli argv`; returns (exit, stdout, wall, cpu, maxrss_kb).

    Timed from spawn to reap; CPU and peak RSS come from os.wait4 for this
    child alone.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "qdm.cli"] + argv, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()  # interrupted: do not leave the child running
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return (proc.returncode, out.decode("utf-8", "replace"), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def source_digest(root):
    """Hash of the program's sources, keying the seed-0 reference cache."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read() + b"\0")
    return h.hexdigest()


def reference(inv, env, digest):
    """(exit, stdout) of the seed-0 command, computed once per source tree."""
    with open(inv.ref_path, "rb") as fh:
        fan_text = fh.read()
    key = hashlib.sha256(json.dumps([digest, inv.sub, inv.extra]).encode()
                         + b"\0" + fan_text).hexdigest()
    path = os.path.join(CACHE_DIR, key + ".json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            cached = json.load(fh)
        return cached["exit"], cached["stdout"]
    code, out, _, _, _ = run_child(inv.argv(inv.ref_path), env)
    os.makedirs(CACHE_DIR, exist_ok=True)
    tmp = path + ".tmp%d" % os.getpid()
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "stdout": out}, fh)
    os.replace(tmp, path)
    return code, out


def setup_once(fan_texts):
    """Seconds from fan text to built ring, summed over the fans."""
    from qdm import cohomology, toric
    total = 0.0
    for text in fan_texts:
        start = time.perf_counter()
        fan = toric.parse_fan(text)
        cm = toric.charge_matrix(fan)
        toric.mori_generators(fan, cm)
        cohomology.build_ring(fan, cm)
        total += time.perf_counter() - start
    return total


class Tally:
    """Per-invocation verdicts of a run."""

    def __init__(self):
        self.attempted = self.failed = self.unverified = 0
        self.reasons = []

    def add(self, inv, code, out, ref, first=None):
        """first is (exit, stdout) of this run's first repetition, if any."""
        status, reason = checks.verdict(code, out, inv.fmt, inv.oracles, inv.fan, ref)
        if status != "failed" and first is not None and first != (code, out):
            status, reason = "failed", "stdout differs from the first repetition"
        self.attempted += 1
        if status == "failed":
            self.failed += 1
            self.reasons.append("%s: %s" % (inv.label, reason))
        elif status == "unverified":
            self.unverified += 1

    @property
    def fail_frac(self):
        return (self.failed + self.unverified) / self.attempted


def timed_run(invs, refs, env, seconds, fan_texts):
    setup = []
    tally = Tally()
    walls, cpus, rsss = [], [], []
    first = {}
    while sum(walls) < seconds:
        wall = cpu = 0.0
        rss = 0
        for i, (inv, ref) in enumerate(zip(invs, refs)):
            # The machine's speed drifts over seconds, so set-up samples are
            # spread over the run, one before an invocation while they are
            # cheap; an expensive set-up is sampled SETUP_REPS times.
            if len(setup) < SETUP_REPS or sum(setup) < SETUP_SHARE * seconds:
                setup.append(setup_once(fan_texts))
            code, out, w, c, r = run_child(inv.argv(inv.path), env)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            tally.add(inv, code, out, ref, first.get(i))
            first.setdefault(i, (code, out))
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss / 1024.0)
    n = len(walls)
    metrics = {
        "wall_s": (statistics.median(walls), "s", n),
        "cpu_s": (statistics.median(cpus), "s", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (statistics.median(rsss), "MB", n),
        "ok_frac": (1.0 - tally.fail_frac, "frac", tally.attempted),
    }
    return tally, metrics


def in_process(inv):
    """Run the CLI in this process; returns (exit, stdout).

    An uncaught exception is what a traceback and exit 1 would be in a
    child process; it is reported with exit code -1 so it counts as failed.
    """
    from qdm import cli
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(inv.argv(inv.path))
    except Exception:  # the run goes on and counts the failure
        traceback.print_exc()
        code = -1
    return code, buf.getvalue()


def import_time(env):
    code = ("import time; t = time.perf_counter(); import qdm.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPS):
        res = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             stdin=subprocess.DEVNULL, capture_output=True, text=True)
        times.append(float(res.stdout))
    return statistics.median(times)


def traced_run(invs, refs, env, spans_path):
    import qdm.cli  # noqa: F401  (imports every layer module)
    start = time.perf_counter()
    for inv in invs:
        in_process(inv)
    untraced = time.perf_counter() - start

    tracer = layers.Tracer()
    uninstall = layers.install(tracer)
    outputs = []
    try:
        start = time.perf_counter()
        for i, inv in enumerate(invs):
            tracer.invocation = i
            outputs.append(in_process(inv))
        wall = time.perf_counter() - start
    finally:
        uninstall()
    tracer.write(spans_path)
    tally = Tally()
    for inv, ref, (code, out) in zip(invs, refs, outputs):
        tally.add(inv, code, out, ref)
    report_bytes = sum(len(out.encode("utf-8")) for _, out in outputs)
    metrics = layers.layer_metrics(tracer, wall, untraced, import_time(env), report_bytes)
    return tally, {k: (v, u, 1) for k, (v, u) in metrics.items()}, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so children are reaped and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qdm", "cli.py")):
        print("error: run from the root of a qdm checkout (src/qdm/cli.py not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    with open(os.path.join(HERE, "fans.json"), encoding="utf-8") as fh:
        fans = json.load(fh)
    spec = WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        invs, fan_texts = [], {}
        for sub, name, extra, oracles in spec:
            paths = []
            for seed in (args.seed, 0):
                path = os.path.join(work, "%s-seed%d.json" % (name, seed))
                text = json.dumps(checks.seeded_fan(name, fans[name], seed))
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                paths.append(path)
                if seed == args.seed:
                    fan_texts[name] = text
            invs.append(Invocation(sub, name, extra, oracles, fans[name], *paths))
        digest = source_digest(root)
        refs = [reference(inv, env, digest) for inv in invs]

        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl.gz"
                                 % (args.workload, args.seed))
            tally, metrics, tracer = traced_run(invs, refs, env, spans)
            top = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])[:8]
            print("largest self times: " + ", ".join("%s %.3f s" % kv for kv in top))
        else:
            tally, metrics = timed_run(invs, refs, env, args.seconds,
                                       list(fan_texts.values()))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("workload %s, seed %d" % (args.workload, args.seed))
    for reason in tally.reasons:
        print("FAILED " + reason)
    line = "%-40s %14.6g %-6s n=%d"
    for name, (value, unit, n) in metrics.items():
        print(line % (name, value, unit, n))
    if not args.trace:
        print(line % ("fail_frac", tally.fail_frac, "frac", tally.attempted)
              + "  (%d of %d; = 1 - ok_frac)"
              % (tally.failed + tally.unverified, tally.attempted))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
