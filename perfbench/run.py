"""Benchmark of the two end-to-end commands, `ahilb report` and
`ahilb verify`, run in-process through ahilb.cli.main on one workload.

    python3 perfbench/run.py --workload lines --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One process and one thread drive the load, as a closed loop: each
command starts when the previous one has returned.  A run repeats rounds
of every (command, group) operation in a seeded shuffled order until
--seconds are spent, and reports per operation the median of its times.
Every time is a wall time scaled to a fixed host speed by probes of the
host's speed taken before, during and after it (see calibrate.py).

--trace 0 prints the end-to-end metrics:
  report_s     sum over the groups of the median scaled wall time of
               main(["report", spec, "--json", tmp])
  verify_s     the same for main(["verify", spec]), stdout captured
  setup_s      median over fresh interpreters, spread over the run, of
               the scaled time to import ahilb.cli and build every
               group's lattice context
  peak_rss_mb  peak resident memory of this process
--trace 1 alternates untraced and traced rounds, and prints the
per-layer metrics: scaled time of each layer's public functions and counts
taken at the same calls (see tracing.py).  It writes every span to
.perfbench/spans-<workload>-<seed>.json.

Every operation's output is checked (see checks.py); a miss is a failed
operation and prints a one-command repro.  The last line of output is a
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import count
from pathlib import Path
from time import perf_counter

from calibrate import SpeedSampler
from checks import report_misses, schema_validator, verify_misses
from tracing import COUNT_NAMES, SPANS, Tracer, summarize
from workloads import WORKLOADS, specs_for

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
COMMANDS = ("report", "verify")
SETUP_RUNS = 21


END_TO_END_UNITS = {"report_s": "s", "verify_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in SPANS},
    **{name: "count" for name in COUNT_NAMES
       if name != "verify.checks_failed"},
    "partition.triangle_yield": "ratio",
}


class Operations:
    """Runs one command on one group and checks what it produced."""

    def __init__(self, main, workload: str, seed: int, tmp: Path):
        self.main = main
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.validator = schema_validator(ROOT)
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.last_bytes = 0

    def run(self, cmd: str, spec: str, tracer: Tracer | None = None):
        """Returns (start, end, ok), times from perf_counter."""
        argv = (["report", spec, "--json", str(self.tmp)] if cmd == "report"
                else ["verify", spec])
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        if cmd == "report":
            # A report that writes nothing must not be checked against the
            # file the previous operation left.
            self.tmp.unlink(missing_ok=True)
        gc.collect()
        misses = []
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                if tracer is None:
                    rc = self.main(argv)
                else:
                    rc = tracer.command(f"command.{cmd}", spec,
                                        lambda: self.main(argv))
            except (Exception, SystemExit) as exc:
                rc = None
                misses.append(f"raised {type(exc).__name__}: {exc}")
            end = perf_counter()
        if rc is not None:
            if cmd == "report":
                misses += self._check_report(spec, rc)
            else:
                misses += verify_misses(rc, out.getvalue())
        if err.getvalue().strip():
            misses.append(f"stderr: {err.getvalue().strip()}")
        if tracer is not None and cmd == "report" and not misses:
            tracer.counts["cli.report_bytes"] += self.last_bytes
        if misses:
            self.failed += 1
            print(f"FAIL [workload={self.workload} seed={self.seed}] "
                  f"repro: ahilb {cmd} \"{spec}\" -- {'; '.join(misses)}")
        return start, end, not misses

    def _check_report(self, spec: str, rc: int) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            data = self.tmp.read_bytes()
            document = json.loads(data)
        except (OSError, ValueError) as exc:
            return [f"report unreadable: {type(exc).__name__}: {exc}"]
        self.last_bytes = len(data)
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.get(spec)
        if first is not None:
            return [] if first == digest else [
                f"report bytes differ within one run: sha256 {digest} "
                f"after {first}"]
        self.digests[spec] = digest
        print(f"sha256 {digest} {spec}")
        return report_misses(spec, document, self.validator)


class SetupTimer:
    """Scaled set-up times from fresh interpreters, taken at evenly spaced
    moments of the run.  One untimed run first leaves the bytecode cache
    warm."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"),
                     "--workload", workload, "--seed", str(seed)]
        self.interval = seconds / SETUP_RUNS
        self.times: list[float] = []
        self._probe()

    def _probe(self) -> float:
        proc = subprocess.run(self.argv, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        return float(proc.stdout.strip().splitlines()[-1])

    def due(self, elapsed: float) -> None:
        """Take every set-up time whose moment has come."""
        while (len(self.times) < SETUP_RUNS
                and elapsed >= len(self.times) * self.interval):
            self.times.append(self._probe())

    def median(self) -> float:
        while len(self.times) < SETUP_RUNS:
            self.times.append(self._probe())
        print(f"time setup: {len(self.times)} runs, seconds "
              f"{' '.join(f'{x:.4f}' for x in self.times)}")
        return statistics.median(self.times)


def run_rounds(ops: Operations, specs: list[str], seed: int, seconds: float,
               sampler: SpeedSampler, tracers: list[Tracer] | None = None,
               setup: SetupTimer | None = None) -> dict:
    """Repeat rounds of every operation in shuffled order until the budget
    is spent.

    Untraced (tracers is None): after the first round, an operation starts
    only if its last time still fits; set-up times are taken between
    operations when due.  Traced: whole rounds alternate between untraced
    and traced, each traced one recorded by a new Tracer appended to
    tracers; after the first pair, a round starts only if the last round
    of its kind still fits.

    Every round runs while sampler probes the host's speed.  Returns
    {(cmd, index of the group, spec): [(start, end) of each successful
    untraced run]}."""
    rng = random.Random(seed)
    keys = [(cmd, i, spec) for i, spec in enumerate(specs) for cmd in COMMANDS]
    spans = {key: [] for key in keys}
    last = {}
    begin = perf_counter()
    with sampler.running():
        for k in count():
            order = keys[:]
            rng.shuffle(order)
            traced = tracers is not None and k % 2 == 1
            if tracers is not None and k >= 2:
                if perf_counter() - begin + last[traced] > seconds:
                    break
            round_start = perf_counter()
            if traced:
                tracer = Tracer()
                with tracer.installed():
                    for cmd, _, spec in order:
                        ops.run(cmd, spec, tracer=tracer)
                tracers.append(tracer)
            else:
                for key in order:
                    if setup is not None:
                        setup.due(perf_counter() - begin)
                    if (tracers is None and k > 0
                            and perf_counter() - begin + last[key] > seconds):
                        return spans
                    start, end, ok = ops.run(key[0], key[2])
                    last[key] = end - start
                    if ok:
                        spans[key].append((start, end))
            last[traced] = perf_counter() - round_start
    return spans


def summed_medians(times, cmd: str) -> float:
    """Sum over the groups of the median of each operation's times."""
    return sum(statistics.median(v)
               for (c, _, _), v in times.items() if c == cmd and v)


def layer_metrics(tracers: list[Tracer],
                  sampler: SpeedSampler) -> tuple[dict, list[dict]]:
    """Per-layer metrics: span times as the median over traced rounds of a
    round's busy time, counts from the first traced round (they repeat)."""
    summaries = [summarize(t.spans, sampler.scaled) for t in tracers]
    metrics = {}
    for name in SPANS:
        metrics[f"{name}_s"] = statistics.median(
            s["busy"].get(name, 0.0) for s in summaries)
    metrics.update(tracers[0].counts)
    # Printed, not a metric: it is 0 in every correct run, and a failed
    # check already fails its operation.
    print(f"verify.checks_failed = {metrics.pop('verify.checks_failed')} "
          f"count (first traced round)")
    metrics["partition.triangle_yield"] = (
        metrics["partition.triangles"] / metrics["partition.line_triples"])
    return metrics, summaries


def print_layer_table(workload: str, summaries: list[dict], times) -> None:
    """Calls and busy time per span from the first traced round; then, per
    command, the share of its time that layer spans cover, from every
    round."""
    first = summaries[0]
    print(f"per-layer table, workload {workload}, first of {len(summaries)} "
          f"traced rounds (busy: outermost calls, in all commands and in "
          f"each)")
    print(f"  {'span':26} {'calls':>8} {'busy s':>10} {'in report':>10} "
          f"{'in verify':>10}")
    for name in SPANS:
        within = [first["busy_in"].get(f"command.{cmd}", {}).get(name, 0.0)
                  for cmd in COMMANDS]
        print(f"  {name:26} {first['calls'].get(name, 0):8d} "
              f"{first['busy'].get(name, 0.0):10.4f} {within[0]:10.4f} "
              f"{within[1]:10.4f}")
    for cmd in COMMANDS:
        root = f"command.{cmd}"
        share = statistics.median(s["covered"].get(root, 0.0) / s["root"][root]
                                  for s in summaries)
        untraced = summed_medians(times, cmd)
        print(f"  layer spans cover {share:.1%} of {cmd}: "
              f"{share * untraced:.4f} s of untraced {cmd}_s = "
              f"{untraced:.4f} s")


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    rows = [
        {"round": k, "name": name, "start": start, "end": end,
         "parent": parent, "group": group}
        for k, tracer in enumerate(tracers)
        for name, start, end, parent, group in tracer.spans
    ]
    path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def run_one(args) -> dict:
    specs = specs_for(args.workload, args.seed)
    setup = (None if args.trace
             else SetupTimer(args.workload, args.seed, args.seconds))

    sys.path.insert(0, str(ROOT / "src"))
    import ahilb.cli

    if ROOT not in Path(ahilb.cli.__file__).resolve().parents:
        raise RuntimeError(f"imported ahilb from {ahilb.cli.__file__}")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tmp = out_dir / f"report-{args.workload}-{args.seed}.json"
    ops = Operations(ahilb.cli.main, args.workload, args.seed, tmp)
    # Objects alive now (the package, jsonschema) are never garbage; keep
    # the collections run before and during each operation off them.
    gc.collect()
    gc.freeze()
    tracers = [] if args.trace else None
    sampler = SpeedSampler()
    try:
        spans = run_rounds(ops, specs, args.seed, args.seconds, sampler,
                           tracers, setup)
    finally:
        tmp.unlink(missing_ok=True)
    times = {key: [sampler.scaled(*span) for span in v]
             for key, v in spans.items()}
    print(f"workload {args.workload} seed {args.seed}: {len(specs)} groups, "
          f"{ops.attempted} operations")
    probes = sampler.probes
    print(f"speed probes: {len(probes)}, seconds min {min(probes):.6f} "
          f"median {statistics.median(probes):.6f} max {max(probes):.6f}")
    for (cmd, _, spec), v in sorted(times.items()):
        print(f"time {cmd} \"{spec}\": {len(v)} runs, scaled seconds "
              f"{' '.join(f'{x:.4f}' for x in v)}")

    if args.trace:
        metrics, summaries = layer_metrics(tracers, sampler)
        print_layer_table(args.workload, summaries, times)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.json"
        write_spans(spans, tracers)
        print(f"spans written to {spans.relative_to(ROOT)}")
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "report_s": summed_medians(times, "report"),
            "verify_s": summed_medians(times, "verify"),
            "setup_s": setup.median(),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {ops.failed / ops.attempted:.6g} ratio "
          f"({ops.failed} of {ops.attempted} operations)")
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {workload} failed: "
                               f"{proc.stderr.strip()}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "ahilb" / "cli.py").is_file():
        print(f"no ahilb sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 1
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except (ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
