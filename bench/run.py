"""Benchmark of the mlas2 CLI jobs.

Run one workload (the last stdout line is the result JSON):

    python3 bench/run.py --workload eval-compose --seed 1 --seconds 40 --trace 0

Each op is one CLI job (``experiment run`` or ``candidates build``) run
in-process through ``mlas2.cli.main`` in a child process of its own, one op
after the other (a closed loop with one client). ``--trace 1`` alternates
untraced and traced ops and reports per-layer metrics plus the tracing
overhead. Other modes:

    python3 bench/run.py compare RESULTS_A RESULTS_B
    python3 bench/run.py record-digests --workload W --seeds 1-10

Inputs are generated from the seed by ``gen.py`` (cached under
``.bench_work/inputs``); full results go to ``.bench_results`` (or
``--results-dir``). Everything is read and written inside the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
OP_TIMEOUT_S = 150
# a run must end within 180 s; ops share what is left of this budget
RUN_BUDGET_S = 165
CALIBRATION_N = 3_000_000

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; makes host drift visible."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_N):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "requests": version("requests"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# one op
# ---------------------------------------------------------------------------

def pairs_expected(workload: str, facts: dict, record: dict | None) -> int:
    """(question, candidate) pairs a verified op scored, from the generated
    inputs and the run record: every term of a composition holds one copy of
    the source's answerable candidates; the dev set is scored once per dev
    evaluation; candidate pools are k_docs documents times their sentences."""
    if workload == "candidates-build":
        pool = min(facts["k_docs"], facts["docs"]) * facts["sents_per_doc"]
        return pool * len(facts["questions"])
    config = facts["config"]
    splits = facts["splits"]
    dev = (config["dev_expr"].count("+") + 1) * splits["dev"]["answerable_candidates"]
    test = sum((e.count("+") + 1) * splits["test"]["answerable_candidates"]
               for e in config["test_exprs"])
    return dev * len(record["dev_maps"]) + test


def prepare_op(workload: str, input_dir: Path, op_dir: Path) -> tuple[list[str], dict | None]:
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    if workload == "candidates-build":
        facts = json.loads((input_dir / "facts.json").read_text(encoding="utf-8"))
        argv = ["candidates", "build", "--corpus", str(input_dir / "corpus.jsonl"),
                "--questions", str(input_dir / "questions.jsonl"),
                "--out", str(op_dir / "tasks.jsonl"),
                "--k-docs", str(facts["k_docs"]), "--k-sents", str(facts["k_sents"])]
        return argv, None
    config = json.loads((input_dir / "config.json").read_text(encoding="utf-8"))
    config["source"] = {k: str(input_dir / v) for k, v in config["source"].items()}
    servers = None
    if workload == "remote-services":
        # a fresh cache file per op, beside the op's run record
        config["translator"]["cache_path"] = str(op_dir / "translations.jsonl")
        servers = {"scores": str(input_dir / "pair_scores.jsonl"),
                   "config": str(op_dir / "config.json")}
    (op_dir / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    argv = ["experiment", "run", "--config", str(op_dir / "config.json"),
            "--results-dir", str(op_dir / "runs")]
    return argv, servers


def run_child(workload: str, input_dir: Path, op_dir: Path, run_id: str,
              trace: bool, probe: bool = False, timeout: float = OP_TIMEOUT_S) -> dict:
    """Spawn one child for one op (or a set-up probe) and return its report."""
    argv, servers = prepare_op(workload, input_dir, op_dir)
    spec = {"run_id": run_id, "op_dir": str(op_dir), "argv": argv, "servers": servers,
            "trace": trace, "probe": probe, "report": str(op_dir / "report.json")}
    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("MLAS2_TRANSLATOR_ENDPOINT", None)
    (op_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    with (op_dir / "stdout.txt").open("wb") as out, (op_dir / "stderr.txt").open("wb") as err:
        t_spawn = _now()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(op_dir / "spec.json"), repr(t_spawn)],
            stdout=out, stderr=err, env=env, cwd=str(op_dir), start_new_session=True,
        )
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            # the child's group holds the mock servers it started, too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return {"run_id": run_id, "error": f"op timed out after {timeout:.0f} s",
                    "wall_s": _now() - t_spawn}
    wall = _now() - t_spawn
    report_path = op_dir / "report.json"
    if not report_path.exists():
        return {"run_id": run_id, "wall_s": wall,
                "error": f"child exited with {proc.returncode} without a report"}
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["wall_s"] = wall
    return report


def verify_op(workload: str, report: dict, op_dir: Path, input_dir: Path, facts: dict,
              expected: str | None) -> dict:
    """Fold the output check into the op's report: ok, digest, pairs."""
    if report.get("error"):
        report["ok"], report["why"] = False, report["error"].strip().splitlines()[-1]
    elif report.get("exit_code") != 0:
        report["ok"], report["why"] = False, f"exit code {report.get('exit_code')}"
    else:
        try:
            report["digest"] = check.check_op(workload, op_dir, input_dir, facts, expected)
            record = None
            if workload != "candidates-build":
                run = op_dir / "runs" / f"{facts['config']['run_name']}.json"
                record = json.loads(run.read_text(encoding="utf-8"))
            report["pairs"] = pairs_expected(workload, facts, record)
            report["ok"] = True
        except check.CheckFailed as exc:
            report["ok"], report["why"] = False, str(exc)
    return report


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = _now() + RUN_BUDGET_S

    def left() -> float:
        return max(1.0, deadline - _now())

    calib_before = calibrate()
    input_dir, facts = gen.generate(workload, seed, WORK / "inputs")
    shipped = check.load_digests().get(workload, {}).get(input_dir.name)
    base = WORK / "ops" / f"{workload}-s{seed}"
    shutil.rmtree(base, ignore_errors=True)

    t_start = _now()
    probes = [
        run_child(workload, input_dir, base / f"probe{i}", f"{workload}-s{seed}-probe{i}",
                  trace=False, probe=True, timeout=left())
        for i in range(SETUP_PROBES)
    ]
    setups = [p["setup_s"] for p in probes if not p.get("error")]

    ops: list[dict] = []
    longest = 0.0
    k = 0
    while True:
        t_round = _now()
        # traced runs alternate which side goes first, so drift hits both alike
        order = ([True, False] if k % 2 == 0 else [False, True]) if trace else [False]
        for traced in order:
            op_dir = base / f"op{len(ops)}"
            run_id = f"{workload}-s{seed}-op{len(ops)}{'-traced' if traced else ''}"
            report = run_child(workload, input_dir, op_dir, run_id, trace=traced, timeout=left())
            report = verify_op(workload, report, op_dir, input_dir, facts, shipped)
            report["traced"] = traced
            ops.append(report)
        k += 1
        longest = max(longest, _now() - t_round)
        if _now() - t_start + longest > min(seconds, deadline - t_start):
            break
    calib_after = calibrate()

    digests = {op["digest"] for op in ops if op.get("ok")}
    if len(digests) > 1:
        for op in ops:
            if op.get("ok"):
                op["ok"], op["why"] = False, "ops of one run disagree on the output digest"
    good = [op for op in ops if op["ok"]]
    plain = [op for op in good if not op["traced"]]
    setups += [op["setup_s"] for op in plain]

    if trace:
        traced_ops = [op for op in good if op["traced"]]
        layers = tracing.per_layer([op["trace"]["spans"] for op in traced_ops])
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in layers.items()}
        untraced_job = _median([op["job_s"] for op in plain])
        traced_job = _median([op["job_s"] for op in traced_ops])
        metrics["trace.job_s"] = {"value": traced_job, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_job - untraced_job, "unit": "s"}
        metrics["trace.overhead_ratio"] = {
            "value": (traced_job - untraced_job) / untraced_job if untraced_job else 0.0,
            "unit": "ratio",
        }
    else:
        metrics = {
            "setup_s": _median(setups),
            "job_s": _median([op["job_s"] for op in plain]),
            "pairs_per_s": _median([op["pairs"] / op["job_s"] for op in plain]),
            "peak_rss_mb": _median([op["maxrss_kb"] / 1024.0 for op in plain]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}

    probe_errors = [p["error"].strip().splitlines()[-1] for p in probes if p.get("error")]
    result = {
        "correct": len(good) == len(ops) and not probe_errors,
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "metrics": metrics,
    }
    for op in ops:
        op.pop("trace", None)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "input_key": input_dir.name,
        "shipped_digest": shipped,
        "environment": environment(),
        "calibration_s": {"before": calib_before, "after": calib_after},
        "setup_samples_s": setups,
        "probe_errors": probe_errors,
        "ops": ops,
        "result": result,
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio") or name.endswith("per_post"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------

def _load_results(directory: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        res = json.loads(path.read_text(encoding="utf-8"))
        by_workload.setdefault(res["workload"], []).append(res)
    return by_workload


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(dir_a: Path, dir_b: Path) -> str:
    """One row per workload: median [q1, q3] of each end-to-end metric on
    both sides, then the per-layer medians as ratios B/A with base A."""
    a, b = _load_results(dir_a), _load_results(dir_b)
    lines = [f"A = {dir_a}", f"B = {dir_b}"]
    for workload in sorted(set(a) | set(b)):
        cells = []
        for name in END_TO_END:
            side = []
            for results in (a.get(workload, []), b.get(workload, [])):
                vals = [r["result"]["metrics"][name]["value"] for r in results
                        if not r["trace"] and name in r["result"]["metrics"]]
                q1, med, q3 = _quartiles(vals)
                side.append((med, q1, q3, len(vals)))
            (ma, qa1, qa3, na), (mb, qb1, qb3, nb) = side
            ratio = f"{mb / ma:.3f}" if ma else "n/a"
            cells.append(
                f"{name} A {ma:.4g} [{qa1:.4g}, {qa3:.4g}] n={na} | "
                f"B {mb:.4g} [{qb1:.4g}, {qb3:.4g}] n={nb} | B/A {ratio}"
            )
        layer = []
        traced = {side: [r for r in res.get(workload, []) if r["trace"]]
                  for side, res in (("a", a), ("b", b))}
        names = sorted({n for r in traced["a"] + traced["b"] for n in r["result"]["metrics"]})
        for name in names:
            va = _median([r["result"]["metrics"][name]["value"] for r in traced["a"]
                          if name in r["result"]["metrics"]])
            vb = _median([r["result"]["metrics"][name]["value"] for r in traced["b"]
                          if name in r["result"]["metrics"]])
            ratio = f"{vb / va:.3f}" if va else "n/a"
            layer.append(f"{name} {ratio} (base {va:.4g})")
        lines.append(f"{workload}: " + " ; ".join(cells)
                     + (" || per-layer B/A: " + ", ".join(layer) if layer else ""))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def record_digests(workload: str, seeds: list[int]) -> None:
    """Run one verified op per seed and store its digest for shipping."""
    digests = check.load_digests()
    for seed in seeds:
        input_dir, facts = gen.generate(workload, seed, WORK / "inputs")
        op_dir = WORK / "ops" / f"{workload}-s{seed}" / "digest"
        report = run_child(workload, input_dir, op_dir, f"{workload}-s{seed}-digest", trace=False)
        report = verify_op(workload, report, op_dir, input_dir, facts, None)
        if not report["ok"]:
            raise SystemExit(f"{workload} seed {seed}: {report['why']}")
        digests.setdefault(workload, {})[input_dir.name] = report["digest"]
        print(f"{workload} seed {seed}: {report['digest']}", file=sys.stderr)
    check.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "mlas2" / "__init__.py").is_file():
        print(f"bench: no mlas2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare RESULTS_A RESULTS_B", file=sys.stderr)
            return 2
        print(compare(Path(argv[1]), Path(argv[2])))
        return 0
    if argv[:1] == ["record-digests"]:
        p = argparse.ArgumentParser(prog="run.py record-digests")
        p.add_argument("--workload", required=True, choices=sorted(gen.PARAMS))
        p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
        args = p.parse_args(argv[1:])
        record_digests(args.workload, _parse_seeds(args.seeds))
        return 0

    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=sorted(gen.PARAMS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results-dir", default=str(ROOT / ".bench_results"))
    args = p.parse_args(argv)

    full = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    results = Path(args.results_dir)
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    for op in full["ops"]:
        if not op["ok"]:
            print(f"bench: op {op.get('run_id')} failed: {op.get('why')}", file=sys.stderr)
    for error in full["probe_errors"]:
        print(f"bench: set-up probe failed: {error}", file=sys.stderr)
    print(json.dumps({"environment": full["environment"],
                      "calibration_s": full["calibration_s"]}))
    print(json.dumps(full["result"]))
    return 0 if full["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
