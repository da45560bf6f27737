"""One benchmark op in its own process: set up, run one CLI job in-process
through ``mlas2.cli.main``, and write a report.

Usage: ``python3 bench/child.py SPEC.json SPAWNED`` (the parent sets
PYTHONPATH to the checkout's ``src``; SPAWNED is its spawn time on the
system-wide monotonic clock). The spec names the CLI argv, the report path,
whether to trace, and, for the remote workload, the mock servers to start.
``setup_s`` runs from the parent's spawn to the first timed call, so it
covers interpreter start, ``import mlas2`` and, where there are servers,
starting them and waiting until they answer.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import traceback
import urllib.request
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def start_server(service: str, extra: list[str], log: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "mlas2", "serve", service, "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=log.open("wb"),
        env=os.environ.copy(),
    )


def server_url(proc: subprocess.Popen, path: str, probe: dict, deadline: float) -> str:
    """Read the port the server announces, then POST ``probe`` until it answers 200."""
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"server exited with {proc.wait()} before announcing a port")
    url = f"http://127.0.0.1:{json.loads(line)['listening']}{path}"
    body = json.dumps(probe).encode()
    while True:
        try:
            req = urllib.request.Request(
                url, data=body, headers={"Content-Type": "application/json"}
            )
            with urllib.request.urlopen(req, timeout=5) as resp:
                if resp.status == 200:
                    return url
        except OSError:
            pass
        if _now() > deadline:
            raise RuntimeError(f"server at {url} did not answer")
        time.sleep(0.01)


def stop(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


def main(spec_path: str, spawned: float) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    report: dict = {"run_id": spec["run_id"], "exit_code": None, "error": None}
    op_dir = Path(spec["op_dir"])
    procs: list[subprocess.Popen] = []
    try:
        servers = spec.get("servers")
        if servers:
            procs.append(start_server("mock-translator", [], op_dir / "translator.log"))
            procs.append(start_server(
                "mock-scorer", ["--scores", servers["scores"]], op_dir / "scorer.log"
            ))
        import mlas2.cli as cli

        argv = list(spec["argv"])
        if servers:
            deadline = _now() + 60
            tr_url = server_url(procs[0], "/translate",
                                {"src": "en", "tgt": "de", "texts": []}, deadline)
            sc_url = server_url(procs[1], "/score", {"max_seq_len": 128, "pairs": []}, deadline)
            os.environ["MLAS2_TRANSLATOR_ENDPOINT"] = tr_url
            config = json.loads(Path(servers["config"]).read_text(encoding="utf-8"))
            config["scorer"]["endpoint"] = sc_url
            Path(servers["config"]).write_text(json.dumps(config), encoding="utf-8")

        job = cli.main
        tracer = None
        if spec["trace"]:
            import tracing

            tracer = tracing.Tracer(spec["run_id"])
            tracing.install(tracer)
            job = tracer.wrap("mlas2.cli.main", cli.main)

        t0 = _now()
        report["setup_s"] = t0 - spawned
        if not spec.get("probe"):
            try:
                report["exit_code"] = job(argv)
            finally:
                report["job_s"] = _now() - t0
                sys.stdout.flush()
        if tracer is not None:
            report["trace"] = tracer.export()
    except Exception:
        report["error"] = traceback.format_exc()
    finally:
        stop(procs)
        report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        Path(spec["report"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
