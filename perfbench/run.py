#!/usr/bin/env python3
"""perfbench — the repository's benchmark of the localize request path.

    python3 perfbench/run.py --workload cdn_mixed --seed 1 --seconds 50 --trace 0

Builds rap_server and perfbench_loadgen in Release under .bench_build,
generates the workload's inputs from --seed, then either

  --trace 0  drives a rap_server child over loopback HTTP (tracing off)
             and reports the end-to-end metrics of BENCHMARK.json, or
  --trace 1  replays the same inputs in-process under bench-side spans
             and reports its per-layer metrics.

Every response is checked (see WORKLOADS.md).  The report goes to stdout;
its last line is one JSON object {correct, attempted, failed, metrics}.
The exit code is non-zero when any output is wrong or a step fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"
WORKLOADS = ("rapmd_paper", "rapmd_exhaustive", "cdn_mixed")
SETUP_SPAWNS = 25
HTTP_WORKERS = 2  # rap_server's defaults, passed explicitly
JOB_WORKERS = 2


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "ab") as out:
        done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, timeout=timeout)
    if done.returncode != 0:
        tail = Path(log_path).read_text(errors="replace")[-3000:]
        raise BenchError("%s failed (exit %d):\n%s"
                         % (" ".join(map(str, cmd)), done.returncode, tail))


def build():
    """Configures (once) and builds the two binaries; returns the cached
    build facts.  Anything but a Release build is refused."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no rapminer sources next to %s" % HERE)
    OUT.mkdir(exist_ok=True)
    build_log = OUT / "build.log"
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"], build_log, 600)
    run_logged(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                "--target", "rap_server", "perfbench_loadgen"], build_log, 900)
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.startswith(("#", "//")):
            cache[key.split(":")[0]] = value
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError("refusing to record a %r build"
                         % cache.get("CMAKE_BUILD_TYPE"))
    return cache


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return "git " + head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for sub in ("src", "examples", "CMakeLists.txt"):
        base = ROOT / sub
        for path in sorted([base] if base.is_file() else base.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources sha256:" + digest.hexdigest()[:16]


def http_get(port, path):
    conn = socket.create_connection(("127.0.0.1", port), timeout=10)
    try:
        conn.sendall(("GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                      "Connection: close\r\n\r\n" % path).encode())
        data = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            data += chunk
    finally:
        conn.close()
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body.decode(errors="replace")


def stop_server(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def spawn_server(cmd, server_log):
    """Starts rap_server; returns (process, port, seconds from spawn to
    its first /healthz 200)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=server_log, text=True)
    try:
        port = None
        for line in proc.stdout:
            if line.startswith("listening on "):
                port = int(line.strip().rstrip("/").rsplit(":", 1)[1])
                break
        if port is None:
            raise BenchError("rap_server exited before listening (code %s)"
                             % proc.wait())
        while http_get(port, "/healthz")[0] != 200:
            time.sleep(0.001)
        return proc, port, time.perf_counter() - start
    except BaseException:
        stop_server(proc)
        raise


def peak_rss_mb(pid):
    for line in Path("/proc/%d/status" % pid).read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def loadgen_cmd(args, sub, tmp):
    return [str(BUILD / "perfbench_loadgen"), sub,
            "--workload=%s" % args.workload, "--seed=%d" % args.seed,
            "--dir=%s" % tmp]


def all_answered(results):
    """Every generated case must have been answered at least once."""
    print("inputs: %s" % json.dumps(results["inputs"]))
    if results["bases_covered"] == results["inputs"]["bases"]:
        return True
    print("not every generated case was answered (%d of %d)"
          % (results["bases_covered"], results["inputs"]["bases"]))
    return False


def end_to_end(args, tmp):
    tenants = tmp / "tenants.json"
    server_cmd = [str(BUILD / "rapminer" / "examples" / "rap_server"),
                  "--tenants=%s" % tenants, "--port=0",
                  "--http-workers=%d" % HTTP_WORKERS,
                  "--job-workers=%d" % JOB_WORKERS]
    print("server: %s" % " ".join(server_cmd))
    setups = []
    results = tmp / "load.json"
    with open(tmp / "server.log", "w") as server_log:
        for spawn in range(SETUP_SPAWNS):
            proc, port, seconds = spawn_server(server_cmd, server_log)
            setups.append(seconds)
            if spawn + 1 < SETUP_SPAWNS:
                stop_server(proc)
        try:
            _, metrics_text = http_get(port, "/metrics")
            if 'build_type="Release"' not in metrics_text:
                raise BenchError("rap_server does not report a Release build")
            subprocess.run(loadgen_cmd(args, "load", tmp) + [
                "--port=%d" % port, "--seconds=%g" % args.seconds,
                "--out=%s" % results], cwd=ROOT, check=True,
                timeout=args.seconds * 3 + 60)
            rss = peak_rss_mb(proc.pid)
        finally:
            stop_server(proc)
    load = json.loads(results.read_text())

    fresh, repeat = load["fresh_ms"], load["repeat_ms"]
    # Latency percentiles are over groups: a fresh request's group is its
    # case, and resubmissions are dealt round-robin into as many groups.
    # Each group counts with its fastest request (see WORKLOADS.md).
    best_fresh = stats.best_per_group(fresh, load["fresh_case"])
    best_repeat = stats.best_per_group(repeat, load["repeat_group"])
    metrics = {
        "setup_s": stats.median(setups),
        "fresh_p50_ms": stats.median(best_fresh),
        "fresh_p90_ms": stats.tail(best_fresh, 90),
        "repeat_p50_ms": stats.median(best_repeat),
        "repeat_p90_ms": stats.tail(best_repeat, 90),
        "rc_at_3": load["truth_hits"] / load["truth_total"],
    }
    # Printed, not gated: see WORKLOADS.md.
    print("peak_rss_mb: %.3f MiB (server VmHWM)" % rss)
    print("fresh_rps: %.3f 1/s (fresh answers per second of %.2f s)"
          % (len(fresh) / load["wall_s"], load["wall_s"]))
    print("every request: fresh p50 %.4f p90 %.4f ms, resubmission p50 %.4f "
          "p90 %.4f ms" % (stats.median(fresh), stats.tail(fresh, 90),
                           stats.median(repeat), stats.tail(repeat, 90)))
    failed, share = stats.failed_share(load["attempted"], load["failures"])
    print("samples: fresh=%d in %d groups, resubmissions=%d in %d groups; "
          "setup spawns=%d" % (len(fresh), len(best_fresh), len(repeat),
                               len(best_repeat), len(setups)))
    print("failed_share: %.6f (%d of %d; %s)"
          % (share, failed, load["attempted"], json.dumps(load["failures"])))
    return metrics, load["attempted"], failed, all_answered(load)


def per_layer(args, tmp):
    results = tmp / "trace.json"
    chrome = OUT / ("trace-%s-%d.json" % (args.workload, args.seed))
    subprocess.run(loadgen_cmd(args, "trace", tmp) + [
        "--seconds=%g" % args.seconds, "--out=%s" % results,
        "--trace-out=%s" % chrome], cwd=ROOT, check=True,
        timeout=args.seconds * 3 + 60)
    trace = json.loads(results.read_text())
    samples = trace["samples"]
    metrics = {name: stats.median(values) for name, values in samples.items()
               if not name.startswith(("self.", "svc.cache_"))}
    hits = samples["svc.cache_hits"][0]
    misses = samples["svc.cache_misses"][0]
    metrics["svc.cache_hit_ratio"] = hits / (hits + misses)
    metrics["svc.unattributed_share"] = (metrics["svc.unattributed_ms"]
                                         / metrics["svc.handle_fresh_ms"])
    metrics["trace.fresh_p50_ms"] = stats.median(trace["fresh_ms"])
    metrics["trace.overhead_ratio"] = (metrics["trace.fresh_p50_ms"]
                                       / stats.median(trace["untraced_fresh_ms"]))

    self_ms = {name[len("self."):]: stats.median(values)
               for name, values in samples.items() if name.startswith("self.")}
    print("self time per span (median ms per request, largest first):")
    for name, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        print("  %-20s %10.4f" % (name, ms))
    replay_spans = {k: v for k, v in self_ms.items()
                    if k not in ("request", "svc.route", "replay")}
    print("largest replayed layer self time: %s"
          % max(replay_spans, key=replay_spans.get))
    print("search layers (median ms per request):")
    for layer in range(1, 9):
        agg = metrics.pop("core.search.L%d.aggregate_ms" % layer)
        merge = metrics.pop("core.search.L%d.merge_ms" % layer)
        print("  L%d aggregate %9.4f  merge %9.4f" % (layer, agg, merge))
    print("coverage: svc.unattributed_ms %.4f of svc.handle_fresh_ms %.4f "
          "(%.1f%% unattributed)"
          % (metrics["svc.unattributed_ms"], metrics["svc.handle_fresh_ms"],
             100 * metrics["svc.unattributed_share"]))
    print("tracing overhead: traced fresh p50 %.4f ms vs untraced %.4f ms"
          % (metrics["trace.fresh_p50_ms"],
             stats.median(trace["untraced_fresh_ms"])))
    print("chrome trace: %s" % chrome.relative_to(ROOT))
    failed, share = stats.failed_share(trace["attempted"], trace["failures"])
    print("failed_share: %.6f (%d of %d; %s)"
          % (share, failed, trace["attempted"], json.dumps(trace["failures"])))
    return metrics, trace["attempted"], failed, all_answered(trace)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    started = time.perf_counter()
    cache = build()
    built = time.perf_counter()
    tmp = TMP / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    tmp.mkdir(parents=True)
    try:
        prepared = json.loads(subprocess.run(
            loadgen_cmd(args, "prepare", tmp), cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=120).stdout)
        if prepared["build_type"] != "Release":
            raise BenchError("perfbench_loadgen reports a %r build" % prepared["build_type"])
        provenance = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "hardware_concurrency": prepared["hardware_concurrency"],
            "build_type": cache["CMAKE_BUILD_TYPE"],
            "compiler": prepared["compiler"],
            "source": source_id(),
        }
        print("provenance: %s" % json.dumps(provenance))
        prepared_at = time.perf_counter()
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, complete = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("phases: build %.1f s, sidecars %.1f s, generate + measure + "
          "teardown %.1f s" % (built - started, prepared_at - built,
                               time.perf_counter() - prepared_at))

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError("metrics not produced: %s" % ", ".join(missing))
    print("%-34s %16s  %s" % ("metric", "value", "unit"))
    for m in wanted:
        print("%-34s %16.6f  %s" % (m["name"], metrics[m["name"]], m["unit"]))
    correct = failed == 0 and complete
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (OUT / ("result-%s-%d-trace%d.json"
            % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(dict(result, provenance=provenance), indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, stats.InsufficientSamples, subprocess.SubprocessError,
            OSError, KeyError, ValueError) as err:
        log("perfbench: %s" % err)
        sys.exit(1)
