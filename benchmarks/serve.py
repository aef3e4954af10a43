"""Serve one workload's request sequence in-process and report raw timings.

Run by ``run.py`` in a process of its own, so that the peak RSS it reports
belongs to this workload alone:

    python3 benchmarks/serve.py --root CHECKOUT --plan plan.json --seconds 20 \
        --trace 0 --out result.json

One closed-loop client calls ``effectaudit.cli.main(argv)`` and sends the
next request only when the previous one has returned.  The plan is one pass;
passes repeat until ``--seconds`` have been measured.  The first pass is a
warm-up whose responses are checked in full; every later response must be
byte-identical to its warm-up counterpart.  With ``--trace 1`` the measured
time is split between untraced and traced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

from checker import check_response, mc_z_limit
from spans import SpanRecorder, layer_metrics, span_parents

MIN_PASSES = 2


def _load_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import effectaudit.cli
    import effectaudit.report

    where = os.path.realpath(effectaudit.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"effectaudit was imported from {where}, not from {src}")
    return effectaudit.cli, (effectaudit.report.parse_report, effectaudit.report.render_report)


class Client:
    def __init__(self, cli, plan: list[dict]):
        self.cli = cli
        self.plan = plan
        self.next_id = 0
        self.first: list[tuple[int, str]] = []
        self.failures: list[str] = []
        self.attempted = 0

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed request, not a failed run
            return -1, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
        return code, out.getvalue(), time.perf_counter() - start

    def run_pass(self, on_request=None) -> tuple[float, list[float], str]:
        """One pass over the plan; returns (summed latency, latencies, digest)."""
        latencies, digest = [], hashlib.sha256()
        for k, req in enumerate(self.plan):
            if on_request is not None:
                on_request(self.next_id, req)
            self.next_id += 1
            self.attempted += 1
            code, out, seconds = self.call(req["argv"])
            latencies.append(seconds)
            digest.update(out.encode())
            if (code, out) != self.first[k]:
                self.failures.append(f"request {k} ({req['cmd']}): response differs from pass 0")
        return sum(latencies), latencies, digest.hexdigest()


def _warm_up(client: Client, z_limit: float, report_api) -> None:
    for k, req in enumerate(client.plan):
        client.attempted += 1
        code, out, _ = client.call(req["argv"])
        client.first.append((code, out))
        try:
            reason = check_response(req, code, out, z_limit, report_api)
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"checker could not read the report: {exc!r}"
        if reason is not None:
            client.failures.append(f"request {k} ({req['cmd']} {' '.join(req['argv'])}): {reason}")


def _measure(client: Client, seconds: float, on_request=None):
    """Passes until ``seconds`` have elapsed; returns (pass times, latencies, digests)."""
    pass_times, latencies, digests = [], [], set()
    start = time.perf_counter()
    while len(pass_times) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, lat, digest = client.run_pass(on_request)
        pass_times.append(wall)
        latencies.extend(lat)
        digests.add(digest)
    return pass_times, latencies, digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    cli, report_api = _load_program(args.root)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    mc_checks = sum(req["cmd"] in ("audit", "simulate-sphere") for req in plan)
    client = Client(cli, plan)
    _warm_up(client, mc_z_limit(mc_checks), report_api)
    digest = hashlib.sha256("".join(out for _, out in client.first).encode()).hexdigest()

    result = {"digest": digest, "requests_per_pass": len(plan)}
    if args.trace == 0:
        pass_times, latencies, digests = _measure(client, args.seconds)
        result.update(pass_times=pass_times, latencies=latencies, pass_digests=sorted(digests),
                      peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    else:
        untraced, _, digests = _measure(client, args.seconds / 2)
        rec = SpanRecorder()
        round_of, cmd_of = {}, {}
        first_traced = client.next_id

        def tag(request_id: int, req: dict) -> None:
            rec.request = request_id
            round_of[request_id] = (request_id - first_traced) // len(plan)
            cmd_of[request_id] = req["cmd"]

        rec.install()
        try:
            traced, _, traced_digests = _measure(client, args.seconds / 2, tag)
        finally:
            rec.restore()
        layers = layer_metrics(rec, round_of, cmd_of)
        layers["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        result.update(pass_times=untraced, traced_pass_times=traced, layers=layers,
                      pass_digests=sorted(digests), traced_digests=sorted(traced_digests),
                      spans=len(rec.spans), span_parents=span_parents(rec))
    result.update(attempted=client.attempted, failures=client.failures)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
