#!/usr/bin/env python3
"""Serving benchmark for xcq_serverd (perfbench/README.md).

    python3 perfbench/run.py --workload hot-doc --seed 1 --seconds 20 --trace 0

Builds the daemon and perfbench_tool from the checkout, generates the
workload's corpora and request stream from the seed, computes the
tree-evaluator oracle, and then either

  --trace 0  drives a live xcq_serverd over loopback and prints the
             client-observed end-to-end metrics, or
  --trace 1  replays the same stream in process through the daemon's
             call chain and prints the per-layer metrics.

Every answer is checked against the oracle. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
SEP = "\x1f"

# The corpora are the paper-corpus stand-ins at their default scale,
# generated with one fixed seed: the document a workload serves is part of
# its definition, while --seed draws the request stream. (Generator seeds
# move DAG sizes by up to ~30%, which would swamp every comparison.)
CORPUS_SEED = 42

# Set-up is repeated at least SETUP_REPS times per run (a fresh daemon
# each time), and up to MAX_SETUP_REPS times while the repetitions take
# less than CHEAP_SETUP_S in total; setup_s is their median and the last
# daemon serves the window.
SETUP_REPS = 3
MAX_SETUP_REPS = 9
CHEAP_SETUP_S = 2.0

# Request-stream lengths; a connection that exhausts its list starts it
# again, so these only bound the generated file.
STREAM_OPS = 20000

# Throughput and the single-QUERY percentiles are medians over
# sub-windows of at least this many single QUERYs (so each sub-window's
# p99 has ten samples beyond it), and at most this many sub-windows.
SUBWINDOW_SINGLES = 1000
MAX_SUBWINDOWS = 10

# The workloads' documents; why each workload exists is recorded in
# BENCHMARK.json and README.md. Churn alone runs a durable store
# (--data-dir) and ends its window only between passes over its stream.
WORKLOADS = {
    "hot-doc": {"docs": ["Shakespeare"]},
    "treebank-sweep": {"docs": ["TreeBank"]},
    "churn": {"docs": ["Shakespeare", "SwissProt", "DBLP", "XMark", "OMIM",
                       "Baseball"],
              "durable": True, "whole_rounds": True},
}

# The gated end-to-end metrics (BENCHMARK.json), in the JSON result on
# every workload. The other figures are printed as lines only: they exist
# on one workload, are 0 (failed_ratio), or swing with host CPU steal far
# beyond any bound of 25% on hot-doc (throughput_qps, latency_p99_ms; see
# README.md).
END_TO_END = [
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("resident_bytes", "bytes"),
]


class BenchError(Exception):
    """A run that cannot produce a valid measurement."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and inputs
# ---------------------------------------------------------------------------

def build():
    """Builds xcq_serverd and perfbench_tool; returns their paths."""
    if not os.path.exists(os.path.join(ROOT, "src", "xcq", "CMakeLists.txt")):
        raise BenchError("no xcq sources next to perfbench/; nothing to build")
    cmake_dir = os.path.join(BUILD, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        for command in (
                ["cmake", "-S", HERE, "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", cmake_dir, "-j4"]):
            if subprocess.call(command, stdout=out, stderr=out) != 0:
                raise BenchError("build failed; see " + out.name)
    return (os.path.join(cmake_dir, "xcq", "examples", "xcq_serverd"),
            os.path.join(cmake_dir, "perfbench_tool"))


def generate(tool, work, docs):
    """Writes the corpora and returns (paths, queries, oracle) keyed by
    document: the file, the seven query texts, and the tree evaluator's
    selected tree-node count for each."""
    out = subprocess.run(
        [tool, "gen", "--out", work, "--seed", str(CORPUS_SEED), *docs],
        check=True, capture_output=True, text=True).stdout
    paths, queries, oracle = {}, {}, {}
    for line in out.splitlines():
        fields = line.split(" ", 4)
        if fields[0] == "doc":
            paths[fields[1]] = fields[2]
            queries[fields[1]], oracle[fields[1]] = [], []
        elif fields[0] == "query":
            queries[fields[1]].append(fields[4])
            oracle[fields[1]].append(int(fields[3]))
    return paths, queries, oracle


class Op:
    """One request of the stream: its kind, target and protocol lines."""

    def __init__(self, kind, doc, qids=(), text=(), faultin=False):
        self.kind = kind
        self.doc = doc
        self.qids = list(qids)
        self.faultin = faultin
        if kind == "QUERY":
            self.lines = ["QUERY %s %s" % (doc, text[0])]
        elif kind == "BATCH":
            self.lines = ["BATCH %s %d" % (doc, len(text))] + list(text)
        else:
            self.lines = ["%s %s" % (kind, doc)]

    @property
    def op_type(self):
        """The latency mode the request belongs to."""
        if self.kind == "QUERY":
            return "faultin" if self.faultin else "query"
        return self.kind.lower()


def shuffled(rng, counts):
    """Each key of `counts` repeated its count of times, in seeded order:
    the seed orders a block but never changes its composition, so every
    run carries the same mix of latency modes."""
    block = [key for key, count in counts.items() for _ in range(count)]
    rng.shuffle(block)
    return block


def build_stream(workload, seed, queries):
    """The seeded request stream: (warm pass, prep ops, connections)."""
    rng = random.Random("%s/%d" % (workload, seed))
    docs = WORKLOADS[workload]["docs"]

    def query(doc, qid, faultin=False):
        return Op("QUERY", doc, [qid], [queries[doc][qid]], faultin)

    def batch(doc, order):
        return Op("BATCH", doc, order, [queries[doc][q] for q in order])

    nq = len(queries[docs[0]])
    warm = [query(d, q) for d in docs for q in range(nq)]
    prep = []
    if workload == "hot-doc":
        # Three connections of single QUERYs, Zipf-skewed over the seven
        # queries (query q is drawn in proportion to 1/(q+1)), and one of
        # BATCHes of all seven in seeded order.
        doc = docs[0]
        warm.append(batch(doc, list(range(nq))))
        zipf = {q: round(60 / (q + 1)) for q in range(nq)}
        conns = []
        for _ in range(3):
            ops = []
            while len(ops) < STREAM_OPS:
                ops.extend(query(doc, q) for q in shuffled(rng, zipf))
            conns.append(ops)
        conns.append([batch(doc, shuffled(rng, dict.fromkeys(range(nq), 1)))
                      for _ in range(STREAM_OPS // 4)])
    elif workload == "treebank-sweep":
        # One connection cycling through the seven queries, each cycle in
        # seeded order.
        ops = []
        while len(ops) < STREAM_OPS:
            ops.extend(query(docs[0], q)
                       for q in shuffled(rng, dict.fromkeys(range(nq), 1)))
        conns = [ops]
    else:
        # One round, repeated: every (document, query) pair as a resident
        # QUERY, Zipf-skewed over the documents (the document of rank r
        # 10/r times); every pair once as EVICT d + QUERY d, whose QUERY
        # faults d back in; and two PERSIST d per document. That is ~76%
        # QUERY, ~18% EVICT + QUERY and ~5% PERSIST, in seeded order. The
        # round ends with every document resident. Two prep rounds put
        # the store in the state every later round ends in: the first
        # still faults documents in from spills written during warm-up,
        # the second only from spills written by a round.
        counts = {}
        for rank, doc in enumerate(docs):
            for q in range(nq):
                counts[("query", doc, q)] = round(10 / (rank + 1))
                counts[("faultin", doc, q)] = 1
            counts[("persist", doc, 0)] = 2
        ops = []
        for kind, doc, q in shuffled(rng, counts):
            if kind == "query":
                ops.append(query(doc, q))
            elif kind == "faultin":
                ops.append(Op("EVICT", doc))
                ops.append(query(doc, q, faultin=True))
            else:
                ops.append(Op("PERSIST", doc))
        prep = ops * 2
        conns = [ops]
    return warm, prep, conns


def write_stream(path, warm, prep, conns):
    with open(path, "w") as out:
        sections = (("pass", [warm]), ("prep", [prep] if prep else []),
                    ("conn", conns))
        for kind, streams in sections:
            for ops in streams:
                out.write(kind + "\n")
                for op in ops:
                    out.write(SEP.join(op.lines) + "\n")


# ---------------------------------------------------------------------------
# Replies and the oracle
# ---------------------------------------------------------------------------

def reply_fields(line):
    """`OK dag=.. tree=.. splits=..` (or a BATCH detail line) -> dict."""
    return dict(f.split("=", 1) for f in line.split() if "=" in f)


def check_reply(op, reply, oracle):
    """Checks one reply against the oracle.

    Returns (status, splits) with status "ok", "err" (an ERR reply) or
    "mismatch" (an OK reply whose tree= count differs from the oracle)."""
    if not reply or not reply[0].startswith("OK"):
        return "err", 0
    if op.kind == "QUERY":
        lines = reply[:1]
    elif op.kind == "BATCH":
        lines = reply[1:]
        if len(lines) != len(op.qids):
            return "mismatch", 0
    else:
        return "ok", 0
    splits = 0
    for qid, line in zip(op.qids, lines):
        fields = reply_fields(line)
        splits += int(fields.get("splits", 0))
        if int(fields.get("tree", -1)) != oracle[op.doc][qid]:
            return "mismatch", splits
    return "ok", splits


# ---------------------------------------------------------------------------
# The daemon and its control connection
# ---------------------------------------------------------------------------

class Daemon:
    """A running xcq_serverd on an ephemeral loopback port."""

    def __init__(self, serverd, work, data_dir=None):
        args = [serverd, "--port=0"]
        if data_dir:
            args.append("--data-dir=" + data_dir)
        self.stderr = open(os.path.join(work, "serverd.log"), "ab")
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                                     stderr=self.stderr, cwd=work)
        self.port = None
        while self.port is None:
            line = self.proc.stdout.readline().decode()
            if not line:
                self.stop()
                raise BenchError("xcq_serverd exited before listening")
            if "listening on" in line:
                self.port = int(line.split("127.0.0.1:")[1].split()[0])

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


class Control:
    """A blocking protocol connection for set-up and snapshots."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, lines):
        self.sock.sendall(("\n".join(lines) + "\n").encode())
        first = self.reader.readline().decode().rstrip("\n")
        reply = [first]
        verb = lines[0].split()[0]
        if verb in ("BATCH", "STATS", "METRICS") and first.startswith("OK "):
            for _ in range(int(first.split()[1])):
                reply.append(self.reader.readline().decode().rstrip("\n"))
        return reply

    def stats(self):
        """STATS -> {document: {field: value}}."""
        rows = {}
        for line in self.request(["STATS"])[1:]:
            name, _, rest = line.partition(" ")
            rows[name] = reply_fields(rest)
        return rows

    def metrics(self):
        """METRICS -> {series: value} for unlabeled series."""
        values = {}
        for line in self.request(["METRICS"])[1:]:
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.partition(" ")
                values[name] = float(value)
        return values

    def close(self):
        self.reader.close()
        self.sock.close()


def run_ops(ctl, ops, oracle):
    """Sends `ops` serially; returns the summed splits. Any ERR reply or
    oracle mismatch during set-up aborts the run."""
    splits = 0
    for op in ops:
        reply = ctl.request(op.lines)
        status, s = check_reply(op, reply, oracle)
        if status != "ok":
            raise BenchError("set-up %s: %s -> %s" % (status, op.lines[0],
                                                     reply[0]))
        splits += s
    return splits


def warm_to_fixpoint(run_pass):
    """Repeats the warm pass until one full pass makes no split."""
    for passes in range(1, 21):
        if run_pass() == 0:
            return passes
    raise BenchError("no split fixpoint after 20 passes")


def setup(serverd, work, spec, paths, warm, oracle, rep):
    """Spawns a daemon, LOADs the documents and warms them to the split
    fixpoint. Returns (daemon, seconds)."""
    data_dir = None
    if spec.get("durable"):
        data_dir = os.path.join(work, "data-%d" % rep)
    start = time.perf_counter()
    daemon = Daemon(serverd, work, data_dir)
    try:
        ctl = Control(daemon.port)
        for doc in spec["docs"]:
            reply = ctl.request(["LOAD %s %s" % (doc, paths[doc])])
            if not reply[0].startswith("OK"):
                raise BenchError("LOAD %s: %s" % (doc, reply[0]))
        warm_to_fixpoint(lambda: run_ops(ctl, warm, oracle))
        seconds = time.perf_counter() - start
        ctl.close()
    except BaseException:
        daemon.stop()
        raise
    return daemon, seconds


# ---------------------------------------------------------------------------
# --trace 0: the end-to-end run
# ---------------------------------------------------------------------------

def read_samples(path, conns):
    """The load generator's records, in completion order: (op, round,
    completion offset s, latency ms, reply lines)."""
    samples = []
    with open(path) as f:
        for line in f:
            fields = line.rstrip("\n").split("\t")
            conn, rnd, index, done_ns, latency_ns = map(int, fields[:5])
            samples.append((conns[conn][index], rnd, done_ns / 1e9,
                            latency_ns / 1e6, fields[5].split(SEP)))
    return samples


def subwindows(samples, whole_rounds):
    """Splits the window into contiguous sub-windows holding at least
    SUBWINDOW_SINGLES single QUERYs each (so a p99 qualifies in each), at
    most MAX_SUBWINDOWS, and with --whole-rounds only at round
    boundaries, so every sub-window repeats the same store states."""
    singles = sum(op.kind == "QUERY" for op, *_ in samples)
    if not whole_rounds:
        k = max(1, min(MAX_SUBWINDOWS, singles // SUBWINDOW_SINGLES))
        return stats.split_chunks(samples, k)
    rounds = stats.group_runs(samples, key=lambda sample: sample[1])
    per_round = max(1, singles // len(rounds))
    k = max(1, min(MAX_SUBWINDOWS,
                   len(rounds) // -(-SUBWINDOW_SINGLES // per_round)))
    return [[s for group in chunk for s in group]
            for chunk in stats.split_chunks(rounds, k)]


def summarize(samples, oracle, steady, whole_rounds=False):
    """Checks every reply and computes the end-to-end figures. Throughput
    and the single-QUERY percentiles are medians over sub-windows; the
    BATCH and fault-in medians are taken over the whole window. Returns
    (figures, counts, defects); a figure is (value, samples) or, for a
    percentile, (value, samples, requested p, reported p)."""
    defects = []
    errors = mismatches = splits = 0
    checked = []
    for op, rnd, done, latency, reply in samples:
        status, s = check_reply(op, reply, oracle)
        splits += s
        errors += status == "err"
        mismatches += status == "mismatch"
        if status == "mismatch":
            defects.append("oracle mismatch: %s -> %s" % (
                " / ".join(op.lines), " / ".join(reply)))
        checked.append((op, rnd, done, latency, status))
    if steady and splits:
        defects.append("steady state broken: replies show splits=%d" % splits)

    def figures_of(part, start):
        outcomes = [(len(op.qids), status == "ok")
                    for op, _, _, _, status in part
                    if op.kind in ("QUERY", "BATCH")]
        singles = [latency for op, _, _, latency, _ in part
                   if op.kind == "QUERY"]
        return (stats.queries_answered(outcomes) / (part[-1][2] - start),
                stats.percentile(singles, 50), stats.percentile(singles, 99))

    parts = subwindows(checked, whole_rounds)
    per_part, start = [], 0.0
    for part in parts:
        per_part.append(figures_of(part, start))
        start = part[-1][2]
    by_type = stats.split_by_type(
        [(op.op_type, latency) for op, _, _, latency, _ in checked])
    n_single = len(by_type.get("query", [])) + len(by_type.get("faultin", []))
    n_answers = sum(len(op.qids) for op, *_ in checked)
    figures = {
        "throughput_qps": (stats.median([f[0] for f in per_part]), n_answers),
        "failed_ratio": (stats.failed_ratio(errors, 0, mismatches,
                                            len(samples)), len(samples)),
    }
    for name, i, p in (("latency_p50_ms", 1, 50), ("latency_p99_ms", 2, 99)):
        if all(f[i] is not None for f in per_part):
            figures[name] = (stats.median([f[i][0] for f in per_part]),
                             n_single, p, min(f[i][1] for f in per_part))
    for name, op_type in (("batch_p50_ms", "batch"),
                          ("faultin_p50_ms", "faultin")):
        result = stats.percentile(by_type.get(op_type, []), 50)
        if result is not None:
            figures[name] = (result[0], result[2], 50, result[1])
    counts = {"requests": len(samples), "errors": errors,
              "mismatches": mismatches, "splits": splits,
              "subwindows": len(parts)}
    for op_type, latencies in sorted(by_type.items()):
        counts["n_" + op_type] = len(latencies)
    return figures, counts, defects


def run_end_to_end(args, serverd, tool, work, spec, paths, oracle, streams):
    warm, prep, conns = streams
    stream_path = os.path.join(work, "stream.txt")
    setups, daemon = [], None
    while len(setups) < SETUP_REPS or (len(setups) < MAX_SETUP_REPS and
                                       sum(setups) < CHEAP_SETUP_S):
        if daemon is not None:
            daemon.stop()
        daemon, seconds = setup(serverd, work, spec, paths, warm, oracle,
                                len(setups))
        setups.append(seconds)
    try:
        # The prep ops put the serving daemon in the window's starting
        # state; they are not part of set-up.
        ctl = Control(daemon.port)
        run_ops(ctl, prep, oracle)
        before, metrics_before = ctl.stats(), ctl.metrics()
        ctl.close()
        samples_path = os.path.join(work, "samples.tsv")
        load = [tool, "load", "--port", str(daemon.port), "--stream",
                stream_path, "--seconds", str(args.seconds), "--out",
                samples_path]
        if spec.get("whole_rounds"):
            load.append("--whole-rounds")
        subprocess.run(load, check=True)
        ctl = Control(daemon.port)
        after, metrics_after = ctl.stats(), ctl.metrics()
        ctl.close()
    finally:
        daemon.stop()

    samples = read_samples(samples_path, conns)
    steady = not spec.get("durable")
    figures, counts, defects = summarize(samples, oracle, steady,
                                         spec.get("whole_rounds", False))
    figures["setup_s"] = (stats.median(setups), len(setups))

    def total(rows, field):
        return sum(int(row[field]) for row in rows.values())

    figures["resident_bytes"] = (total(after, "bytes"), len(after))
    if spec.get("durable"):
        figures["spill_bytes"] = (total(after, "spill_bytes"), len(after))

    # Exact-count self-checks: a mismatch is a defect of the benchmark or
    # the program, never noise.
    exact = {
        "resident_bytes": (total(before, "bytes"), total(after, "bytes")),
    }
    if steady:
        for field in ("traversal_builds", "summary_builds"):
            exact[field] = (total(before, field), total(after, field))
    else:
        exact["spill_bytes"] = (total(before, "spill_bytes"),
                                total(after, "spill_bytes"))
        ran = [op for op, *_ in samples]

        def delta(series):
            return int(metrics_after.get(series, 0) -
                       metrics_before.get(series, 0))

        exact["faultins"] = (sum(op.faultin for op in ran),
                             delta("xcq_store_warm_hits_total"))
        exact["evictions"] = (sum(op.kind == "EVICT" for op in ran),
                              delta("xcq_store_evictions_total"))
        exact["spill_writes"] = (sum(op.kind == "PERSIST" for op in ran),
                                 delta("xcq_store_spill_writes_total"))
        rounds = max(r for _, r, *_ in samples) + 1
        if len(samples) != rounds * len(conns[0]):
            defects.append("churn ran %d requests, not %d whole rounds" % (
                len(samples), rounds))
        counts["rounds"] = rounds
        counts["hits_per_round"] = sum(
            op.op_type == "query" for op in conns[0])
        counts["faultins_per_round"] = sum(op.faultin for op in conns[0])
    for name, (expected, seen) in exact.items():
        counts["check." + name] = seen
        if expected != seen:
            defects.append("exact count %s: expected %d, got %d" % (
                name, expected, seen))
    return figures, counts, defects


# ---------------------------------------------------------------------------
# --trace 1: the per-layer run
# ---------------------------------------------------------------------------

PHASES = ["parse", "compile", "label", "prune_bind", "sweep", "minimize",
          "serialize"]
FAMILIES = ["downward", "upward", "sibling"]


def read_trace(path):
    """perfbench_tool trace output -> dict of its sections."""
    data = {"direct": [], "req": [], "span": {}, "outcome": {}, "counts": {},
            "series": {}, "stats": {"before": {}, "after": {}}}
    with open(path) as f:
        for line in f:
            fields = line.rstrip("\n").split("\t")
            kind = fields[0]
            if kind == "direct":
                data["direct"].append([fields[1]] +
                                      [int(x) for x in fields[2:]])
            elif kind == "wall":
                data["wall"] = [float(x) for x in fields[1:]]
            elif kind in ("scrape_ns", "inline_rtt_ns"):
                data[kind] = int(fields[1])
            elif kind == "counts":
                data["counts"][fields[1]] = [int(x) for x in fields[2:]]
            elif kind == "series":
                data["series"][fields[1]] = [float(x) for x in fields[2:]]
            elif kind == "stats":
                name, _, rest = fields[2].partition(" ")
                data["stats"][fields[1]][name] = reply_fields(rest)
            elif kind == "req":
                data["req"].append((int(fields[2]), int(fields[3]),
                                    fields[4] == "1", fields[5].split(SEP)))
            elif kind == "span":
                data["span"].setdefault(int(fields[1]), []).append(
                    (fields[4], int(fields[3]), int(fields[5]),
                     int(fields[6])))
            elif kind == "outcome":
                values = [int(x) for x in fields[2:7]] + \
                    [float(x) for x in fields[7:]]
                data["outcome"].setdefault(int(fields[1]), []).append(values)
    return data


def layer_metrics(data, conns, oracle):
    """Per-layer metrics from the traced replay. Returns (metrics, counts,
    defects, shares) with metrics as {name: (value, unit, n)}."""
    defects = []
    spans_by = {}   # span name -> [duration ms]
    gaps, single_sweeps = [], []
    outcome_rows = []
    shares = {}
    requests = len(data["req"])
    failed = 0
    for r, (conn, index, _, reply) in enumerate(data["req"]):
        op = conns[conn][index]
        status, _ = check_reply(op, reply, oracle)
        if status != "ok":
            failed += 1
            defects.append("traced replay %s: %s -> %s" % (
                status, op.lines[0], reply[0]))
        spans = data["span"].get(r, [])
        for name, _, start, end in spans:
            spans_by.setdefault(name, []).append((end - start) / 1e6)
        outcomes = data["outcome"].get(r, [])
        outcome_rows.extend(outcomes)
        durations = {}
        for name, _, start, end in spans:
            durations[name] = durations.get(name, 0.0) + (end - start) / 1e6
        query_ms = durations.get("document_store.query", 0.0)
        covered = sum(o[5 + len(PHASES)] for o in outcomes) * 1e3
        if op.kind == "QUERY":
            # Batch members share one sweep and report it in aggregates
            # only, so per-query gap and sweep figures use single QUERYs.
            gaps.append(query_ms - covered)
            single_sweeps.extend(o[5 + PHASES.index("sweep")] * 1e3
                                 for o in outcomes)
        session = sum(o[5 + PHASES.index(p)] for o in outcomes
                      for p in ("parse", "compile", "label", "minimize")) * 1e3
        engine = sum(o[5 + PHASES.index("sweep")] for o in outcomes) * 1e3
        self_time = {
            "tcp_server": data["inline_rtt_ns"] / 1e6,
            "protocol": durations.get("protocol.parse", 0.0) +
            durations.get("protocol.format", 0.0),
            "query_service": durations.get("query_service.queue_wait", 0.0) +
            durations.get("query_service.complete", 0.0),
            "document_store": durations.get("document_store.acquire", 0.0) +
            durations.get("document_store.faultin", 0.0) +
            durations.get("document_store.evict", 0.0) +
            durations.get("document_store.persist", 0.0) +
            max(0.0, query_ms - covered),
            "session": session,
            "engine": engine,
        }
        for layer, ms in self_time.items():
            shares[layer] = shares.get(layer, 0.0) + ms

    def pct(values, p):
        result = stats.percentile(values, p)
        return result[0] if result else 0.0

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def col(i):
        return [o[i] for o in outcome_rows]

    phase = {p: col(5 + i) for i, p in enumerate(PHASES)}
    covered_i = 5 + len(PHASES)
    kernel, bind = col(covered_i + 1), col(covered_i + 2)
    families = {f: col(covered_i + 3 + i) for i, f in enumerate(FAMILIES)}
    gate = [s - k - b for s, k, b in zip(phase["sweep"], kernel, bind)]
    before, after = data["stats"]["before"], data["stats"]["after"]

    def stat_delta(field):
        return sum(int(after[d][field]) - int(before[d][field])
                   for d in after)

    def series_delta(name):
        values = data["series"].get(name, [0, 0, 0])
        return values[2] - values[1]

    # STATS counters restart when a document is faulted back in, so the
    # STATS deltas are taken only on workloads that never evict.
    recreated = any(op.kind == "EVICT" for c in conns for op in c)
    batches = 0 if recreated else stat_delta("batches")
    visited, full = sum(col(2)), sum(col(3))
    wall_off, wall_on, wall_off_again = data["wall"]
    direct = data["direct"]
    n_out = len(outcome_rows)

    metrics = {}  # name -> (value, unit, samples)
    metrics["tcp_server.inline_rtt_us"] = (
        data["inline_rtt_ns"] / 1e3, "us", 2000)
    for name, span, p in (
            ("protocol.parse_us", "protocol.parse", 50),
            ("protocol.format_us", "protocol.format", 50),
            ("query_service.queue_wait_p50_ms", "query_service.queue_wait",
             50),
            ("query_service.queue_wait_p99_ms", "query_service.queue_wait",
             99),
            ("query_service.run_ms", "query_service.run", 50),
            ("document_store.acquire_us", "document_store.acquire", 50),
            ("document_store.faultin_p50_ms", "document_store.faultin", 50),
            ("document_store.faultin_p99_ms", "document_store.faultin", 99),
            ("document_store.query_p50_ms", "document_store.query", 50),
            ("document_store.query_p99_ms", "document_store.query", 99),
            ("document_store.persist_ms", "document_store.persist", 50)):
        unit = name.rsplit("_", 1)[1]
        scale = 1e3 if unit == "us" else 1.0
        values = [v * scale for v in spans_by.get(span, [])]
        metrics[name] = (pct(values, p), unit, len(values))
    metrics["document_store.query_gap_ms"] = (pct(gaps, 50), "ms", len(gaps))
    metrics["document_store.faultins"] = (
        len(spans_by.get("document_store.faultin", [])), "count", requests)
    metrics["document_store.spill_writes"] = (
        series_delta("xcq_store_spill_writes_total"), "count", requests)
    metrics["document_store.evictions"] = (
        series_delta("xcq_store_evictions_total"), "count", requests)
    for name, key, scale, unit in (("session.parse_us", "parse", 1e6, "us"),
                                   ("session.compile_us", "compile", 1e6,
                                    "us"),
                                   ("session.label_ms", "label", 1e3, "ms")):
        metrics[name] = (pct([v * scale for v in phase[key]], 50), unit,
                         len(phase[key]))
    metrics["session.source_parses"] = (
        (0, "count", 0) if recreated
        else (stat_delta("parses"), "count", requests))
    for name, p in (("engine.sweep_p50_ms", 50), ("engine.sweep_p99_ms", 99)):
        metrics[name] = (pct(single_sweeps, p), "ms", len(single_sweeps))
    for name, values in (("engine.kernel_ms", kernel),
                         ("engine.prune_gate_ms", gate),
                         ("engine.prune_bind_ms", bind),
                         *(("engine.%s_ms" % f, families[f])
                           for f in FAMILIES)):
        metrics[name] = (mean(values) * 1e3, "ms", len(values))
    metrics["engine.visited_ratio"] = (visited / full if full else 0.0, "1",
                                       n_out)
    metrics["engine.splits"] = (sum(col(1)), "count", n_out)
    metrics["engine.summary_builds"] = (sum(col(4)), "count", n_out)
    metrics["engine.traversal_builds"] = (
        (0, "count", 0) if recreated
        else (stat_delta("traversal_builds"), "count", requests))
    metrics["engine.shared_batch_ratio"] = (
        stat_delta("shared") / batches if batches else 0.0, "1", batches)
    for name, i, scale, unit in (("compress.compress_s", 1, 1e9, "s"),
                                 ("instance.serialize_ms", 2, 1e6, "ms"),
                                 ("instance.deserialize_ms", 3, 1e6, "ms")):
        metrics[name] = (sum(d[i] for d in direct) / scale, unit, len(direct))
    for name, field, unit in (("instance.dag_vertices", "vertices", "count"),
                              ("instance.footprint_bytes", "bytes", "bytes")):
        metrics[name] = (sum(int(r[field]) for r in after.values()), unit,
                         len(after))
    metrics["obs.scrape_ms"] = (data["scrape_ns"] / 1e6, "ms", 21)
    metrics["trace.overhead_ratio"] = (
        2 * wall_on / (wall_off + wall_off_again) - 1.0, "1", requests)

    counts = {"requests": requests, "failed": failed,
              "check.visited": visited, "check.full": full}
    replays = [data["counts"].get(k) for k in ("off", "on", "off_again")]
    if replays.count(replays[0]) != 3:
        defects.append("replays disagree on exact counts: %s" % replays)
    if not recreated and (sum(col(4)) or stat_delta("traversal_builds") or
                          sum(col(1))):
        defects.append("steady state broken in the traced replay")
    total = sum(shares.values())
    shares = {k: v / total for k, v in shares.items()} if total else shares
    return metrics, counts, defects, shares


def run_traced(args, serverd, tool, work, spec, paths, oracle, streams):
    _, _, conns = streams
    docs_path = os.path.join(work, "docs.txt")
    with open(docs_path, "w") as out:
        for doc in spec["docs"]:
            out.write("%s %s\n" % (doc, paths[doc]))
    trace_path = os.path.join(work, "trace.tsv")
    command = [tool, "trace", "--stream", os.path.join(work, "stream.txt"),
               "--docs", docs_path, "--seconds", str(args.seconds * 0.3),
               "--out", trace_path]
    if spec.get("durable"):
        command += ["--data-dir", os.path.join(work, "trace-data")]
    if spec.get("whole_rounds"):
        command.append("--whole-rounds")
    # A bare daemon for the tcp_server floor.
    daemon = Daemon(serverd, work)
    try:
        subprocess.run(command + ["--port", str(daemon.port)], check=True)
    finally:
        daemon.stop()
    return layer_metrics(read_trace(trace_path), conns, oracle)


# ---------------------------------------------------------------------------

def main():
    # SIGTERM unwinds like an error, so every daemon and child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = WORKLOADS[args.workload]
    work = os.path.join(BUILD, "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    try:
        serverd, tool = build()
        os.makedirs(work)
        paths, queries, oracle = generate(tool, work, spec["docs"])
        streams = build_stream(args.workload, args.seed, queries)
        write_stream(os.path.join(work, "stream.txt"), *streams)
        if args.trace:
            return report_traced(args, *run_traced(
                args, serverd, tool, work, spec, paths, oracle, streams))
        return report_end_to_end(args, *run_end_to_end(
            args, serverd, tool, work, spec, paths, oracle, streams))
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_metric(workload, name, value, unit, n, note=""):
    print("%s/%s %s %s n=%d%s" % (workload, name, format(value, ".6g"), unit,
                                  n, note))


def report_end_to_end(args, figures, counts, defects):
    units = dict(END_TO_END + [("throughput_qps", "1/s"),
                               ("latency_p99_ms", "ms"),
                               ("batch_p50_ms", "ms"),
                               ("faultin_p50_ms", "ms"),
                               ("spill_bytes", "bytes"),
                               ("failed_ratio", "1")])
    for name, figure in figures.items():
        note = ""
        if len(figure) == 4 and figure[3] != figure[2]:
            note = " (reported at p%.2f: fewer than %d samples beyond p%d)" % (
                figure[3], stats.MIN_BEYOND, figure[2])
        print_metric(args.workload, name, figure[0], units[name], figure[1],
                     note)
    for name, value in counts.items():
        print("%s/%s %s" % (args.workload, name, value))
    for defect in defects:
        log("DEFECT: " + defect)
    missing = [name for name, _ in END_TO_END if name not in figures]
    if missing:
        log("too few samples for %s" % ", ".join(missing))
        return 1
    result = {
        "correct": not defects,
        "attempted": counts["requests"],
        "failed": counts["errors"] + counts["mismatches"],
        "metrics": {name: {"value": figures[name][0], "unit": unit}
                    for name, unit in END_TO_END},
    }
    print(json.dumps(result))
    return 1 if defects else 0


def report_traced(args, metrics, counts, defects, shares):
    for name, (value, unit, n) in metrics.items():
        print_metric(args.workload, name, value, unit, n)
    for name, value in counts.items():
        print("%s/%s %s" % (args.workload, name, value))
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print("%s/share.%s %.4f" % (args.workload, layer, share))
    if shares:
        print("%s/largest_layer %s" % (args.workload,
                                       max(shares, key=shares.get)))
    for defect in defects:
        log("DEFECT: " + defect)
    result = {
        "correct": not defects,
        "attempted": counts["requests"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if defects else 0


if __name__ == "__main__":
    sys.exit(main())
