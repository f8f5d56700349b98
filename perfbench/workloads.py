"""The benchmark's three workloads, each driven through ``botgate.cli.main``
in process by one closed-loop client. See README.md for why each exists.

A workload builds its inputs in ``setup(d, seed)`` (timed as ``setup_s``),
runs one operation in ``op(i)`` (timed), checks that operation's outputs
against the generator's ground truth in ``check(result)`` (not timed; None
when right, else what was wrong) and counts the trace packets it consumed in
``packets(result)``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from botgate import cli
from botgate.synth import (
    PERIOD_FAST, PERIOD_SLOW, BenignProfile, ScanProfile, SynthConfig, gen_benign,
    gen_cnc_beacon, gen_dataset, gen_memoryless_noise, gen_scanning,
)
from botgate.trace import Trace, save_trace

MALICIOUS = "MALICIOUS"

# "mini" is the smoke-run size; "full" is what the benchmark measures.
SIZES = {
    "full": {
        "train": (10, 10),        # benign, malicious sessions behind the model
        "held": (10, 10),         # held-out sessions the session workload cycles over
        "day": (30, 5, 86400.0),  # IoT devices, PCs, trace seconds
        "corpus": (20, 20),       # sessions simulated per corpus op
    },
    "mini": {
        "train": (6, 6),
        "held": (2, 2),
        "day": (8, 2, 7200.0),
        "corpus": (6, 6),
    },
}
N_INFECTED = 4
DAY_SCAN_PPS = 0.3


class SetupError(Exception):
    """A workload could not build its inputs; the run reports no result."""


def count_packets(trace_file: Path) -> int:
    with open(trace_file, "rb") as fh:
        return sum(1 for _ in fh) - 1  # minus the header line


def read_manifest(corpus: Path) -> list[dict]:
    lines = (corpus / cli.MANIFEST_NAME).read_text().splitlines()[1:]
    rows = [line.split("\t") for line in lines if line]
    return [{"label": label, "file": corpus / name, "ingredients": ingredients.split(",")}
            for _, label, name, ingredients in rows]


def write_corpus(corpus: Path, config: SynthConfig, n_benign: int, n_malicious: int) -> None:
    """What ``botgate simulate`` writes, for a config it has no flags for."""
    corpus.mkdir()
    rows = ["index\tlabel\tfile\tingredients"]
    for rec in gen_dataset(config, n_benign, n_malicious):
        name = f"session_{rec.index:05d}.trace"
        save_trace(rec.trace, corpus / name)
        rows.append(f"{rec.index}\t{rec.label}\t{name}\t{','.join(rec.ingredients)}")
    (corpus / cli.MANIFEST_NAME).write_text("\n".join(rows) + "\n")


class Workload:
    """What the workloads share: the in-process CLI call and the model."""

    def __init__(self, size: str):
        self.size = SIZES[size]
        self.tracer = None  # set by the run loop for traced ops only

    def cli(self, *argv) -> tuple[int, str]:
        """One botgate command in process: exit code and captured stdout."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if self.tracer is None:
                return cli.main([str(a) for a in argv]), buf.getvalue()
            sid = self.tracer.begin("cli.main")
            try:
                return cli.main([str(a) for a in argv]), buf.getvalue()
            finally:
                self.tracer.end(sid)

    def setup_cli(self, *argv) -> None:
        rc, _ = self.cli(*argv)
        if rc != 0:
            raise SetupError(f"setup command {argv[0]} exited {rc}")

    def train_model(self, d: Path, seed: int, scan_pps: float) -> Path:
        """A forest trained on sessions whose bots scan at ``scan_pps``."""
        write_corpus(d / "train", SynthConfig(seed=seed, scan=ScanProfile(rate_pps=scan_pps)),
                     *self.size["train"])
        self.setup_cli("featurize", "--corpus", d / "train", "--out", d / "train.csv")
        self.setup_cli("train", "--features", d / "train.csv", "--model", "forest",
                       "--seed", seed, "--out", d / "model.json")
        return d / "model.json"


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


class SessionWorkload(Workload):
    """The gateway loop on 15-minute captures. One op takes one benign and
    one malicious held-out capture, each through ``detect`` and then
    ``policy --apply`` on its report. Single-capture ops would form two
    clusters (benign ~13 ms, malicious ~45-75 ms on a 2-CPU Xeon VM) whose
    median falls in the gap and swings with the exact mix; a pair is one
    cluster, and stage 2 still runs on half the captures."""

    def setup(self, d: Path, seed: int) -> None:
        train_seed, held_seed = _seeds(seed, 2)
        self.model = self.train_model(d, train_seed, ScanProfile().rate_pps)
        n_benign, n_malicious = self.size["held"]
        self.setup_cli("simulate", "--out", d / "held", "--seed", held_seed,
                       "--n-benign", n_benign, "--n-malicious", n_malicious)
        self.store = d / "policies.txt"
        self.setup_cli("policy", "--store", self.store, "--create-policy", "quarantine")
        self.setup_cli("policy", "--store", self.store, "--add-action", "quarantine",
                       "--dev", "*", "--action", "BLOCK_ALL")
        entries = read_manifest(d / "held")
        for e in entries:
            e["pkts"] = count_packets(e["file"])
            e["infected"] = sorted({ing.split(":")[1] for ing in e["ingredients"]
                                    if ing.startswith("beacon:")})
        self.pairs = list(zip([e for e in entries if e["label"] != MALICIOUS],
                              [e for e in entries if e["label"] == MALICIOUS]))
        self.reports = (d / "report-benign.json", d / "report-malicious.json")

    def op(self, i: int):
        runs = []
        for entry, report in zip(self.pairs[i % len(self.pairs)], self.reports):
            rc_detect, _ = self.cli("detect", "--trace", entry["file"],
                                    "--model-file", self.model, "--out", report)
            rc_policy, plan = self.cli("policy", "--store", self.store, "--apply", report)
            runs.append((entry, report, rc_detect, rc_policy, plan))
        return runs

    def check(self, runs) -> str | None:
        try:
            for entry, report_path, rc_detect, rc_policy, plan in runs:
                name = entry["file"].name
                if rc_detect or rc_policy:
                    return f"{name}: exit codes detect={rc_detect} policy={rc_policy}"
                report = json.loads(report_path.read_text())
                if report["stage2_ran"] != (entry["label"] == MALICIOUS):
                    return f"{name}: stage2_ran={report['stage2_ran']} for {entry['label']}"
                if sorted(report["infected_devices"]) != entry["infected"]:
                    return (f"{name}: infected {report['infected_devices']}, "
                            f"expected {entry['infected']}")
                actions = [(p["device"], p["action"]) for p in json.loads(plan)]
                if actions != [(ip, "BLOCK_ALL") for ip in report["infected_devices"]]:
                    return f"{name}: policy plan {actions}"
            return None
        finally:
            for report_path in self.reports:
                report_path.unlink(missing_ok=True)

    def packets(self, runs) -> int:
        return sum(entry["pkts"] for entry, *_ in runs)


def build_day_trace(path: Path, seed: int, n_iot: int, n_pc: int, duration: float) -> list[str]:
    """A capture of ``duration`` seconds from the public generators: benign
    IoT and PC traffic, tiny aperiodic keepalives on every clean IoT device,
    and N_INFECTED devices that beacon and scan. Returns the infected IPs."""
    rng = np.random.default_rng(seed)
    config = SynthConfig(
        seed=seed, n_iot_devices=n_iot, n_pc_devices=n_pc, duration_s=duration,
        benign=BenignProfile(app_interval_min_s=300.0, app_interval_max_s=600.0),
        scan=ScanProfile(rate_pps=DAY_SCAN_PPS),
    )
    iot = config.iot_ips()
    infected = set(rng.choice(n_iot, size=N_INFECTED, replace=False).tolist())
    packets = list(gen_benign(config, [seed, 0]).packets)
    for i, ip in enumerate(iot):
        if i in infected:
            period = [PERIOD_FAST, PERIOD_SLOW][int(rng.integers(2))]
            protocol = ["TCP", "UDP"][int(rng.integers(2))]
            packets += gen_cnc_beacon(period, 0.0, duration, [seed, 1, i], protocol,
                                      device_ip=ip)
            packets += gen_scanning(config, [seed, 2, i], ip)
        else:
            packets += gen_memoryless_noise(1 / 60, duration, [seed, 3, i], device_ip=ip)
    packets.sort(key=lambda p: p.ts)
    save_trace(Trace(packets=packets, internal_subnet=config.subnet), path)
    return [iot[i] for i in sorted(infected)]


class DayWorkload(Workload):
    """Stage 2 at the 24 h, 30-device scale: ``detect`` on one day trace."""

    def setup(self, d: Path, seed: int) -> None:
        train_seed, day_seed = _seeds(seed, 2)
        # trained on bots that scan as slowly as the day trace's do: a model
        # trained at the default 3 pkt/s sits at its decision boundary on
        # 0.3 pkt/s scanners and flags all or none of the windows by seed
        self.model = self.train_model(d, train_seed, DAY_SCAN_PPS)
        self.trace = d / "day.trace"
        self.infected = build_day_trace(self.trace, day_seed, *self.size["day"])
        self.pkts = count_packets(self.trace)
        self.report = d / "report.json"

    def op(self, i: int):
        rc, _ = self.cli("detect", "--trace", self.trace, "--model-file", self.model,
                         "--out", self.report)
        return rc

    def check(self, rc) -> str | None:
        if rc:
            return f"detect exited {rc}"
        report = json.loads(self.report.read_text())
        self.report.unlink()
        if not report["stage2_ran"] or report["infected_devices"] != self.infected:
            return (f"stage2_ran={report['stage2_ran']} infected "
                    f"{report['infected_devices']}, expected {self.infected}")
        return None

    def packets(self, result) -> int:
        return self.pkts


def _digest(root: Path, outputs: list[str]) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    for out in outputs:
        h.update(out.encode())
    return h.hexdigest()


class CorpusWorkload(Workload):
    """The research and training path: ``simulate``, ``featurize``,
    ``train`` (forest, 10-fold CV) and ``evaluate --traces`` in a fresh
    directory. Set-up runs the op once to produce the reference artifacts
    that every later op must reproduce byte for byte."""

    def setup(self, d: Path, seed: int) -> None:
        self.seed = seed
        self.opdir = d / "op"
        self.reference = None  # the first check records it
        problem = self.check(self.op(-1))
        if problem:
            raise SetupError(f"reference corpus op failed: {problem}")

    def op(self, i: int):
        n_benign, n_malicious = self.size["corpus"]
        o = self.opdir
        steps = [
            ("simulate", "--out", o / "corpus", "--seed", self.seed,
             "--n-benign", n_benign, "--n-malicious", n_malicious),
            ("featurize", "--corpus", o / "corpus", "--out", o / "features.csv"),
            ("train", "--features", o / "features.csv", "--model", "forest",
             "--cv-folds", 10, "--seed", self.seed, "--out", o / "model.json"),
            ("evaluate", "--features", o / "features.csv", "--model-file", o / "model.json",
             "--traces", o / "corpus"),
        ]
        return [self.cli(*argv) for argv in steps]

    def check(self, results) -> str | None:
        try:
            rcs = [rc for rc, _ in results]
            if any(rcs):
                return f"exit codes {rcs}"
            evaluation = json.loads(results[-1][1])
            accuracy = evaluation["stage1"]["accuracy"]
            dr = evaluation["stage2"]["DR"]
            if accuracy != 1.0 or dr != 1.0:
                return f"stage-1 accuracy {accuracy}, stage-2 DR {dr}"
            digest = _digest(self.opdir, [out for _, out in results])
            if self.reference is None:
                self.reference = digest
                self.pkts = sum(count_packets(p) for p in (self.opdir / "corpus").glob("*.trace"))
            elif digest != self.reference:
                return "artifacts differ from the reference op"
            return None
        finally:
            shutil.rmtree(self.opdir, ignore_errors=True)

    def packets(self, result) -> int:
        return self.pkts


WORKLOADS = {"session": SessionWorkload, "day": DayWorkload, "corpus": CorpusWorkload}
