"""Acceptance criteria, one test per criterion.

Each test prints a single ``CRITERION n: PASS/FAIL`` line (outside pytest's
capture) with the measured numbers, then asserts. Corpus sizes and tolerances
are fixed; every random draw is seeded, so the whole suite is reproducible.
"""
import math
import time

import numpy as np
import pytest
import scipy.integrate

import scalar_reference as ref
from botgate.acf import Verdict, acf, detect_periodicity
from botgate.baselines import WalkerVerdict, walker_test
from botgate.classifiers import forest_fit, gnb_fit, predict
from botgate.cli import main
from botgate.features import MALICIOUS, extract_features
from botgate.pipeline import detect_iot_bots
from botgate.preprocess import (
    Dataset, chi2_scores, scaler_fit, scaler_transform, select_k_best,
    shuffle_split,
)
from botgate.sessions import TrafficSession
from botgate.stats import bdcs, chi2_sf, ljung_box_q, \
    period_detection_prob
from botgate.synth import (
    SynthConfig, gen_cnc_beacon, gen_dataset, gen_memoryless_noise,
)

SESSION_SECS = 900.0


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# Criterion 1: stage-1 classification quality on a 1000+1000 session corpus

def test_criterion_1_stage1_metrics(capsys):
    t0 = time.monotonic()
    rows, labels = [], []
    for rec in gen_dataset(SynthConfig(seed=0), 1000, 1000):
        sess = TrafficSession(0, rec.trace.packets)
        rows.append(extract_features(sess))
        labels.append(1 if rec.label == MALICIOUS else 0)
    data = Dataset(np.array(rows), np.array(labels))
    train, test = shuffle_split(data, 0.8, seed=0)

    scaler = scaler_fit(train.X)
    Xtr = scaler_transform(scaler, train.X)
    Xte = scaler_transform(scaler, test.X)
    selected = select_k_best(chi2_scores(Xtr, train.y), 6)
    Xtr, Xte = Xtr[:, selected], Xte[:, selected]

    forest = forest_fit(Dataset(Xtr, train.y), seed=0)
    pred, _ = predict(forest, Xte)
    tp = int(((pred == 1) & (test.y == 1)).sum())
    fp = int(((pred == 1) & (test.y == 0)).sum())
    fn = int(((pred == 0) & (test.y == 1)).sum())
    rf_acc = float((pred == test.y).mean())
    rf_prec = tp / (tp + fp) if tp + fp else 0.0
    rf_rec = tp / (tp + fn)

    gnb = gnb_fit(Dataset(Xtr, train.y))
    gnb_acc = float((predict(gnb, Xte)[0] == test.y).mean())
    elapsed = time.monotonic() - t0

    ok = rf_acc >= 0.99 and rf_prec >= 0.99 and rf_rec >= 0.99 \
        and gnb_acc >= 0.95 and elapsed < 300
    report(capsys, 1, ok,
           f"RF acc={rf_acc:.4f} prec={rf_prec:.4f} rec={rf_rec:.4f}, "
           f"GNB acc={gnb_acc:.4f}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: stage-2 DR/MDR on zero-jitter beacons; FP rate on noise

def test_criterion_2_stage2_rates(capsys):
    detected = {60.0: 0, 210.0: 0}
    for period in detected:
        for i in range(50):
            beacon = gen_cnc_beacon(period, 0.0, SESSION_SECS, [7, i, int(period)])
            res = detect_periodicity(beacon, SESSION_SECS)
            detected[period] += res.verdict is Verdict.PERIOD_DETECTED
    dr_fast, dr_slow = detected[60.0] / 50, detected[210.0] / 50

    false_pos = 0
    for i in range(100):
        noise = gen_memoryless_noise(1 / 30, SESSION_SECS, [11, i])
        res = detect_periodicity(noise, SESSION_SECS)
        false_pos += res.verdict is Verdict.PERIOD_DETECTED
    fp_rate = false_pos / 100

    ok = dr_fast == 1.0 and dr_slow == 1.0 and fp_rate <= 0.05
    report(capsys, 2, ok,
           f"DR(60s)={dr_fast:.2f} DR(210s)={dr_slow:.2f} "
           f"(MDR {1 - dr_fast:.2f}/{1 - dr_slow:.2f}), noise FP={fp_rate:.2f}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: ACF gap-variance test vs the periodogram baseline on jitter

def test_criterion_3_beats_baseline_on_jitter(capsys):
    acf_hits = walker_hits = 0
    n = 25
    for i in range(n):
        res = detect_periodicity(gen_cnc_beacon(210.0, 5.0, SESSION_SECS, [13, i]),
                                 SESSION_SECS)
        if res.verdict is Verdict.PERIOD_DETECTED:
            acf_hits += 1
        if walker_test(res.sequence).verdict is WalkerVerdict.DETECTED:
            walker_hits += 1
    acf_dr, walker_dr = acf_hits / n, walker_hits / n
    ok = acf_dr >= walker_dr
    report(capsys, 3, ok,
           f"jittered 210s beacons: ACF DR={acf_dr:.2f} >= baseline DR={walker_dr:.2f}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: ACF against an O(K^2) brute-force oracle

def test_criterion_4_acf_oracle(capsys):
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(200):
        K = int(rng.integers(16, 257))
        e = (rng.random(K) < float(rng.uniform(0.05, 0.5))).astype(int)
        if e.min() == e.max():
            e[int(rng.integers(K))] ^= 1
        max_lag = K // 2
        r = acf(e, max_lag)
        mean = e.mean()
        d = e - mean
        denom = float(np.dot(d, d))
        brute = [K / (K - l) * sum(d[i] * d[i + l] for i in range(K - l)) / denom
                 for l in range(max_lag + 1)]
        worst = max(worst, float(np.abs(r - np.array(brute)).max()))
    ok = worst <= 1e-12
    report(capsys, 4, ok, f"200 sequences, max |ACF - brute| = {worst:.2e} <= 1e-12")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: chi-square selection against brute-force enumeration

def test_criterion_5_chi2_selection_oracle(capsys):
    rng = np.random.default_rng(53)
    worst = 0.0
    mismatches = 0
    for _ in range(100):
        X = rng.random((20, 8)) * 10
        y = rng.integers(0, 2, 20)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        scores = chi2_scores(X, y)
        # independent loop-based evaluation
        brute = np.zeros(8)
        n = len(y)
        for j in range(8):
            total = sum(X[i, j] for i in range(n))
            for c in (0, 1):
                rows = [i for i in range(n) if y[i] == c]
                exp = len(rows) / n * total
                obs = sum(X[i, j] for i in rows)
                brute[j] += (obs - exp) ** 2 / exp
        worst = max(worst, float(np.abs(scores - brute).max()))
        expected_order = sorted(range(8), key=lambda j: (-brute[j], j))[:6]
        mismatches += select_k_best(scores, 6) != expected_order

    # zero-variance features are dropped at k = 6
    X = rng.random((20, 8))
    X[:, 1] = 3.0
    X[:, 6] = 0.0
    y = rng.integers(0, 2, 20)
    y[:2] = [0, 1]
    Xs = scaler_transform(scaler_fit(X), X)
    constant_dropped = not {1, 6} & set(select_k_best(chi2_scores(Xs, y), 6))

    ok = worst <= 1e-9 and mismatches == 0 and constant_dropped
    report(capsys, 5, ok,
           f"100 datasets, max |chi2 - brute| = {worst:.2e} <= 1e-9, "
           f"selection mismatches = {mismatches}, constants dropped = {constant_dropped}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: Ljung-Box and the chi-square tail vs independent oracles

def test_criterion_6_stats_oracles(capsys):
    rng = np.random.default_rng(61)
    worst_q = 0.0
    for _ in range(50):
        K = int(rng.integers(16, 100))
        e = rng.random(K)
        h = int(rng.integers(1, K - 2))
        mean = e.mean()
        d = e - mean
        denom = float(np.dot(d, d))
        brute = 0.0
        for k in range(1, h + 1):
            rho = sum(d[i] * d[i + k] for i in range(K - k)) / denom
            brute += rho ** 2 / (K - k)
        brute *= K * (K + 2)
        worst_q = max(worst_q, abs(ljung_box_q(e, h) - brute))

    # chi-square tail vs numerical integration of the density
    def pdf(t, df):
        a = df / 2.0
        return math.exp(-t / 2.0 + (a - 1) * math.log(t) - a * math.log(2.0)
                        - math.lgamma(a)) if t > 0 else 0.0

    worst_sf = 0.0
    for df in range(1, 31):
        for x in np.linspace(0.5, 50.0, 20):
            cdf, _ = scipy.integrate.quad(pdf, 0.0, float(x), args=(df,), limit=200)
            worst_sf = max(worst_sf, abs(chi2_sf(float(x), df) - (1.0 - cdf)))

    worst_exp = max(abs(chi2_sf(float(x), 2) - math.exp(-x / 2.0))
                    for x in np.linspace(0.0, 50.0, 26))

    ok = worst_q <= 1e-10 and worst_sf <= 1e-6 and worst_exp <= 1e-10
    report(capsys, 6, ok,
           f"Ljung-Box max err {worst_q:.2e} <= 1e-10, "
           f"chi2_sf vs quadrature {worst_sf:.2e} <= 1e-6, "
           f"df=2 closed form {worst_exp:.2e} <= 1e-10")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: confidence-score properties

def test_criterion_7_bdcs_properties(capsys):
    rng = np.random.default_rng(71)
    product_ok = range_ok = True
    for _ in range(100):
        probs = rng.random(int(rng.integers(0, 8))).tolist()
        score = bdcs(probs)
        product_ok &= abs(score - math.prod(probs)) <= 1e-12
        range_ok &= 0.0 <= score <= 1.0
        if probs:
            range_ok &= score <= min(probs) + 1e-12
    empty_ok = bdcs([]) == 1.0

    strong = np.zeros(90)
    strong[::6] = 1
    prob = period_detection_prob(strong).prob
    periodic_ok = prob == 1.0 and bdcs([prob]) == 1.0

    ok = product_ok and range_ok and empty_ok and periodic_ok
    report(capsys, 7, ok,
           f"product={product_ok} range/monotone={range_ok} empty→1.0={empty_ok} "
           f"strongly-periodic device→1.0={periodic_ok}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: byte-identical end-to-end CLI runs

def test_criterion_8_cli_determinism(capsys, tmp_path):
    outputs = []
    for sub in ("run1", "run2"):
        workdir = tmp_path / sub
        code = main(["run-pipeline", "--workdir", str(workdir), "--seed", "0",
                     "--n-benign", "6", "--n-malicious", "6"])
        assert code == 0
        blob = {}
        for name in ("features.csv", "model.json", "report.json"):
            blob[name] = (workdir / name).read_bytes()
        for f in sorted((workdir / "corpus").iterdir()):
            blob[f.name] = f.read_bytes()
        outputs.append(blob)
    identical = outputs[0] == outputs[1]
    n_files = len(outputs[0])
    report(capsys, 8, identical,
           f"simulate→featurize→train→detect twice: {n_files} files byte-identical")
    assert identical


# ---------------------------------------------------------------------------
# Criterion 9: the stage-2 sweep equals a per-device scalar reference pass
# on randomized scenarios

def test_criterion_9_sweep_matches_scalar_reference(capsys):
    rng = np.random.default_rng(91)
    agreed = 0
    n_scen = 50
    for s in range(n_scen):
        n_dev = int(rng.integers(2, 30))
        infected = set(rng.choice(n_dev, size=int(rng.integers(1, max(2, n_dev // 3 + 1))),
                                  replace=False).tolist())
        devices = {}
        for i in range(n_dev):
            ip = f"192.168.1.{10 + i}"
            if i in infected:
                period = float(rng.choice([60, 210]))
                devices[ip] = gen_cnc_beacon(period, 0.0, SESSION_SECS, [91, s, i],
                                             device_ip=ip)
            else:
                devices[ip] = gen_memoryless_noise(1 / 30, SESSION_SECS, [92, s, i],
                                                   device_ip=ip)
        found, results = detect_iot_bots(devices, SESSION_SECS)
        # devices are added in IP order, which is the sweep's order
        expected = {ip: ref.detect_periodicity(list(packets), SESSION_SECS)
                    for ip, packets in devices.items()}
        agreed += found == [ip for ip, (hit, _) in expected.items() if hit] and \
            {ip: (r.verdict is Verdict.PERIOD_DETECTED, r.peak_lags)
             for ip, r in results.items()} == expected
    ok = agreed == n_scen
    report(capsys, 9, ok,
           f"{agreed}/{n_scen} randomized scenarios (2–29 devices): "
           f"stage-2 sweep == scalar reference, verdicts and peak lags")
    assert ok
