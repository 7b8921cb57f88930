"""Acceptance suite: one pass/fail line per criterion (run with -s to see them)."""

import random
import tempfile
import time

from formula_reference import defining_poly_formula
from gr_reference import root_power
from snf_reference import snf_min_length
from z4seq.analysis import (
    _ring_and_beta,
    admissible_pairs,
    analyze,
    dft,
    lc_by_count,
    lc_by_theorem,
    verify_identities,
)
from z4seq.cli import main as cli_main
from z4seq.cyclotomy import build_system
from z4seq.errors import TraceFormulaPreconditionFailed
from z4seq.galois import make_ring, root_of_unity
from z4seq.lfsr import reeds_sloane
from z4seq.numtheory import R_MAX, mult_order
from z4seq.sequence import QuaternarySequence, generate
from z4seq.trace_repr import check_trace_repr, trace_params


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_full_period_complexity():
    started = time.perf_counter()
    system = build_system(5, 13)
    ring, beta = _ring_and_beta(system, R_MAX)
    assert ring.r == 12
    seq = generate(system)
    by_formula = lc_by_theorem(system)
    by_count = lc_by_count(dft(seq, ring, beta))
    by_synthesis = reeds_sloane(seq.digits * 2).length
    elapsed = time.perf_counter() - started
    ok = by_formula == by_count == by_synthesis == 65 and elapsed < 5.0
    report(f"1 period-65 complexity 65/65/65 in {elapsed:.2f}s", ok)


def test_criterion_2_reduced_complexity_branches():
    started = time.perf_counter()
    results = {}
    for pair in [(5, 17), (13, 17)]:
        system = build_system(*pair)
        ring, beta = _ring_and_beta(system, R_MAX)
        seq = generate(system)
        branch = system.two_class
        expected = (system.q + 3 * system.e) if branch == 0 else \
            (system.pq - system.p + 1)
        by_formula = lc_by_theorem(system)
        by_count = lc_by_count(dft(seq, ring, beta))
        by_synthesis = reeds_sloane(seq.digits * 2).length
        results[pair] = (expected, by_formula, by_count, by_synthesis)
    elapsed = time.perf_counter() - started
    ok = (results[(5, 17)] == (81, 81, 81, 81)
          and results[(13, 17)] == (209, 209, 209, 209)
          and elapsed < 30.0)
    report(f"2 branch complexities {results[(5,17)][0]}/{results[(13,17)][0]} "
           f"in {elapsed:.1f}s", ok)


def test_criterion_3_coefficientwise_identity():
    pairs = admissible_pairs(60, 60, 32, pq_max=300)
    assert (5, 13) in pairs and (13, 17) in pairs
    ok = len(pairs) >= 8
    for pair in pairs:
        system = build_system(*pair)
        ring, beta = _ring_and_beta(system, R_MAX)
        lhs = defining_poly_formula(system, ring, beta)
        rhs = dft(generate(system), ring, beta)
        ok = ok and lhs == rhs
    report(f"3 closed form equals DFT on {len(pairs)} pairs", ok)


def test_criterion_4_identity_suite():
    pairs = [(5, 13), (13, 5), (5, 17), (17, 5), (13, 17)]
    ok = True
    for pair in pairs:
        system = build_system(*pair)
        ring, beta = _ring_and_beta(system, R_MAX)
        checks = verify_identities(system, ring, beta)
        ok = ok and len(checks) >= 7 and all(checks.values())
    report(f"4 identity suite on {len(pairs)} pairs", ok)


def test_criterion_5_trace_form():
    pairs = [(5, 13), (13, 5), (5, 17), (17, 5), (13, 17), (5, 29), (29, 5),
             (5, 113), (5, 73), (5, 89)]
    ok = True
    failed_preconditions = []
    for pair in pairs:
        system = build_system(*pair)
        ring, beta = _ring_and_beta(system, R_MAX)
        try:
            params = trace_params(system, ring, beta)
        except TraceFormulaPreconditionFailed as exc:
            failed_preconditions.append((pair, str(exc)))
            continue
        match, first = check_trace_repr(system, ring, beta, params)
        ok = ok and match and first is None
    for pair, reason in failed_preconditions:
        print(f"ACCEPTANCE 5 precondition failed for {pair}: {reason}")
    ok = ok and not failed_preconditions
    report(f"5 trace form exact on {len(pairs) - len(failed_preconditions)}"
           f"/{len(pairs)} pairs", ok)


def test_criterion_6_oracle_soundness():
    rng = random.Random(2024)
    ok = True
    for _ in range(100):
        period = rng.randrange(1, 65)
        digits = [rng.randrange(4) for _ in range(period)]
        ok = ok and reeds_sloane(digits * 2).length == snf_min_length(digits, period)

    checked = 0
    for period, count in ((5, 40), (17, 40), (85, 30)):
        ring = make_ring(mult_order(2, period))
        beta = root_of_unity(ring, period)
        for _ in range(count):
            digits = tuple(rng.randrange(4) for _ in range(period))
            seq = QuaternarySequence(period, digits)
            by_count = lc_by_count(dft(seq, ring, beta))
            by_synthesis = reeds_sloane(digits * 2).length
            ok = ok and by_count == by_synthesis
            checked += 1
    report(f"6 oracle agreement on 100 periodic + {checked} DFT-counted", ok)


def test_criterion_7_beta_independence():
    system = build_system(5, 13)
    ring, beta = _ring_and_beta(system, R_MAX)
    seq = generate(system)
    baseline = lc_by_count(dft(seq, ring, beta))
    rng = random.Random(7)
    ok = baseline == 65
    tried = 0
    while tried < 3:
        m = rng.randrange(2, 65)
        if m % 5 == 0 or m % 13 == 0:
            continue
        ok = ok and lc_by_count(dft(seq, ring, root_power(beta, m))) == baseline
        tried += 1
    report("7 beta-independence of the nonzero count", ok)


def test_criterion_8_sweep_integrity():
    started = time.perf_counter()
    with tempfile.NamedTemporaryFile("r", suffix=".csv") as sink:
        code = cli_main(["sweep", "--p-max", "40", "--q-max", "40",
                         "--r-max", "32", "--out", sink.name])
        text = open(sink.name).read()
    elapsed = time.perf_counter() - started
    lines = text.strip().splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    summary = lines[-1]
    ok = (code == 0 and len(rows) == 8
          and all(r[7] == "true" and not r[-1] for r in rows)
          and "disagree=0" in summary and "errors=0" in summary
          and elapsed < 300.0)
    report(f"8 sweep of {len(rows)} pairs, zero disagreements, "
           f"{elapsed:.1f}s", ok)
