//! End-to-end conformance run: the quick grid over the seeded corpus,
//! including training both learned retrievers, plus the differential
//! checks. This is the PR-gate version of what `pmrtool conformance`
//! runs; CI's scheduled job sweeps the full 81-bound grid.

use pmr_conformance::{run_all, ConformanceReport, SweepConfig};

fn report() -> ConformanceReport {
    run_all(&SweepConfig::quick())
}

#[test]
fn quick_grid_conformance_passes() {
    let report = report();
    println!("{}", report.summary());
    assert!(report.passed(), "{:?}", report.failures);

    // Theory must be flawless on the points it claims.
    let theory = report.strategies.iter().find(|s| s.strategy == "MGARD").expect("theory row");
    assert_eq!(theory.violations, 0, "theory soundness is a hard guarantee");
    assert!(theory.claimed > 0, "grid must contain reachable bounds");
    assert!(theory.max_overshoot <= 1.0, "claimed theory points may not overshoot");

    // All four strategies swept, with seed 1's counts from the table at
    // `ViolationBudget::default`: a drift in the training recipe moves them.
    let counts: Vec<_> = report
        .strategies
        .iter()
        .map(|s| (s.strategy.as_str(), s.points, s.claimed, s.reachable, s.violations))
        .collect();
    assert_eq!(
        counts,
        [
            ("MGARD", 168, 94, 94, 0),
            ("D-MGARD", 132, 0, 58, 22),
            ("E-MGARD", 132, 88, 58, 10),
            ("DE-MGARD", 132, 88, 58, 17),
        ],
        "strategy, points, claimed, reachable, violations"
    );

    // The learned strategies exist to fetch less than theory at comparable
    // accuracy; the corpus-level means should reflect that.
    let theory_fetch = theory.mean_fraction_fetched;
    let emgard = report.strategies.iter().find(|s| s.strategy == "E-MGARD").expect("emgard row");
    assert!(
        emgard.mean_fraction_fetched <= theory_fetch * 1.05,
        "E-MGARD fetched {} vs theory {}",
        emgard.mean_fraction_fetched,
        theory_fetch
    );
}

#[test]
fn report_serialises_to_parseable_json() {
    let report = report();
    let text = pmr_conformance::report_json(&report, "quick");
    let parsed = pmr_json::parse(&text).expect("report JSON must parse");
    assert_eq!(parsed.get("grid").and_then(|g| g.as_str()), Some("quick"));
    let inner = parsed.get("report").expect("report object");
    assert_eq!(inner.get("strategies").and_then(|s| s.as_arr()).map(|a| a.len()), Some(4));
}
