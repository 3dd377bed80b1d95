//! Unit tests for the benchmark's own derivations: the percentile choice,
//! the step histogram, every ratio with its base, the failure accounting
//! and the trace-coverage sum.

use perfbench::{
    beyond, median, rank, supported, tally, Ledger, Log2Hist, Outcome, Ratio, Tracer, MIN_BEYOND,
};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.5]), 7.5);
}

#[test]
#[should_panic(expected = "median of no samples")]
fn median_of_nothing_is_a_bug() {
    median(&[]);
}

#[test]
fn percentile_ranks_use_exact_integer_arithmetic() {
    // 0.9999 * 100_000 in floating point rounds up past 99_990.
    assert_eq!(rank(100_000, 999_900), 99_990);
    assert_eq!(beyond(100_000, 999_900), 10);
    assert_eq!(rank(100, 500_000), 50);
    assert_eq!(rank(101, 500_000), 51);
    assert_eq!(rank(1, 999_900), 1);
    assert_eq!(rank(0, 500_000), 1, "clamped; callers check count first");
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(MIN_BEYOND, 10);
    // p99.99 needs 100,000 samples: exactly ten beyond rank 99,990.
    assert!(supported(100_000, 999_900));
    assert!(!supported(99_999, 999_900));
    // p99 needs 1,000; the median needs 20.
    assert!(supported(1_000, 990_000));
    assert!(!supported(999, 990_000));
    assert!(supported(20, 500_000));
    assert!(!supported(19, 500_000));
    // A run of the smallest workload has millions of steps.
    assert!(supported(7_102_815, 999_900));
}

#[test]
fn log2_histogram_interpolates_inside_the_rank_bucket() {
    let mut h = Log2Hist::default();
    assert_eq!(h.quantile(500_000), None);
    // 100 samples in [64, 128): the median sits half way through.
    for _ in 0..100 {
        h.record(100);
    }
    assert_eq!(h.count(), 100);
    assert_eq!(h.quantile(500_000), Some(96.0));
    assert_eq!(h.quantile(1_000_000), Some(128.0));
    // 0 and 1 share bucket [0, 2).
    let mut low = Log2Hist::default();
    low.record(0);
    low.record(1);
    assert_eq!(low.quantile(1_000_000), Some(2.0));
}

#[test]
fn log2_histogram_tail() {
    let mut a = Log2Hist::default();
    for _ in 0..990 {
        a.record(200);
    }
    for _ in 0..10 {
        a.record(5_000);
    }
    assert_eq!(a.count(), 1_000);
    // Rank 990 is the last sample of [128, 256); rank 1000 closes [4096, 8192).
    assert_eq!(a.quantile(990_000), Some(256.0));
    assert_eq!(a.quantile(1_000_000), Some(8192.0));
    let p50 = a.quantile(500_000).expect("non-empty");
    assert!((128.0..256.0).contains(&p50), "{p50}");
}

#[test]
fn ratio_keeps_its_base_and_refuses_a_zero_one() {
    let r = Ratio::of(3.0, 4.0);
    assert_eq!((r.num, r.base, r.value()), (3.0, 4.0, Some(0.75)));
    assert_eq!(Ratio::of(1.0, 0.0).value(), None);
    assert_eq!(Ratio::of(0.0, 0.0).value(), None);
    assert_eq!(Ratio::of(f64::NAN, 1.0).value(), None);
}

#[test]
fn every_ledger_ratio_names_its_numerator_and_base() {
    let l = Ledger {
        events_popped: 900.0,
        events_scheduled: 1_000.0,
        rx_planned: 800.0,
        rx_lost: 24.0,
        broadcasts: 100.0,
        frames_received: 2_000.0,
        aodv_dups: 500.0,
        conns_established: 40.0,
        conns_closed: 30.0,
        issued: 50.0,
        answered: 20.0,
        oracle_est_s: 3.0,
        run_on_s: 6.0,
        run_off_s: 5.0,
        obs_spans_s: 6.6,
        traced_s: 7.2,
    };
    let expect: [(&str, f64, f64, f64); 10] = [
        ("des.stale_ratio", 100.0, 1_000.0, 0.1),
        ("radio.loss_ratio", 24.0, 800.0, 0.03),
        ("radio.fanout_mean", 800.0, 100.0, 8.0),
        ("aodv.dup_ratio", 500.0, 2_000.0, 0.25),
        ("overlay.close_ratio", 30.0, 40.0, 0.75),
        ("query.answered_share", 20.0, 50.0, 0.4),
        ("metrics.oracle_share", 3.0, 6.0, 0.5),
        ("obs.tax_ratio", 6.0, 5.0, 1.2),
        ("obs.span_coverage", 6.6, 6.0, 1.1),
        ("trace.overhead_ratio", 7.2, 6.0, 1.2),
    ];
    let got = l.ratios();
    assert_eq!(got.len(), expect.len());
    for ((name, ratio), (e_name, num, base, value)) in got.iter().zip(expect) {
        assert_eq!(*name, e_name);
        assert_eq!((ratio.num, ratio.base), (num, base), "{name}");
        let v = ratio.value().expect("non-zero base");
        assert!((v - value).abs() < 1e-12, "{name}: {v} != {value}");
    }
    // An empty ledger has no ratio to report.
    assert!(Ledger::default()
        .ratios()
        .iter()
        .all(|(_, r)| r.value().is_none()));
}

#[test]
fn failure_accounting_counts_every_issued_query_once() {
    let t = tally(&[
        Outcome {
            issued: 100,
            answered: 60,
            correct: true,
        },
        Outcome {
            issued: 50,
            answered: 50,
            correct: true,
        },
        Outcome {
            issued: 30,
            answered: 29,
            correct: false,
        },
    ]);
    assert_eq!(t.attempted, 180);
    // The incorrect run fails all 30 of its queries, answered or not.
    assert_eq!(t.failed, 30);
    // Unanswered queries of correct runs are reported, not failed.
    assert_eq!(t.unanswered, 40);
    assert_eq!(t.failed + t.unanswered + 60 + 50, t.attempted);
    assert_eq!(tally(&[]).attempted, 0);
}

#[test]
fn coverage_sums_direct_children_only() {
    let mut t = Tracer::new();
    let root = t.record("workload", None, 0, 1_000);
    let a = t.record("sim.step_batch", Some(root), 0, 400);
    t.record("graph.connectivity", Some(root), 400, 700);
    // A grandchild must not be counted twice.
    t.record("inner", Some(a), 100, 300);
    let c = t.coverage(root);
    assert_eq!((c.num, c.base), (700.0, 1_000.0));
    assert_eq!(c.value(), Some(0.7));
    assert_eq!(t.coverage(a).value(), Some(0.5));
}

#[test]
fn live_spans_nest_inside_their_parent() {
    let mut t = Tracer::new();
    let root = t.open("workload", None);
    let child = t.open("sim.finish", Some(root));
    std::hint::black_box((0..10_000u64).sum::<u64>());
    t.close(child);
    t.close(root);
    let spans = t.spans();
    assert!(spans[root].start_ns <= spans[child].start_ns);
    assert!(spans[child].end_ns <= spans[root].end_ns);
    let cov = t.coverage(root).value().unwrap_or(1.0);
    assert!((0.0..=1.0).contains(&cov), "{cov}");
    let json = t.to_json();
    assert!(
        json.contains("\"name\": \"sim.finish\", \"parent\": 0"),
        "{json}"
    );
}
