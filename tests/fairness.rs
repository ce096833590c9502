//! Integration tests of the proportional-sharing guarantees across the
//! full stack: two I/O-bound applications contending on every datanode.

use ibis::core::SfqD2Config;
use ibis::mapreduce::InputSpec;
use ibis::prelude::*;
use ibis::simcore::units::GIB;

/// Two identical I/O-bound generator jobs with the given weights; returns
/// their delivered I/O service (bytes) when the first finishes — measured
/// by stopping at equal volumes and comparing runtimes instead: simpler
/// and robust, we compare *service rates* via runtimes of equal jobs.
fn contended_runtimes(w1: f64, w2: f64, policy: Policy) -> (f64, f64) {
    let coordinated = policy.coordinates();
    let cfg = ClusterConfig::default()
        .with_policy(policy)
        .with_coordination(coordinated);
    let mut exp = Experiment::new(cfg);
    let gen = |name: &str, w: f64| ibis::mapreduce::JobSpec {
        input: InputSpec::None { maps: 96 },
        map_output_ratio: 1.0,
        map_cpu_rate: 400e6,
        reduces: 0,
        io_weight: w,
        max_slots: Some(48),
        ..ibis::mapreduce::JobSpec::named(name)
    };
    exp.add_job(gen("gen-a", w1));
    exp.add_job(gen("gen-b", w2));
    let r = exp.run();
    (
        r.runtime_secs("gen-a").unwrap(),
        r.runtime_secs("gen-b").unwrap(),
    )
}

#[test]
fn equal_weights_give_equal_progress() {
    let (a, b) = contended_runtimes(1.0, 1.0, Policy::SfqD { depth: 4 });
    let ratio = a / b;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "equal-weight jobs diverged: {a:.1}s vs {b:.1}s"
    );
}

#[test]
fn weighted_flows_finish_in_weight_order() {
    // 4:1 weights: the favoured job must finish markedly earlier.
    let (fav, rest) = contended_runtimes(4.0, 1.0, Policy::SfqD { depth: 4 });
    assert!(
        fav < 0.8 * rest,
        "weight 4 job ({fav:.1}s) not ahead of weight 1 job ({rest:.1}s)"
    );
}

#[test]
fn sfqd2_matches_static_sfq_fairness() {
    let (fav, rest) = contended_runtimes(4.0, 1.0, Policy::SfqD2(SfqD2Config::default()));
    assert!(
        fav < 0.8 * rest,
        "SFQ(D2) lost the weight ordering: {fav:.1}s vs {rest:.1}s"
    );
}

#[test]
fn native_ignores_weights() {
    let (a, b) = contended_runtimes(32.0, 1.0, Policy::Native);
    let ratio = a / b;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "native should not differentiate: {a:.1}s vs {b:.1}s"
    );
}

#[test]
fn work_conservation_under_ibis() {
    // Adding a second job must increase total delivered service per unit
    // time (the spare bandwidth is consumed), and the favoured job's
    // protection must not idle the storage.
    let one = {
        let mut exp = Experiment::new(
            ClusterConfig::default().with_policy(Policy::SfqD2(SfqD2Config::default())),
        );
        exp.add_job(teragen(8 * GIB).max_slots(48));
        let r = exp.run();
        r.mean_total_throughput()
    };
    let two = {
        let mut exp = Experiment::new(
            ClusterConfig::default().with_policy(Policy::SfqD2(SfqD2Config::default())),
        );
        exp.add_job(teragen(8 * GIB).max_slots(48).io_weight(32.0));
        exp.add_job(teragen(8 * GIB).max_slots(48).io_weight(1.0));
        let r = exp.run();
        r.mean_total_throughput()
    };
    assert!(
        two > 0.9 * one,
        "two writers should sustain cluster throughput: {one:.0} vs {two:.0}"
    );
}

#[test]
fn service_accounting_matches_weights_under_saturation() {
    // While both generators are backlogged everywhere, delivered service
    // should track the 3:1 weight ratio within tolerance. Compare service
    // up to the favoured job's completion via runtimes: the favoured job
    // moves the same bytes in ~(1+1/3)/(2) of the time… simpler: its
    // runtime ratio must reflect a >2x service rate advantage.
    let (fav, rest) = contended_runtimes(3.0, 1.0, Policy::SfqD { depth: 2 });
    // Favoured job gets 3/4 of service while both run → finishes at
    // t ≈ 4/3 of its alone-time; the other continues afterwards at full
    // speed. Expect rest/fav well above 1.3.
    assert!(
        rest / fav > 1.3,
        "service skew too weak for 3:1: fav {fav:.1}s rest {rest:.1}s"
    );
}
