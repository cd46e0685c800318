//! Ablation: order-statistics fork prediction (§IV-A).
//!
//! The paper predicts the delay of forking n workers with the n-th order
//! statistic of the fitted exGaussian. The naive alternative charges the
//! *mean* jitter once. This ablation quantifies how much accuracy the order
//! statistic buys as fan-out grows, and exits 1 unless the order statistic
//! is within 1.5% of the simulated delay at every fan-out and beats the mean
//! at every fan-out above one.

use gillis_bench::{report_claims, Claim, Table};
use gillis_faas::PlatformProfile;
use gillis_perf::PerfModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("Ablation: order-statistics vs mean-jitter fork prediction (Lambda, 1 MB)\n");
    let platform = PlatformProfile::aws_lambda();
    let perf = PerfModel::profiled(&platform, 77);
    let bytes = 1_000_000u64;
    let mut rng = StdRng::seed_from_u64(7);
    let mut table = Table::new(&[
        "workers",
        "actual(ms)",
        "order-stat(ms)",
        "err",
        "mean-based(ms)",
        "err",
    ]);
    let mut os_total = 0.0;
    let mut mean_total = 0.0;
    let (mut within, mut beats_mean) = (true, true);
    let mut errors = Vec::new();
    let ns = [1usize, 2, 4, 8, 16, 32];
    for &n in &ns {
        let mc: f64 = (0..4000)
            .map(|_| {
                let jitter = (0..n)
                    .map(|_| platform.invoke_latency_ms.sample(&mut rng))
                    .fold(f64::NEG_INFINITY, f64::max);
                jitter + platform.transfer_ms(bytes) * n as f64
            })
            .sum::<f64>()
            / 4000.0;
        let order_stat = perf.comm.group_transfer_ms(bytes, n);
        let mean_based =
            perf.comm.jitter().mean() + perf.comm.per_byte_ms() * (bytes * n as u64) as f64;
        let e_os = (order_stat - mc).abs() / mc * 100.0;
        let e_mean = (mean_based - mc).abs() / mc * 100.0;
        os_total += e_os;
        mean_total += e_mean;
        within &= e_os <= 1.5;
        beats_mean &= n == 1 || e_os < e_mean;
        errors.push(format!("n={n} {e_os:.2}% vs {e_mean:.2}%"));
        table.row(vec![
            format!("{n}"),
            format!("{mc:.1}"),
            format!("{order_stat:.1}"),
            format!("{e_os:.1}%"),
            format!("{mean_based:.1}"),
            format!("{e_mean:.1}%"),
        ]);
    }
    table.print();
    println!(
        "\naverage error: order-stat {:.1}% vs mean-based {:.1}%",
        os_total / ns.len() as f64,
        mean_total / ns.len() as f64
    );
    println!("expectation: the mean-based predictor increasingly underestimates fork");
    println!("delay as fan-out grows; the order statistic stays accurate (paper §IV-A).");
    println!("\nclaims:");
    let detail = errors.join(", ");
    let claims = [
        Claim::new(
            "order-statistic error <= 1.5% at every fan-out",
            within,
            detail.clone(),
        ),
        Claim::new(
            "order statistic beats the mean at every fan-out >= 2",
            beats_mean,
            detail,
        ),
    ];
    if report_claims("ablation_order_stats", &claims) > 0 {
        std::process::exit(1);
    }
}
