//! Property-based tests of the platform simulator's invariants.

use proptest::prelude::*;

use gillis_faas::billing::billed_ms;
use gillis_faas::des::EventQueue;
use gillis_faas::fleet::{Fleet, FunctionSpec};
use gillis_faas::overload::{BreakerPolicy, OverloadPolicy};
use gillis_faas::{ExGaussian, Micros, PlatformProfile};

proptest! {
    #[test]
    fn event_queue_pops_in_time_order_fifo_ties(
        events in prop::collection::vec((0u64..1000, any::<u16>()), 1..200)
    ) {
        let mut q = EventQueue::new();
        for (i, &(t, payload)) in events.iter().enumerate() {
            q.push(Micros(t), (i, payload));
        }
        let mut last: Option<(Micros, usize)> = None;
        let mut popped = 0;
        while let Some((t, (seq, _))) = q.pop() {
            popped += 1;
            if let Some((lt, lseq)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(seq > lseq, "FIFO violated among ties");
                }
            }
            last = Some((t, seq));
        }
        prop_assert_eq!(popped, events.len());
    }

    #[test]
    fn billing_rounds_up_within_one_granule(
        duration in 0.0f64..1e6,
        granularity in 1u64..500,
    ) {
        let billed = billed_ms(duration, granularity);
        prop_assert!(billed as f64 >= duration);
        if duration > 0.0 {
            prop_assert!((billed as f64) < duration + granularity as f64);
            prop_assert_eq!(billed % granularity, 0);
        }
    }

    #[test]
    fn billing_is_monotone_in_duration(
        a in 0.0f64..1e5,
        b in 0.0f64..1e5,
        granularity in 1u64..500,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(billed_ms(lo, granularity) <= billed_ms(hi, granularity));
    }

    #[test]
    fn exgaussian_cdf_is_monotone_for_random_params(
        mu in -10.0f64..50.0,
        sigma in 0.1f64..10.0,
        rate in 0.01f64..5.0,
        xs in prop::collection::vec(-50.0f64..200.0, 2..40),
    ) {
        let d = ExGaussian::new(mu, sigma, rate).unwrap();
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Tolerance matches the erf approximation's absolute error
        // (Abramowitz–Stegun 7.1.26: ~1.5e-7): tail values below that are
        // numerical noise.
        let mut prev = -1e-12;
        for x in sorted {
            let f = d.cdf(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev - 5e-7, "cdf not monotone at {x}");
            prev = f;
        }
    }

    #[test]
    fn expected_max_is_monotone_and_above_mean(
        mu in 0.0f64..20.0,
        sigma in 0.1f64..5.0,
        rate in 0.05f64..2.0,
    ) {
        let d = ExGaussian::new(mu, sigma, rate).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for n in [1usize, 2, 4, 8] {
            let m = d.expected_max(n);
            prop_assert!(m >= prev);
            prev = m;
        }
        prop_assert!(d.expected_max(4) >= d.mean() - 1e-6);
    }

    #[test]
    fn fleet_acquire_release_never_loses_instances(
        script in prop::collection::vec((any::<bool>(), 0u64..10_000), 1..100)
    ) {
        let mut fleet = Fleet::new(PlatformProfile::aws_lambda());
        fleet
            .deploy(FunctionSpec {
                name: "f".into(),
                memory_bytes: 1_000_000_000,
                package_bytes: 1_000,
            })
            .unwrap();
        let mut now = Micros::ZERO;
        let mut held = 0usize;
        for (acquire, dt) in script {
            now += Micros(dt);
            if acquire {
                let a = fleet.acquire("f", now).unwrap();
                prop_assert!(a.ready_at >= now);
                held += 1;
            } else if held > 0 {
                fleet.release("f", now).unwrap();
                held -= 1;
            }
        }
        let (cold, warm, peak) = fleet.stats("f").unwrap();
        // Every start is cold or warm, and the pool never exceeds its peak.
        prop_assert!(cold + warm >= held as u64);
        prop_assert!(peak >= held);
    }

    #[test]
    fn micros_roundtrip_and_ordering(a in 0u64..1_000_000_000, b in 0u64..1_000_000_000) {
        let (ma, mb) = (Micros(a), Micros(b));
        prop_assert_eq!((ma + mb).0, a + b);
        prop_assert_eq!(ma.saturating_sub(mb).0, a.saturating_sub(b));
        prop_assert_eq!(ma < mb, a < b);
        let ms = Micros::from_ms(ma.as_ms());
        prop_assert_eq!(ms, ma);
    }

    /// Any valid overload policy survives a text round trip exactly — the
    /// same contract `ExecutionPlan::to_text`/`from_text` upholds for plans.
    #[test]
    fn overload_policy_text_round_trips_for_all_valid_policies(
        concurrency in 1usize..64,
        bounded_queue in any::<bool>(),
        queue in 0usize..1024,
        has_deadline in any::<bool>(),
        deadline in 1u32..1_000_000,
        shed in any::<bool>(),
        breaker_on in any::<bool>(),
        threshold in 1u32..16,
    ) {
        // Deadlines are drawn as integer quarter-ms so the f64 values
        // round-trip exactly through the decimal text form.
        let policy = OverloadPolicy {
            max_concurrency: concurrency,
            queue_depth: if bounded_queue { queue } else { usize::MAX },
            deadline_ms: if has_deadline {
                f64::from(deadline) * 0.25
            } else {
                f64::INFINITY
            },
            shed_on_predicted_miss: shed && has_deadline,
            breaker: if breaker_on {
                BreakerPolicy {
                    failure_threshold: threshold,
                }
            } else {
                BreakerPolicy::disabled()
            },
        };
        prop_assert!(policy.validate().is_ok());
        let text = policy.to_text();
        let parsed = OverloadPolicy::from_text(&text).unwrap();
        prop_assert_eq!(policy, parsed, "{}", text);
    }
}

proptest! {
    /// The outage schedule is a pure function of (config, domain, time):
    /// probing the same instants in any order, any number of times, or from
    /// freshly built models yields bit-identical multipliers — episode state
    /// never leaks between queries.
    #[test]
    fn outage_multiplier_is_pure_and_order_invariant(
        seed in any::<u64>(),
        severity in 1.0f64..64.0,
        start_prob in 0.01f64..0.5,
        probes in prop::collection::vec(0u64..200_000, 1..60),
    ) {
        use gillis_faas::chaos::OutageConfig;
        let cfg = OutageConfig {
            seed,
            severity,
            start_prob,
            ..OutageConfig::default()
        };
        let model = cfg.build().unwrap();
        let forward: Vec<f64> = probes
            .iter()
            .map(|&t| model.multiplier(t as f64 * 0.1))
            .collect();
        // Reverse order, a second pass, and a freshly built model all agree.
        let fresh = cfg.build().unwrap();
        for (i, &t) in probes.iter().enumerate().rev() {
            let again = model.multiplier(t as f64 * 0.1);
            let other = fresh.multiplier(t as f64 * 0.1);
            prop_assert_eq!(again.to_bits(), forward[i].to_bits());
            prop_assert_eq!(other.to_bits(), forward[i].to_bits());
            // Only the platform domain covers workers: in or out of its
            // episode.
            prop_assert!(again == 1.0 || again == severity, "{again}");
        }
    }

    /// On constant window health the ladder moves monotonically to its
    /// fixed point and then stays there — hysteresis never oscillates.
    #[test]
    fn brownout_ladder_is_monotone_and_never_oscillates_on_constant_health(
        window_lanes in 1u32..64,
        successes_frac in 0.0f64..1.0,
        clean_windows in 1u32..4,
        windows in 8u32..80,
    ) {
        use gillis_faas::brownout::{BrownoutController, BrownoutLevel, BrownoutPolicy};
        let policy = BrownoutPolicy {
            window_lanes,
            clean_windows,
            ..BrownoutPolicy::default()
        };
        let mut ctl = BrownoutController::new(policy);
        let successes = ((f64::from(window_lanes) * successes_frac) as u64)
            .min(u64::from(window_lanes));
        let health = successes as f64 / f64::from(window_lanes);
        let mut trajectory = vec![ctl.level()];
        for _ in 0..windows {
            ctl.observe(u64::from(window_lanes), successes);
            trajectory.push(ctl.level());
        }
        // Monotone: constant health fixes the direction of travel.
        for pair in trajectory.windows(2) {
            if health < policy.degrade_below {
                prop_assert!(pair[1] >= pair[0], "degrading health must not step up");
            } else {
                prop_assert!(pair[1] <= pair[0], "non-degrading health must not step down");
            }
        }
        // Converged: enough windows to cross the whole ladder means the
        // tail of the trajectory is constant (no oscillation).
        if windows > 5 * clean_windows {
            let expect = if health < policy.degrade_below {
                BrownoutLevel::Shed
            } else {
                // Full is the starting level; anything not degrading holds it.
                BrownoutLevel::Full
            };
            prop_assert_eq!(*trajectory.last().unwrap(), expect);
        }
    }

    /// Token accounting: whatever the interleaving of spends and refills,
    /// the bucket stays within [0, max_tokens] and a spend is granted iff a
    /// whole token was available.
    #[test]
    fn retry_budget_tokens_stay_bounded(
        max_tokens in 1.0f64..128.0,
        ops in prop::collection::vec(any::<bool>(), 1..300),
    ) {
        use gillis_faas::budget::{RetryBudget, RetryBudgetPolicy};
        let mut bucket = RetryBudget::new(RetryBudgetPolicy { max_tokens });
        prop_assert_eq!(bucket.tokens(), max_tokens, "a bucket starts full");
        for &spend in &ops {
            let before = bucket.tokens();
            if spend {
                let granted = bucket.try_spend_cost(1.0);
                prop_assert_eq!(granted, before >= 1.0);
                if granted {
                    prop_assert!((bucket.tokens() - (before - 1.0)).abs() < 1e-12);
                } else {
                    prop_assert_eq!(bucket.tokens().to_bits(), before.to_bits());
                }
            } else {
                bucket.refill();
                prop_assert!(bucket.tokens() >= before);
            }
            prop_assert!(bucket.tokens() >= 0.0, "tokens went negative");
            prop_assert!(bucket.tokens() <= max_tokens, "tokens exceeded capacity");
        }
    }
}
