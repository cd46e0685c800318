//! Contract tests for the one policy surface (`gillis_faas::knobs`): the
//! versioned `key=value` text and the `GILLIS_*` environment names are two
//! sources for one reader over each family's knob table.
//!
//! Every family promises the same contract: reading **returns an error** on
//! malformed input (bad header, missing `=`, unknown key or domain,
//! unparsable or out-of-range value, invalid combination) and the error
//! names the variable; it never panics; a family whose enabler is unset is
//! `Ok(None)`, never a silently dropped `Err`; `from_text(to_text(p)) == p`;
//! and the environment and the text agree on the same `name=value` pairs.
//! The table-driven sweep below checks that row by row against literals
//! recorded from the hand-written readers this table replaced, so a new
//! knob cannot be added without a sample here. Nothing in this file touches
//! the process environment: every reader is driven through a closure.

use std::fmt::Debug;

use gillis_faas::envutil::parse_value;
use gillis_faas::{
    BatchPolicy, BreakerPolicy, BrownoutPolicy, ChaosConfig, Knobs, OutageConfig, OverloadPolicy,
    PipelinePolicy, PolicyStack, RecoveryPolicy, ResiliencePolicy, RetryBudgetPolicy, SloClass,
};
use proptest::prelude::*;

/// A knob source over literal `(name, value)` pairs.
fn source<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
    move |name| {
        let hit = pairs.iter().find(|(n, _)| *n == name);
        hit.map(|(_, v)| (*v).to_string())
    }
}

/// The sweep over one family. `baseline` is the enabler plus whatever
/// companions make every single-row variation valid; `samples` gives every
/// environment row a valid non-default value, enabler first; `enabled` and
/// `all` are what the parent commit's hand-written `from_env` returned for
/// the enabler alone and for every sample set.
fn sweep<P: Knobs + PartialEq + Debug>(
    baseline: &[(&str, &str)],
    samples: &[(&str, &str)],
    enabled: P,
    all: P,
) {
    let family = P::FAMILY;
    let env_rows: Vec<_> = P::KNOBS.iter().filter(|r| !r.env.is_empty()).collect();
    let sampled: Vec<&str> = samples.iter().map(|(n, _)| *n).collect();
    let named: Vec<&str> = env_rows.iter().map(|r| r.env).collect();
    assert_eq!(sampled, named, "{family}: one sample per environment row");
    let enabler = samples[0];
    let read = |pairs: &[(&str, &str)]| P::from_lookup(&source(pairs));

    // Enabler unset: off, whatever else is set.
    assert_eq!(read(&samples[1..]), Ok(None), "{family}: no enabler");
    assert_eq!(read(&[]), Ok(None), "{family}: nothing set");
    // Literals from the parent.
    assert_eq!(read(&[enabler]), Ok(Some(enabled)), "{family}: enabler");
    assert_eq!(read(samples).as_ref(), Ok(&Some(all)), "{family}: all set");
    let all = read(samples).unwrap().unwrap();

    for (i, row) in env_rows.iter().enumerate().skip(1) {
        // Exactly this row's value moves when only this row is added.
        let without: Vec<_> = baseline
            .iter()
            .filter(|p| p.0 != row.env)
            .copied()
            .collect();
        let mut with = without.clone();
        with.push(samples[i]);
        let before = read(&without).unwrap().unwrap();
        let after = read(&with).unwrap().unwrap();
        for other in P::KNOBS {
            let moved = (other.get)(&before) != (other.get)(&after);
            assert_eq!(
                moved,
                other.env == row.env,
                "{family}: {} vs {}",
                row.env,
                other.key
            );
        }
        // A malformed value is an error naming the variable and the text.
        with.pop();
        with.push((row.env, "banana"));
        let err = read(&with).unwrap_err().to_string();
        assert!(
            err.contains(row.env) && err.contains("banana"),
            "{family}: {err}"
        );
    }
    let err = read(&[(enabler.0, "banana")]).unwrap_err().to_string();
    assert!(
        err.contains(enabler.0) && err.contains("banana"),
        "{family}: {err}"
    );

    // The text round-trips, and reading the same pairs by key agrees with
    // reading them by environment name.
    let text = Knobs::to_text(&all);
    let back = <P as Knobs>::from_text(&text).unwrap();
    assert_eq!(back, all, "{family}: {text}");
    let keyed: Vec<String> = env_rows
        .iter()
        .zip(samples)
        .filter(|(row, _)| !row.key.is_empty())
        .map(|(row, (_, value))| format!("{}={value}", row.key))
        .collect();
    let by_key = format!("gillis-{family} v1\n{}\n", keyed.join(" "));
    let by_key = <P as Knobs>::from_text(&by_key).unwrap();
    for row in env_rows.iter().filter(|row| !row.key.is_empty()) {
        assert_eq!((row.get)(&by_key), (row.get)(&all), "{family}: {}", row.key);
    }
}

#[test]
fn every_family_reads_every_row_like_the_parent() {
    sweep(
        &[("GILLIS_CHAOS_RATE", "0.3")],
        &[
            ("GILLIS_CHAOS_RATE", "0.3"),
            ("GILLIS_CHAOS_SEED", "77"),
            ("GILLIS_CHAOS_ORCH_RATE", "0.1"),
        ],
        ChaosConfig {
            seed: 3_298_844_397,
            invoke_failure_rate: 0.12,
            crash_rate: 0.12,
            straggler_rate: 0.0,
            straggler_slowdown: 4.0,
            corrupt_rate: 0.06,
            orchestrator_crash_rate: 0.0,
        },
        ChaosConfig {
            seed: 77,
            invoke_failure_rate: 0.12,
            crash_rate: 0.12,
            straggler_rate: 0.0,
            straggler_slowdown: 4.0,
            corrupt_rate: 0.06,
            orchestrator_crash_rate: 0.1,
        },
    );
    sweep(
        // Predictive shedding is only valid next to a deadline.
        &[
            ("GILLIS_OVERLOAD_CONCURRENCY", "4"),
            ("GILLIS_OVERLOAD_DEADLINE_MS", "900"),
        ],
        &[
            ("GILLIS_OVERLOAD_CONCURRENCY", "4"),
            ("GILLIS_OVERLOAD_QUEUE", "64"),
            ("GILLIS_OVERLOAD_DEADLINE_MS", "900"),
            ("GILLIS_OVERLOAD_SHED_PREDICTED", "true"),
            ("GILLIS_OVERLOAD_BREAKER_FAILURES", "2"),
            ("GILLIS_OVERLOAD_BREAKER_COOLDOWN_MS", "100"),
            ("GILLIS_OVERLOAD_BREAKER_PROBES", "2"),
        ],
        OverloadPolicy {
            max_concurrency: 4,
            queue_depth: 8,
            deadline_ms: f64::INFINITY,
            shed_on_predicted_miss: false,
            breaker: BreakerPolicy {
                failure_threshold: 0,
                cooldown_ms: 0.0,
                half_open_probes: 1,
            },
        },
        OverloadPolicy {
            max_concurrency: 4,
            queue_depth: 64,
            deadline_ms: 900.0,
            shed_on_predicted_miss: true,
            breaker: BreakerPolicy {
                failure_threshold: 2,
                cooldown_ms: 100.0,
                half_open_probes: 2,
            },
        },
    );
    let best_effort = SloClass {
        deadline_ms: f64::INFINITY,
        weight: 1.0,
    };
    sweep(
        &[("GILLIS_BATCH_MAX", "8")],
        &[
            ("GILLIS_BATCH_MAX", "8"),
            ("GILLIS_BATCH_CLASSES", "250:1,inf:2"),
            ("GILLIS_BATCH_WINDOW_MS", "30"),
            ("GILLIS_BATCH_MARGIN_MS", "2"),
            ("GILLIS_BATCH_AMORTIZED", "0.3"),
            ("GILLIS_BATCH_MEMORY_MB", "1792,3008"),
        ],
        BatchPolicy {
            classes: vec![best_effort],
            max_batch: 8,
            max_window_ms: 25.0,
            window_margin_ms: 5.0,
            amortized_fraction: 0.25,
            memory_mb: Vec::new(),
        },
        BatchPolicy {
            classes: vec![
                SloClass {
                    deadline_ms: 250.0,
                    weight: 1.0,
                },
                SloClass {
                    weight: 2.0,
                    ..best_effort
                },
            ],
            max_batch: 8,
            max_window_ms: 30.0,
            window_margin_ms: 2.0,
            amortized_fraction: 0.3,
            memory_mb: vec![1792, 3008],
        },
    );
    sweep(
        &[("GILLIS_PIPELINE_LANES", "3")],
        &[
            ("GILLIS_PIPELINE_LANES", "3"),
            ("GILLIS_PIPELINE_QUEUE", "17"),
        ],
        PipelinePolicy {
            lanes: 3,
            queue_depth: 6,
        },
        PipelinePolicy {
            lanes: 3,
            queue_depth: 17,
        },
    );
    sweep(
        &[("GILLIS_OUTAGE_SEVERITY", "6")],
        &[
            ("GILLIS_OUTAGE_SEVERITY", "6"),
            ("GILLIS_OUTAGE_SEED", "5"),
            ("GILLIS_OUTAGE_WINDOW_MS", "100"),
            ("GILLIS_OUTAGE_START_PROB", "0.1"),
            ("GILLIS_OUTAGE_MIN_WINDOWS", "2"),
            ("GILLIS_OUTAGE_MAX_WINDOWS", "6"),
            ("GILLIS_OUTAGE_DOMAINS", "platform,lanes,orch"),
        ],
        OutageConfig {
            seed: 8_023_646,
            window_ms: 250.0,
            start_prob: 0.02,
            min_windows: 4,
            max_windows: 16,
            severity: 6.0,
            platform: true,
            lanes: true,
            memory_tiers: true,
            orchestrators: false,
        },
        OutageConfig {
            seed: 5,
            window_ms: 100.0,
            start_prob: 0.1,
            min_windows: 2,
            max_windows: 6,
            severity: 6.0,
            platform: true,
            lanes: true,
            memory_tiers: false,
            orchestrators: true,
        },
    );
    sweep(
        &[("GILLIS_RETRY_BUDGET_MAX", "8")],
        &[
            ("GILLIS_RETRY_BUDGET_MAX", "8"),
            ("GILLIS_RETRY_BUDGET_INITIAL", "2"),
            ("GILLIS_RETRY_BUDGET_REFILL", "0.5"),
        ],
        RetryBudgetPolicy {
            max_tokens: 8.0,
            initial_tokens: 8.0,
            refill_per_success: 0.1,
        },
        RetryBudgetPolicy {
            max_tokens: 8.0,
            initial_tokens: 2.0,
            refill_per_success: 0.5,
        },
    );
    sweep(
        &[("GILLIS_BROWNOUT_WINDOW", "16")],
        &[
            ("GILLIS_BROWNOUT_WINDOW", "16"),
            ("GILLIS_BROWNOUT_DEGRADE_BELOW", "0.8"),
            ("GILLIS_BROWNOUT_RECOVER_ABOVE", "0.95"),
            ("GILLIS_BROWNOUT_CLEAN_WINDOWS", "1"),
            ("GILLIS_BROWNOUT_PROBE_INTERVAL", "3"),
            ("GILLIS_BROWNOUT_SHED_PROBE_INTERVAL", "2"),
        ],
        BrownoutPolicy {
            window_lanes: 16,
            degrade_below: 0.7,
            recover_above: 0.9,
            clean_windows: 2,
            probe_interval: 4,
            shed_probe_interval: None,
        },
        BrownoutPolicy {
            window_lanes: 16,
            degrade_below: 0.8,
            recover_above: 0.95,
            clean_windows: 1,
            probe_interval: 3,
            shed_probe_interval: Some(2),
        },
    );
    sweep(
        &[("GILLIS_RECOVERY_CAPACITY", "64")],
        &[("GILLIS_RECOVERY_CAPACITY", "64")],
        RecoveryPolicy { capacity: 64 },
        RecoveryPolicy { capacity: 64 },
    );
}

/// An enabler set to its off value configures nothing — and does not go on
/// to complain about the rest of the family.
#[test]
fn an_off_enabler_is_none_not_an_error() {
    for (name, off) in [
        ("GILLIS_CHAOS_RATE", "0"),
        ("GILLIS_CHAOS_RATE", "-1"),
        ("GILLIS_CHAOS_RATE", "NaN"),
        ("GILLIS_OVERLOAD_CONCURRENCY", "0"),
        ("GILLIS_BATCH_MAX", "0"),
        ("GILLIS_PIPELINE_LANES", "0"),
        ("GILLIS_OUTAGE_SEVERITY", "0.5"),
        ("GILLIS_OUTAGE_SEVERITY", "NaN"),
        ("GILLIS_RETRY_BUDGET_MAX", "0"),
        ("GILLIS_RETRY_BUDGET_MAX", "inf"),
        ("GILLIS_BROWNOUT_WINDOW", "0"),
        ("GILLIS_RECOVERY_CAPACITY", "0"),
    ] {
        let stack = PolicyStack::from_lookup(&source(&[(name, off)]));
        assert_eq!(stack, Ok(PolicyStack::default()), "{name}={off}");
    }
    let zero_with_garbage = [("GILLIS_CHAOS_RATE", "0"), ("GILLIS_CHAOS_SEED", "banana")];
    assert_eq!(
        ChaosConfig::from_lookup(&source(&zero_with_garbage)),
        Ok(None)
    );
}

/// Regression: a set-but-invalid family used to disable itself without a
/// word (`validate().ok()`), or come back unvalidated and fail later inside
/// `with_*`. Each of these is now an `Err` that names what was set.
#[test]
fn a_set_but_invalid_family_is_an_error_naming_the_variables() {
    let cases: &[&[(&str, &str)]] = &[
        &[
            ("GILLIS_OVERLOAD_CONCURRENCY", "4"),
            ("GILLIS_OVERLOAD_SHED_PREDICTED", "true"),
        ],
        &[
            ("GILLIS_PIPELINE_LANES", "2"),
            ("GILLIS_PIPELINE_QUEUE", "0"),
        ],
        &[("GILLIS_BATCH_MAX", "4"), ("GILLIS_BATCH_AMORTIZED", "7")],
        &[
            ("GILLIS_RETRY_BUDGET_MAX", "4"),
            ("GILLIS_RETRY_BUDGET_REFILL", "-1"),
        ],
        &[
            ("GILLIS_BROWNOUT_WINDOW", "8"),
            ("GILLIS_BROWNOUT_DEGRADE_BELOW", "2"),
        ],
        &[
            ("GILLIS_BATCH_MAX", "4"),
            ("GILLIS_BATCH_MEMORY_MB", "512,abc"),
        ],
        &[
            ("GILLIS_CHAOS_RATE", "0.1"),
            ("GILLIS_CHAOS_ORCH_RATE", "NaN"),
        ],
    ];
    for pairs in cases {
        let err = PolicyStack::from_lookup(&source(pairs))
            .unwrap_err()
            .to_string();
        let (name, value) = pairs[1];
        assert!(
            err.contains(name) && err.contains(value),
            "{pairs:?}: {err}"
        );
    }
}

/// One `GILLIS_OUTAGE_DOMAINS` parser: the environment and the text accept
/// the same names and both reject an unknown one.
#[test]
fn outage_domains_parse_the_same_from_both_sources() {
    let env = |spec| {
        let pairs = [
            ("GILLIS_OUTAGE_SEVERITY", "8"),
            ("GILLIS_OUTAGE_DOMAINS", spec),
        ];
        let config = OutageConfig::from_lookup(&source(&pairs));
        config
    };
    let text =
        |spec| OutageConfig::from_text(&format!("gillis-outage v1\nseverity=8 domains={spec}\n"));
    for spec in [
        "platform",
        "lane,tier",
        "lanes,tiers",
        "memory,orch",
        "orchestrators",
        "platform,lane,tier,orchestrator",
    ] {
        assert_eq!(env(spec), text(spec).map(Some), "{spec}");
    }
    let only_orch = env("orchestrator").unwrap().unwrap();
    assert!(only_orch.orchestrators && !only_orch.platform && !only_orch.lanes);
    for err in [env("lanez").unwrap_err(), text("lanez").unwrap_err()] {
        assert!(err.to_string().contains("lanez"), "{err}");
    }
}

/// The stack prints the section of every family in force — what
/// `gillis serve` shows the operator — and each section parses back.
#[test]
fn the_stack_prints_what_is_in_force() {
    let calm = PolicyStack::default().to_text();
    assert_eq!(calm, ResiliencePolicy::default().to_text());
    let pairs = [
        ("GILLIS_CHAOS_RATE", "0.05"),
        ("GILLIS_OUTAGE_SEVERITY", "8"),
        ("GILLIS_RETRY_BUDGET_MAX", "16"),
        ("GILLIS_BROWNOUT_WINDOW", "32"),
    ];
    let stack = PolicyStack::from_lookup(&source(&pairs)).unwrap();
    assert!(stack.validate().is_ok());
    let text = stack.to_text();
    let headers: Vec<&str> = text.lines().filter(|l| l.starts_with("gillis-")).collect();
    assert_eq!(
        headers,
        [
            "gillis-chaos v1",
            "gillis-resilience v1",
            "gillis-outage v1",
            "gillis-retry-budget v1",
            "gillis-brownout v1"
        ]
    );
    let sections: Vec<String> = text
        .split_inclusive('\n')
        .collect::<Vec<_>>()
        .chunks(2)
        .map(|c| c.concat())
        .collect();
    assert_eq!(ChaosConfig::from_text(&sections[0]).ok(), stack.chaos);
    assert_eq!(OutageConfig::from_text(&sections[2]).ok(), stack.outage);
    assert_eq!(
        RetryBudgetPolicy::from_text(&sections[3]).ok(),
        stack.retry_budget
    );
    assert_eq!(BrownoutPolicy::from_text(&sections[4]).ok(), stack.brownout);
    // An invalid member fails the stack's validation.
    let broken = PolicyStack {
        pipeline: Some(PipelinePolicy {
            lanes: 0,
            queue_depth: 1,
        }),
        ..stack
    };
    assert!(broken.validate().is_err());
}

/// README.md's knob table is rendered from the knob tables — one markdown
/// row per environment variable — so a default or a domain list cannot
/// drift from the code again. On a mismatch, paste the printed table
/// between the two markers.
#[test]
fn readme_knob_table_is_generated() {
    fn family<P: Knobs>(out: &mut String) {
        for row in P::KNOBS.iter().filter(|row| !row.env.is_empty()) {
            *out += &format!("| `{}` | {} | {} |\n", row.env, row.default, row.help);
        }
    }
    let mut rendered = String::from("| Variable | Default | Effect |\n|---|---|---|\n");
    family::<ChaosConfig>(&mut rendered);
    family::<OverloadPolicy>(&mut rendered);
    family::<BatchPolicy>(&mut rendered);
    family::<PipelinePolicy>(&mut rendered);
    family::<OutageConfig>(&mut rendered);
    family::<RetryBudgetPolicy>(&mut rendered);
    family::<BrownoutPolicy>(&mut rendered);
    family::<RecoveryPolicy>(&mut rendered);

    let readme = include_str!("../../../README.md");
    let begin = "<!-- knob-table:begin (generated from the knob tables) -->\n";
    let end = "<!-- knob-table:end -->";
    let start = readme.find(begin).expect("begin marker") + begin.len();
    let stop = readme.find(end).expect("end marker");
    assert_eq!(
        &readme[start..stop],
        rendered,
        "README.md is stale; expected:\n{rendered}"
    );
}

/// A text parser by name and header: whether it accepts a text.
type Parser = (&'static str, &'static str, fn(&str) -> bool);

/// Every text parser in the workspace, behind one signature so the
/// never-panics sweep and the malformed-input table drive all of them.
const PARSERS: &[Parser] = &[
    ("batch", "gillis-batch v1", |t| {
        BatchPolicy::from_text(t).is_ok()
    }),
    ("pipeline", "gillis-pipeline v1", |t| {
        PipelinePolicy::from_text(t).is_ok()
    }),
    ("overload", "gillis-overload v1", |t| {
        OverloadPolicy::from_text(t).is_ok()
    }),
    ("outage", "gillis-outage v1", |t| {
        OutageConfig::from_text(t).is_ok()
    }),
    ("resilience", "gillis-resilience v1", |t| {
        ResiliencePolicy::from_text(t).is_ok()
    }),
    ("recovery", "gillis-recovery v1", |t| {
        RecoveryPolicy::from_text(t).is_ok()
    }),
    ("chaos", "gillis-chaos v1", |t| {
        ChaosConfig::from_text(t).is_ok()
    }),
    ("retry-budget", "gillis-retry-budget v1", |t| {
        RetryBudgetPolicy::from_text(t).is_ok()
    }),
    ("brownout", "gillis-brownout v1", |t| {
        BrownoutPolicy::from_text(t).is_ok()
    }),
];

#[test]
fn every_parser_rejects_garbage_with_an_error() {
    for (name, header, parse_ok) in PARSERS {
        // Empty input and wrong headers are errors, not panics.
        assert!(!parse_ok(""), "{name}: empty text must be rejected");
        assert!(!parse_ok("not a policy"), "{name}: bad header");
        assert!(
            !parse_ok("gillis-recovery v99\n"),
            "{name}: unknown version"
        );
        // Past the header: a token without `=`, an unknown key, and an
        // unparsable value each produce a descriptive error.
        assert!(
            !parse_ok(&format!("{header}\nnot-a-kv-token\n")),
            "{name}: missing '='"
        );
        assert!(
            !parse_ok(&format!("{header}\nbogus_key=1\n")),
            "{name}: unknown key"
        );
    }
}

#[test]
fn every_parser_round_trips_a_representative_policy() {
    let batch = BatchPolicy::batch_one();
    assert_eq!(BatchPolicy::from_text(&batch.to_text()).unwrap(), batch);

    let pipeline = PipelinePolicy::with_lanes(3);
    assert_eq!(
        PipelinePolicy::from_text(&pipeline.to_text()).unwrap(),
        pipeline
    );

    let overload = OverloadPolicy::for_slo(500.0, 8);
    assert_eq!(
        OverloadPolicy::from_text(&overload.to_text()).unwrap(),
        overload
    );

    let outage = OutageConfig::severe(8.0, 21);
    assert_eq!(OutageConfig::from_text(&outage.to_text()).unwrap(), outage);

    let resilience = ResiliencePolicy::default();
    assert_eq!(
        ResiliencePolicy::from_text(&resilience.to_text()).unwrap(),
        resilience
    );

    let recovery = RecoveryPolicy::default();
    assert_eq!(
        RecoveryPolicy::from_text(&recovery.to_text()).unwrap(),
        recovery
    );
}

#[test]
fn recovery_text_rejects_out_of_range_knobs() {
    // A value that parses as a number but fails validation surfaces the
    // validation error instead of producing an unusable policy; the keys of
    // the removed TTL, failover and speculation knobs are unknown keys.
    for (bad, named) in [
        ("gillis-recovery v1\ncapacity=0\n", "capacity"),
        ("gillis-recovery v1\ncapacity=many\n", "many"),
        ("gillis-recovery v1\nttl_ms=5\n", "ttl_ms"),
        ("gillis-recovery v1\nspec_factor=2\n", "spec_factor"),
        (
            "gillis-recovery v1\nmax_speculations=2\n",
            "max_speculations",
        ),
        ("gillis-recovery v1\nfailover_ms=10\n", "failover_ms"),
    ] {
        let err = RecoveryPolicy::from_text(bad).unwrap_err().to_string();
        assert!(err.contains(named), "{bad:?}: {err}");
    }
}

proptest! {
    /// No text parser panics on arbitrary input — neither on raw garbage
    /// nor on a valid header followed by arbitrary body bytes (the path
    /// that exercises token splitting and value parsing).
    #[test]
    fn parsers_never_panic_on_arbitrary_text(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        for (_, header, parse_ok) in PARSERS {
            let _ = parse_ok(&text);
            let _ = parse_ok(&format!("{header}\n{text}"));
        }
    }

    /// `RecoveryPolicy` text round-trips exactly over its whole valid
    /// domain.
    #[test]
    fn recovery_policy_text_round_trips(capacity in 1usize..100_000) {
        let policy = RecoveryPolicy { capacity };
        prop_assert!(policy.validate().is_ok());
        let text = policy.to_text();
        let parsed = RecoveryPolicy::from_text(&text).unwrap();
        prop_assert_eq!(policy, parsed, "{}", text);
    }
}

/// One knob per `GILLIS_*` family: a malformed value yields a descriptive
/// error that names the variable and echoes the rejected input, so the
/// `env_var` wrapper's stderr warning tells the operator which knob was
/// ignored (the old readers swallowed typos silently).
#[test]
fn malformed_env_knobs_name_the_variable() {
    let cases: &[(&str, &str, bool)] = &[
        (
            "GILLIS_CHAOS_RATE",
            "0.0.5",
            parse_value::<f64>("GILLIS_CHAOS_RATE", "0.0.5").is_err(),
        ),
        (
            "GILLIS_OVERLOAD_CONCURRENCY",
            "four",
            parse_value::<usize>("GILLIS_OVERLOAD_CONCURRENCY", "four").is_err(),
        ),
        (
            "GILLIS_BATCH_MAX",
            "8x",
            parse_value::<usize>("GILLIS_BATCH_MAX", "8x").is_err(),
        ),
        (
            "GILLIS_PIPELINE_LANES",
            "-2",
            parse_value::<usize>("GILLIS_PIPELINE_LANES", "-2").is_err(),
        ),
        (
            "GILLIS_RETRY_BUDGET_MAX",
            "ten",
            parse_value::<f64>("GILLIS_RETRY_BUDGET_MAX", "ten").is_err(),
        ),
        (
            "GILLIS_BROWNOUT_WINDOW",
            "250ms",
            parse_value::<f64>("GILLIS_BROWNOUT_WINDOW", "250ms").is_err(),
        ),
        (
            "GILLIS_RECOVERY_CAPACITY",
            "0.5",
            parse_value::<usize>("GILLIS_RECOVERY_CAPACITY", "0.5").is_err(),
        ),
        (
            "GILLIS_OUTAGE_SEVERITY",
            "severe",
            parse_value::<f64>("GILLIS_OUTAGE_SEVERITY", "severe").is_err(),
        ),
    ];
    for (name, raw, rejected) in cases {
        assert!(rejected, "{name}={raw} should fail to parse");
        let msg = match *name {
            "GILLIS_OVERLOAD_CONCURRENCY"
            | "GILLIS_BATCH_MAX"
            | "GILLIS_PIPELINE_LANES"
            | "GILLIS_RECOVERY_CAPACITY" => parse_value::<usize>(name, raw).unwrap_err(),
            _ => parse_value::<f64>(name, raw).unwrap_err(),
        };
        assert!(msg.contains(name), "error {msg:?} must name {name}");
        assert!(
            msg.contains(raw),
            "error {msg:?} must echo the rejected input {raw:?}"
        );
    }
}

#[test]
fn well_formed_env_values_parse_with_whitespace_tolerance() {
    assert_eq!(parse_value::<f64>("GILLIS_CHAOS_RATE", " 0.05 "), Ok(0.05));
    assert_eq!(
        parse_value::<usize>("GILLIS_RECOVERY_CAPACITY", "256"),
        Ok(256)
    );
    assert_eq!(
        parse_value::<f64>("GILLIS_RETRY_BUDGET_MAX", "inf"),
        Ok(f64::INFINITY)
    );
}
