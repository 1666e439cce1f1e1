//! Every reply body survives the trip from the server's encoder to the
//! client's decoder unchanged: both ends use `maleva-wire`'s types, so
//! there is no second copy of a body to drift out of step.

use std::fmt::Debug;

use maleva_client::{info, ClientError};
use maleva_serve::protocol::encode_score;
use maleva_wire::{
    encode, Body, ErrorBody, HealthReport, MetricsSnapshot, ReloadAck, ScoreResponse,
    SentinelClientReport, SentinelReport, SloAlarmReport, SloReport, SloWindowReport, Stats,
};
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A string exercising the encoder's escapes and multi-byte UTF-8.
fn text(rng: &mut ChaCha8Rng) -> String {
    const ALPHABET: [char; 10] = ['a', 'Z', '7', '-', ' ', '"', '\\', '\n', '\u{1}', 'é'];
    (0..rng.gen_range(0..12usize))
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

/// Finite floats of every shape the writer distinguishes: zero,
/// integral, fractional, large, negative.
fn float(rng: &mut ChaCha8Rng) -> f64 {
    match rng.gen_range(0..5u32) {
        0 => 0.0,
        1 => rng.gen_range(0..1_000u32) as f64,
        2 => rng.gen::<f64>(),
        3 => rng.gen_range(-1e18..1e18),
        _ => rng.gen::<f64>() * 1e-300,
    }
}

fn count(rng: &mut ChaCha8Rng) -> u64 {
    if rng.gen_bool(0.1) {
        u64::MAX
    } else {
        rng.gen_range(0..1_000_000u64)
    }
}

fn counts(rng: &mut ChaCha8Rng, len: usize) -> Vec<u64> {
    (0..len).map(|_| count(rng)).collect()
}

fn snapshot(rng: &mut ChaCha8Rng) -> MetricsSnapshot {
    MetricsSnapshot {
        requests: count(rng),
        batches: count(rng),
        rows_scored: count(rng),
        cache_hits: count(rng),
        cache_misses: count(rng),
        cache_hit_rate: float(rng),
        cache_entries: rng.gen_range(0..5_000usize),
        errors: count(rng),
        overloaded: count(rng),
        shed: count(rng),
        deadline_exceeded: count(rng),
        scorer_panics: count(rng),
        row_failures: count(rng),
        faults_injected: count(rng),
        sentinel_throttled: count(rng),
        sentinel_poisoned: count(rng),
        sentinel_near_duplicates: count(rng),
        sentinel_verdict_flips: count(rng),
        sentinel_flagged: count(rng),
        sentinel_tracked_clients: count(rng),
        queue_depth: count(rng),
        mean_batch_size: float(rng),
        p50_latency_us: count(rng),
        p99_latency_us: count(rng),
        latency_buckets_us: counts(rng, 32),
        batch_size_buckets: counts(rng, 32),
        latency_sum_us: count(rng),
        batch_size_sum: count(rng),
        stage_buckets_us: (0..6).map(|_| counts(rng, 32)).collect(),
        stage_sums_us: counts(rng, 6),
    }
}

fn sentinel(rng: &mut ChaCha8Rng) -> SentinelReport {
    let clients: Vec<SentinelClientReport> = (0..rng.gen_range(0..4usize))
        .map(|_| SentinelClientReport {
            client_id: text(rng),
            queries: count(rng),
            near_duplicates: count(rng),
            verdict_flips: count(rng),
            window_near_duplicates: rng.gen_range(0..512usize),
            window_verdict_flips: rng.gen_range(0..512usize),
            flagged: rng.gen_bool(0.5),
            flagged_at_query: count(rng),
            throttled: count(rng),
            poisoned: count(rng),
            observed_rps: float(rng),
        })
        .collect();
    SentinelReport {
        enabled: rng.gen_bool(0.5),
        action: text(rng),
        tracked_clients: clients.len(),
        flagged_clients: clients.iter().filter(|c| c.flagged).count(),
        clients,
    }
}

fn slo(rng: &mut ChaCha8Rng) -> SloReport {
    SloReport {
        evaluated_at_ms: count(rng),
        alarms: (0..rng.gen_range(0..4usize))
            .map(|_| SloAlarmReport {
                name: text(rng),
                firing: rng.gen_bool(0.5),
                changed: rng.gen_bool(0.5),
                windows: (0..rng.gen_range(0..3usize))
                    .map(|_| SloWindowReport {
                        window_ms: count(rng),
                        max_burn_rate: float(rng),
                        burn_rate: float(rng),
                        covered: rng.gen_bool(0.5),
                        bad: count(rng),
                        total: count(rng),
                    })
                    .collect(),
            })
            .collect(),
    }
}

fn decoded<B: Body>(line: &str) -> B {
    info::decode(line).unwrap_or_else(|e| panic!("{line}: {e}"))
}

fn round_trips<B: Body + PartialEq + Debug>(body: &B) -> Result<(), TestCaseError> {
    let line = encode(body);
    prop_assert!(!line.contains('\n'), "{line}");
    prop_assert_eq!(&decoded::<B>(&line), body, "{}", line);
    Ok(())
}

proptest! {
    #[test]
    fn every_reply_body_round_trips_from_server_to_client(seed in any::<u64>()) {
        let rng = &mut ChaCha8Rng::seed_from_u64(seed);

        // Score replies, before (no `generation` key) and after a reload.
        let generation = if rng.gen_bool(0.5) { 0 } else { rng.gen_range(1..u64::MAX) };
        let score = ScoreResponse::new(rng.gen::<f64>(), rng.gen_bool(0.5), rng.gen_range(0..256usize))
            .with_generation(generation);
        let line = encode_score(&score);
        prop_assert_eq!(line.contains("\"generation\""), generation > 0, "{}", line);
        prop_assert_eq!(decoded::<ScoreResponse>(&line), score);

        // Error bodies, with and without `retry_after_ms`, surface as the
        // same typed server error whatever body the caller expected.
        let error = ErrorBody {
            kind: text(rng),
            detail: text(rng),
            retryable: rng.gen_bool(0.5),
            retry_after_ms: rng.gen_bool(0.5).then(|| count(rng)),
        };
        let line = encode(&error);
        prop_assert_eq!(line.contains("retry_after_ms"), error.retry_after_ms.is_some());
        let want = ClientError::Server {
            kind: error.kind.clone(),
            detail: error.detail.clone(),
            retryable: error.retryable,
            retry_after_ms: error.retry_after_ms,
        };
        prop_assert_eq!(info::decode::<ScoreResponse>(&line).unwrap_err(), want.clone());
        prop_assert_eq!(info::decode::<HealthReport>(&line).unwrap_err(), want);

        round_trips(&HealthReport {
            status: text(rng),
            draining: rng.gen_bool(0.5),
            queue_depth: count(rng),
            shed_depth: count(rng),
            deadline_ms: count(rng),
            scorer_panics: count(rng),
            row_failures: count(rng),
            overloaded: count(rng),
            deadline_exceeded: count(rng),
            model_generation: count(rng),
            faults: (0..rng.gen_range(0..4usize)).map(|_| (text(rng), count(rng))).collect(),
        })?;
        round_trips(&ReloadAck { generation: count(rng), params: count(rng) })?;
        round_trips(&Stats {
            merged: snapshot(rng),
            shards: (0..rng.gen_range(0..5usize)).map(|_| snapshot(rng)).collect(),
        })?;
        round_trips(&sentinel(rng))?;
        round_trips(&slo(rng))?;
    }
}
