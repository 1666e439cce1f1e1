//! `maleva-campaign` — live black-box extraction campaigns against a
//! running `maleva-serve` instance.
//!
//! The offline black-box framework (`maleva_core::blackbox`, the
//! paper's Figure 2) answers *can a substitute-model attack evade the
//! detector*. This crate answers the operational question: *what does
//! that attack look like on the wire, and does a deployed defense stop
//! it?* A campaign:
//!
//! 1. spawns (or attaches to) a scoring server wrapping the
//!    experiment's trained detector, with the extraction sentinel
//!    configured on or off;
//! 2. runs the full Papernot substitute pipeline — seed-corpus
//!    labelling, Jacobian-style augmentation, JSMA crafting, rebuilt
//!    program re-scans — with every oracle query answered **over TCP**
//!    by the live server ([`LiveOracle`]), under the same explicit
//!    query budget as the offline run;
//! 3. keeps concurrent benign traffic flowing from worker threads
//!    ([`BenignPool`]), each with its own `client_id`, so defense
//!    false positives are measured, not assumed;
//! 4. emits a serializable [`CampaignReport`]: attack success rate,
//!    queries-to-evasion, per-phase query accounting, whether (and
//!    when) the sentinel flagged the attacker, and the benign
//!    false-throttle count.
//!
//! Because serving is bit-identical to local scanning, a campaign with
//! the sentinel off replays the offline run for the same seed — the
//! substitute agreement and evasion counts match `blackbox::run`
//! exactly. Turning the sentinel on is therefore a controlled
//! experiment: any change in attacker outcome is the defense.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod benign;
mod oracle;

pub use benign::{BenignPool, BenignWorkerReport};
pub use oracle::{Blocked, LiveOracle};

use std::time::Duration;

use maleva_client::{BackoffPolicy, ClientConfig, MetricsSnapshot, ScoreClient, SentinelReport};
use maleva_core::blackbox::{self, BlackboxConfig, BlackboxSummary};
use maleva_core::ExperimentContext;
use maleva_nn::NnError;
use maleva_serve::{SentinelConfig, ServeConfig};
use serde::{Deserialize, Serialize};

/// One campaign's knobs: the attack, the defense, and the traffic mix.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The substitute-attack configuration (seed corpus, augmentation
    /// rounds, JSMA gamma, evaluation samples, oracle-query budget).
    pub blackbox: BlackboxConfig,
    /// Sentinel configuration for the spawned server (ignored when
    /// [`CampaignConfig::addr`] attaches to an external server).
    pub sentinel: SentinelConfig,
    /// Benign worker threads running alongside the attacker.
    pub benign_workers: usize,
    /// Pause between one benign worker's consecutive submissions.
    pub benign_gap: Duration,
    /// The attacker's `client_id` on the wire.
    pub attacker_client_id: String,
    /// The attacker client's per-call attempt budget. Two attempts
    /// means a throttled attacker retries once (honoring
    /// `retry_after_ms`) before giving up — enough to observe the
    /// sentinel without stalling a test for minutes.
    pub attacker_max_attempts: u32,
    /// Attach to a server already running at this address instead of
    /// spawning one in-process. The external server must wrap the same
    /// `(scale, seed)` detector or the measurements are meaningless.
    pub addr: Option<String>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            blackbox: BlackboxConfig::default(),
            sentinel: SentinelConfig::default(),
            benign_workers: 2,
            benign_gap: Duration::from_millis(2),
            attacker_client_id: "attacker-0".to_string(),
            attacker_max_attempts: 2,
            addr: None,
        }
    }
}

/// Why (and when) the live oracle stopped answering the attacker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockedReport {
    /// The server error kind behind the refusal (e.g. `"throttled"`).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
    /// Oracle queries answered before the refusal.
    pub after_queries: usize,
    /// Whether the refusal was the sentinel's throttle.
    pub throttled: bool,
}

/// Aggregated benign-traffic outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenignSummary {
    /// Per-worker reports, in worker order.
    pub workers: Vec<BenignWorkerReport>,
    /// Total requests attempted across workers.
    pub requests: u64,
    /// Total requests answered with a score.
    pub ok: u64,
    /// Total sentinel throttles of benign clients — the defense's
    /// false positives; a healthy campaign reports zero.
    pub throttled: u64,
    /// Total other failures (transport, overload, deadline).
    pub other_errors: u64,
}

impl BenignSummary {
    fn from_workers(workers: Vec<BenignWorkerReport>) -> Self {
        let mut s = BenignSummary {
            workers,
            ..BenignSummary::default()
        };
        for w in &s.workers {
            s.requests += w.requests;
            s.ok += w.ok;
            s.throttled += w.throttled;
            s.other_errors += w.other_errors;
        }
        s
    }
}

/// The serializable outcome of one campaign (`campaign_report.json`).
#[derive(Debug, Clone, Serialize)]
pub struct CampaignReport {
    /// Experiment scale name (`tiny` / `quick` / `paper`).
    pub scale: String,
    /// The experiment seed (context and attack share it).
    pub seed: u64,
    /// Whether the sentinel was enabled for this campaign.
    pub sentinel_enabled: bool,
    /// The sentinel's configured action (`"throttle"` / `"poison"`).
    pub sentinel_action: String,
    /// Whether the attack pipeline ran to completion. `false` means
    /// the oracle refused mid-run — see [`CampaignReport::blocked`].
    pub completed: bool,
    /// The refusal that ended an incomplete campaign.
    pub blocked: Option<BlockedReport>,
    /// Full attack summary (agreement, ledger, evasion curve) when the
    /// pipeline completed.
    pub attack: Option<BlackboxSummary>,
    /// Evasions over attacked samples (`0` when the attack never
    /// reached its evaluation).
    pub attack_success_rate: f64,
    /// Total oracle queries spent when the first evasion landed
    /// (`0` = no evasion).
    pub queries_to_first_evasion: usize,
    /// Oracle queries the live server actually answered.
    pub oracle_queries_answered: usize,
    /// Whether the sentinel flagged the attacker's `client_id`.
    pub attacker_flagged: bool,
    /// Attacker query index at which the flag went up (`0` = never).
    pub attacker_flagged_at_query: u64,
    /// Benign-traffic outcome.
    pub benign: BenignSummary,
    /// The server's sentinel report at campaign end.
    pub sentinel: SentinelReport,
    /// The server's merged metrics snapshot at campaign end.
    pub server_stats: MetricsSnapshot,
}

fn client_refused(what: &str, err: maleva_client::ClientError) -> NnError {
    NnError::InvalidConfig {
        detail: format!("campaign {what} failed: {err}"),
    }
}

/// Runs one live campaign: server up (unless attaching), benign
/// traffic on, attack through the wire, diagnostics down, report out.
///
/// A blocked attacker (sentinel throttle, overload, transport loss) is
/// a campaign *outcome*, not an error: the report comes back with
/// `completed == false` and the refusal recorded. Only infrastructure
/// failures — server spawn, training, diagnostics — surface as `Err`.
///
/// # Errors
///
/// Returns [`NnError`] when the server cannot be spawned, the attack
/// fails for a non-oracle reason, or end-of-run diagnostics cannot be
/// fetched.
pub fn run_campaign(
    ctx: &ExperimentContext,
    config: &CampaignConfig,
) -> Result<CampaignReport, NnError> {
    let mut span = maleva_obs::Span::enter("campaign.run");
    span.record("seed", ctx.seed);

    let handle = match &config.addr {
        Some(_) => None,
        None => {
            let serve_config = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                sentinel: config.sentinel.clone(),
                ..ServeConfig::default()
            };
            Some(
                maleva_serve::spawn(ctx.detector.clone(), serve_config).map_err(|e| {
                    NnError::InvalidConfig {
                        detail: format!("campaign could not spawn a server: {e}"),
                    }
                })?,
            )
        }
    };
    let addr = match (&config.addr, &handle) {
        (Some(addr), _) => addr.clone(),
        (None, Some(h)) => h.addr().to_string(),
        (None, None) => unreachable!("spawned or attached"),
    };

    let pool = BenignPool::spawn(
        &addr,
        &ctx.world,
        config.benign_workers,
        config.benign_gap,
        ctx.seed,
    );

    let attacker = ScoreClient::new(ClientConfig {
        addr: addr.clone(),
        client_id: Some(config.attacker_client_id.clone()),
        max_attempts: config.attacker_max_attempts.max(1),
        call_deadline: Duration::from_secs(10),
        backoff: BackoffPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(20),
            jitter_frac: 0.0,
            seed: config.blackbox.seed,
        },
        ..ClientConfig::default()
    });
    let mut live = LiveOracle::new(attacker, ctx.world.vocab());
    let attack_result = blackbox::run_with_oracle(ctx, &config.blackbox, &mut live);
    let oracle_queries_answered = live.queries();
    let blocked = live.blocked().cloned();
    drop(live);

    let benign = BenignSummary::from_workers(pool.stop());

    // Diagnostics ride a fresh client with no client_id: command
    // requests never touch the sentinel, so the peer-address fallback
    // identity is fine here.
    let mut diag = ScoreClient::new(ClientConfig {
        addr,
        max_attempts: 2,
        ..ClientConfig::default()
    });
    let sentinel_info = diag.sentinel().map_err(|e| client_refused("sentinel", e))?;
    let server_stats = diag.stats().map_err(|e| client_refused("stats", e))?;
    drop(diag);
    if let Some(h) = handle {
        h.shutdown();
    }

    let attack = match attack_result {
        Ok(artifacts) => Some(artifacts.summary()),
        Err(err) => {
            if blocked.is_none() {
                // A genuine pipeline failure (training, shapes), not a
                // refusal — surface it.
                return Err(err);
            }
            None
        }
    };

    let attacker_row = sentinel_info.client(&config.attacker_client_id);
    let report = CampaignReport {
        scale: ctx.scale.name.to_string(),
        seed: ctx.seed,
        sentinel_enabled: config.sentinel.enabled,
        sentinel_action: config.sentinel.action.name().to_string(),
        completed: attack.is_some(),
        blocked: blocked.map(|b| BlockedReport {
            throttled: b.throttled(),
            kind: b.kind,
            detail: b.detail,
            after_queries: b.after_queries,
        }),
        attack_success_rate: attack
            .as_ref()
            .filter(|a| a.attacked > 0)
            .map_or(0.0, |a| a.evasions as f64 / a.attacked as f64),
        queries_to_first_evasion: attack.as_ref().map_or(0, |a| a.queries_to_first_evasion),
        attack,
        oracle_queries_answered,
        attacker_flagged: attacker_row.is_some_and(|r| r.flagged),
        attacker_flagged_at_query: attacker_row.map_or(0, |r| r.flagged_at_query),
        benign,
        sentinel: sentinel_info,
        server_stats,
    };
    span.record("completed", u64::from(report.completed));
    span.record(
        "evasions",
        report.attack.as_ref().map_or(0, |a| a.evasions) as u64,
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sentinel_off_with_benign_traffic() {
        let config = CampaignConfig::default();
        assert!(!config.sentinel.enabled);
        assert!(config.benign_workers > 0);
        assert!(config.attacker_max_attempts >= 1);
        assert!(config.addr.is_none());
    }

    #[test]
    fn campaign_report_serializes_to_json() {
        let report = CampaignReport {
            scale: "tiny".to_string(),
            seed: 42,
            sentinel_enabled: true,
            sentinel_action: "throttle".to_string(),
            completed: false,
            blocked: Some(BlockedReport {
                kind: "throttled".to_string(),
                detail: "retry in 25 ms".to_string(),
                after_queries: 77,
                throttled: true,
            }),
            attack: None,
            attack_success_rate: 0.0,
            queries_to_first_evasion: 0,
            oracle_queries_answered: 77,
            attacker_flagged: true,
            attacker_flagged_at_query: 61,
            benign: BenignSummary::from_workers(vec![BenignWorkerReport {
                client_id: "benign-0".to_string(),
                requests: 10,
                ok: 10,
                throttled: 0,
                other_errors: 0,
            }]),
            sentinel: SentinelReport {
                enabled: true,
                action: "throttle".to_string(),
                tracked_clients: 2,
                flagged_clients: 1,
                clients: Vec::new(),
            },
            server_stats: MetricsSnapshot {
                requests: 100,
                errors: 5,
                cache_hits: 3,
                cache_misses: 97,
                sentinel_throttled: 5,
                sentinel_flagged: 1,
                p99_latency_us: 900,
                ..MetricsSnapshot::default()
            },
        };
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(json.contains("\"completed\":false"));
        assert!(json.contains("\"kind\":\"throttled\""));
        assert!(json.contains("\"attacker_flagged\":true"));
        assert!(json.contains("\"benign\""));
    }

    #[test]
    fn benign_summary_totals_add_up() {
        let s = BenignSummary::from_workers(vec![
            BenignWorkerReport {
                client_id: "benign-0".to_string(),
                requests: 7,
                ok: 6,
                throttled: 0,
                other_errors: 1,
            },
            BenignWorkerReport {
                client_id: "benign-1".to_string(),
                requests: 5,
                ok: 5,
                throttled: 0,
                other_errors: 0,
            },
        ]);
        assert_eq!(s.requests, 12);
        assert_eq!(s.ok, 11);
        assert_eq!(s.throttled, 0);
        assert_eq!(s.other_errors, 1);
    }
}
