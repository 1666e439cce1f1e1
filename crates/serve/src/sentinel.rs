//! The extraction sentinel: a per-client stateful query-pattern
//! detector on the scoring hot path's edge.
//!
//! Model-extraction attackers (Papernot-style substitute training, as
//! implemented by `core::blackbox` and driven live by
//! `maleva-campaign`) have a telltale query shape: they submit a
//! sample, then the *same sample with one API call inserted*, oscillate
//! around the decision boundary, and do it thousands of times. Benign
//! traffic does not — it either repeats *exact* queries (caches,
//! replays, health probes) or sends genuinely unrelated samples.
//!
//! The sentinel exploits that gap with three per-client signals over a
//! sliding window of quantized feature vectors (the same quantization
//! the score cache keys on, so the signal is free to compute):
//!
//! 1. **near-duplicate probing** — a query whose Hamming distance to a
//!    recent query is small but *non-zero*. Exact repeats (distance 0)
//!    are deliberately excluded: they are what benign replay traffic
//!    looks like, and an attacker learns nothing new from them.
//! 2. **decision-boundary oscillation** — a near-duplicate pair whose
//!    two verdicts *differ*: the client is straddling the boundary,
//!    which is precisely what Jacobian augmentation and JSMA probing
//!    produce.
//! 3. **rate tracking** — requests per second per client, reported for
//!    operators but *never* used in decisions, so every decision is a
//!    pure function of (seed, client history) and failing runs replay
//!    exactly.
//!
//! Once flagged (sticky), a client is answered deterministically per
//! the configured [`SentinelAction`]: `throttle` refuses with a typed
//! `throttled` error and a `retry_after_ms` hint, `poison` serves
//! plausible but seed-randomized scores so the harvested labels train a
//! garbage substitute.

use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

pub use maleva_wire::{SentinelClientReport, SentinelReport};

/// What the sentinel does with queries from a flagged client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SentinelAction {
    /// Refuse with a typed `throttled` error carrying `retry_after_ms`.
    Throttle,
    /// Answer with a deterministic, seed-randomized score instead of
    /// the real one (verdict poisoning): the attacker keeps spending
    /// queries and harvests labels that train a garbage substitute.
    Poison,
}

impl SentinelAction {
    /// Stable lowercase name (`"throttle"` / `"poison"`).
    pub fn name(&self) -> &'static str {
        match self {
            SentinelAction::Throttle => "throttle",
            SentinelAction::Poison => "poison",
        }
    }
}

/// Sentinel configuration. Defaults are off; when enabled, the
/// thresholds are tuned so benign traffic (exact repeats, unrelated
/// samples) never flags while a substitute-training attacker flags
/// within its first augmentation round.
#[derive(Debug, Clone, PartialEq)]
pub struct SentinelConfig {
    /// Master switch; when false the sentinel records nothing and every
    /// decision is `Allow`.
    pub enabled: bool,
    /// Response to flagged clients.
    pub action: SentinelAction,
    /// Sliding-window length, in queries, per client.
    pub window: usize,
    /// Maximum Hamming distance (over quantized feature vectors) for a
    /// query to count as a near-duplicate of a windowed one. Distance 0
    /// (exact repeat) never counts.
    pub hamming_threshold: usize,
    /// Minimum total queries from a client before it can be flagged
    /// (grace period so short benign sessions are never judged).
    pub min_queries: u64,
    /// Flag when at least this many queries in the window are
    /// near-duplicates.
    pub dup_flag_count: usize,
    /// Flag when at least this many windowed near-duplicate pairs have
    /// differing verdicts (decision-boundary oscillation).
    pub flip_flag_count: usize,
    /// Maximum number of clients tracked; beyond it, new clients are
    /// admitted untracked (fail open) rather than evicting history.
    pub max_clients: usize,
    /// The `retry_after_ms` hint sent with `throttled` errors.
    pub retry_after_ms: u64,
    /// Seed for verdict poisoning; the poisoned score is a pure
    /// function of (seed, quantized features).
    pub seed: u64,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        SentinelConfig {
            enabled: false,
            action: SentinelAction::Throttle,
            window: 256,
            hamming_threshold: 8,
            min_queries: 16,
            dup_flag_count: 8,
            flip_flag_count: 4,
            max_clients: 4096,
            retry_after_ms: 25,
            seed: 0,
        }
    }
}

/// The sentinel's verdict for an incoming score request, decided
/// *before* scoring from the client's recorded history alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SentinelDecision {
    /// Score and answer normally.
    Allow,
    /// Refuse with `throttled`.
    Throttle {
        /// Suggested client wait, in milliseconds.
        retry_after_ms: u64,
    },
    /// Score normally but answer with the poisoned score.
    Poison,
}

/// What [`Sentinel::record`] observed about one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observed {
    /// The query was a near-duplicate of a windowed one.
    pub near_duplicate: bool,
    /// The query was a near-duplicate with a differing verdict.
    pub verdict_flip: bool,
    /// Recording this query crossed a flag threshold.
    pub newly_flagged: bool,
}

/// One windowed query, reduced to what eviction accounting needs. The
/// key itself lives (refcounted) in the client's distinct-key index.
struct WindowSlot {
    fingerprint: u64,
    verdict: Option<bool>,
    near_duplicate: bool,
    verdict_flip: bool,
    /// False only for the astronomically unlikely fingerprint
    /// collision, where the slot deliberately owns no distinct-key
    /// reference (fail benign).
    tracked: bool,
}

/// One distinct quantized key currently in the window, with its
/// precomputed near-duplicate neighbourhood. Benign traffic repeats a
/// small set of keys, so the expensive Hamming scan runs once per
/// *distinct* key instead of once per query; every repeat is a hash
/// lookup.
struct DistinctKey {
    /// Shared with the score cache's entry for the same features.
    key: Arc<[i64]>,
    /// Windowed queries holding this key; the entry dies at zero.
    refs: usize,
    /// Windowed queries with this key answered `true` / `false`
    /// (refused queries carry no verdict and count in neither).
    true_refs: usize,
    false_refs: usize,
    /// Fingerprints of other in-window distinct keys within the
    /// Hamming threshold (symmetric; eagerly pruned on eviction).
    near: Vec<u64>,
}

impl DistinctKey {
    fn bump_verdict(&mut self, verdict: Option<bool>, delta: isize) {
        let slot = match verdict {
            Some(true) => &mut self.true_refs,
            Some(false) => &mut self.false_refs,
            None => return,
        };
        *slot = slot.checked_add_signed(delta).unwrap_or(0);
    }
}

/// Per-client sliding-window state.
struct ClientState {
    window: VecDeque<WindowSlot>,
    distinct: HashMap<u64, DistinctKey>,
    total_queries: u64,
    total_near_duplicates: u64,
    total_verdict_flips: u64,
    window_near_duplicates: usize,
    window_verdict_flips: usize,
    flagged: bool,
    flagged_at_query: u64,
    throttled: u64,
    poisoned: u64,
    first_seen: Instant,
    last_seen: Instant,
}

impl ClientState {
    fn new(now: Instant) -> Self {
        ClientState {
            window: VecDeque::new(),
            distinct: HashMap::new(),
            total_queries: 0,
            total_near_duplicates: 0,
            total_verdict_flips: 0,
            window_near_duplicates: 0,
            window_verdict_flips: 0,
            flagged: false,
            flagged_at_query: 0,
            throttled: 0,
            poisoned: 0,
            first_seen: now,
            last_seen: now,
        }
    }
}

/// The stateful sentinel. One instance per server, guarding all
/// clients; callers hold it under the server's lock.
pub struct Sentinel {
    config: SentinelConfig,
    clients: HashMap<String, ClientState>,
}

/// Hamming distance between two quantized feature vectors, with an
/// early exit once the distance exceeds `limit` (the common case for
/// unrelated benign queries, which differ almost everywhere). The
/// inner accumulation is branchless over 64-element chunks so the
/// compiler can vectorize it; the exit check runs per chunk. Runs only
/// when a *never-seen* key enters a client's window — repeats resolve
/// through the fingerprint index — but still under the sentinel lock,
/// so the `sentinel_idle` phase of the `serve_load` bench gates its
/// cost.
fn hamming_exceeds(a: &[i64], b: &[i64], limit: usize) -> (usize, bool) {
    if a.len() != b.len() {
        return (usize::MAX, true);
    }
    let mut d = 0usize;
    for (ca, cb) in a.chunks(64).zip(b.chunks(64)) {
        for (x, y) in ca.iter().zip(cb.iter()) {
            d += usize::from(x != y);
        }
        if d > limit {
            return (d, true);
        }
    }
    (d, false)
}

/// Fingerprint of a quantized feature vector: FNV-1a over whole 64-bit
/// lanes (one xor-multiply per coordinate, not per byte — this runs on
/// every scored request). Collisions are not a correctness hazard: the
/// fast path verifies key equality, and a colliding *distinct* key is
/// merely skipped as evidence (fail benign).
fn fingerprint(key: &[i64]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for v in key {
        h = (h ^ (*v as u64)).wrapping_mul(FNV_PRIME);
        h ^= h >> 29;
    }
    h
}

/// The poisoned score for a quantized feature vector: FNV-1a over the
/// seed and key bytes, folded into `[0, 1)`. Pure function of
/// (seed, key), so a flagged attacker re-querying the same sample sees
/// a *consistent* wrong answer (inconsistency would itself be a signal
/// that poisoning is happening).
pub fn poison_score(seed: u64, key: &[i64]) -> f64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for byte in seed.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    for v in key {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    // Top 53 bits → uniform in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl Sentinel {
    /// Builds a sentinel from its configuration.
    pub fn new(config: SentinelConfig) -> Self {
        Sentinel {
            config,
            clients: HashMap::new(),
        }
    }

    /// The sentinel's configuration.
    pub fn config(&self) -> &SentinelConfig {
        &self.config
    }

    /// Decides what to do with an incoming score request from
    /// `client_id`, *before* scoring, from recorded history alone.
    pub fn decide(&mut self, client_id: &str) -> SentinelDecision {
        if !self.config.enabled {
            return SentinelDecision::Allow;
        }
        let Some(state) = self.clients.get_mut(client_id) else {
            return SentinelDecision::Allow;
        };
        if !state.flagged {
            return SentinelDecision::Allow;
        }
        match self.config.action {
            SentinelAction::Throttle => {
                state.throttled += 1;
                SentinelDecision::Throttle {
                    retry_after_ms: self.config.retry_after_ms,
                }
            }
            SentinelAction::Poison => {
                state.poisoned += 1;
                SentinelDecision::Poison
            }
        }
    }

    /// Records one query from `client_id` with its quantized feature
    /// key and the verdict the client saw (`None` when the query was
    /// refused before scoring). Returns what was observed so the caller
    /// can bump metrics. A key that enters the client's distinct-key
    /// index is kept as an `Arc`, so the server's key (already an
    /// `Arc`, shared with its cache) is stored without a copy.
    pub fn record(
        &mut self,
        client_id: &str,
        key: impl Into<Arc<[i64]>> + Borrow<[i64]>,
        verdict: Option<bool>,
    ) -> Observed {
        if !self.config.enabled {
            return Observed::default();
        }
        let now = Instant::now();
        let state = match self.clients.get_mut(client_id) {
            Some(s) => s,
            None => {
                if self.clients.len() >= self.config.max_clients {
                    // Fail open: admit untracked rather than evicting
                    // history an attacker could then flush.
                    return Observed::default();
                }
                self.clients
                    .entry(client_id.to_string())
                    .or_insert_with(|| ClientState::new(now))
            }
        };
        state.total_queries += 1;
        state.last_seen = now;
        if state.flagged {
            // The flag is sticky and can never be unset, so further
            // evidence collection is pure hot-path cost: keep counting
            // queries (for the report) but skip the window entirely.
            return Observed::default();
        }

        // Classify the query against the distinct-key index. A repeated
        // key (the entire benign steady state) is one hash lookup; only
        // a never-seen key pays the Hamming scan, and only against
        // *distinct* windowed keys.
        let fp = fingerprint(key.borrow());
        let mut near_duplicate = false;
        let mut verdict_flip = false;
        let mut tracked = true;
        let flips = |distinct: &HashMap<u64, DistinctKey>, nfp: &u64, v: bool| {
            distinct
                .get(nfp)
                .is_some_and(|n| if v { n.false_refs > 0 } else { n.true_refs > 0 })
        };
        let new_neighbours = match state.distinct.get(&fp) {
            Some(entry) if *entry.key == *key.borrow() => {
                // Exact repeat of a windowed key: its neighbourhood is
                // already known. Distance-0 priors never count, so the
                // repeat itself is not evidence — only live neighbours.
                near_duplicate = !entry.near.is_empty();
                if let Some(v) = verdict {
                    verdict_flip = entry.near.iter().any(|nfp| flips(&state.distinct, nfp, v));
                }
                None
            }
            Some(_) => {
                // Fingerprint collision with a different key: skip the
                // evidence rather than corrupt the colliding entry.
                tracked = false;
                None
            }
            None => {
                let mut near = Vec::new();
                for (other_fp, other) in &state.distinct {
                    let (d, exceeded) =
                        hamming_exceeds(&other.key, key.borrow(), self.config.hamming_threshold);
                    if !exceeded && d > 0 {
                        near.push(*other_fp);
                    }
                }
                near_duplicate = !near.is_empty();
                if let Some(v) = verdict {
                    verdict_flip = near.iter().any(|nfp| flips(&state.distinct, nfp, v));
                }
                Some(near)
            }
        };
        match new_neighbours {
            Some(near) => {
                for nfp in &near {
                    if let Some(n) = state.distinct.get_mut(nfp) {
                        n.near.push(fp);
                    }
                }
                let mut entry = DistinctKey {
                    key: key.into(),
                    refs: 1,
                    true_refs: 0,
                    false_refs: 0,
                    near,
                };
                entry.bump_verdict(verdict, 1);
                state.distinct.insert(fp, entry);
            }
            None if tracked => {
                let entry = state.distinct.get_mut(&fp).expect("existing distinct key");
                entry.refs += 1;
                entry.bump_verdict(verdict, 1);
            }
            None => {}
        }

        if near_duplicate {
            state.total_near_duplicates += 1;
            state.window_near_duplicates += 1;
        }
        if verdict_flip {
            state.total_verdict_flips += 1;
            state.window_verdict_flips += 1;
        }

        state.window.push_back(WindowSlot {
            fingerprint: fp,
            verdict,
            near_duplicate,
            verdict_flip,
            tracked,
        });
        if state.window.len() > self.config.window {
            if let Some(evicted) = state.window.pop_front() {
                if evicted.near_duplicate {
                    state.window_near_duplicates -= 1;
                }
                if evicted.verdict_flip {
                    state.window_verdict_flips -= 1;
                }
                if evicted.tracked {
                    let emptied = match state.distinct.get_mut(&evicted.fingerprint) {
                        Some(entry) => {
                            entry.refs = entry.refs.saturating_sub(1);
                            entry.bump_verdict(evicted.verdict, -1);
                            entry.refs == 0
                        }
                        None => false,
                    };
                    if emptied {
                        if let Some(dead) = state.distinct.remove(&evicted.fingerprint) {
                            for nfp in dead.near {
                                if let Some(n) = state.distinct.get_mut(&nfp) {
                                    n.near.retain(|f| *f != evicted.fingerprint);
                                }
                            }
                        }
                    }
                }
            }
        }

        let mut newly_flagged = false;
        if !state.flagged
            && state.total_queries >= self.config.min_queries
            && (state.window_near_duplicates >= self.config.dup_flag_count
                || state.window_verdict_flips >= self.config.flip_flag_count)
        {
            state.flagged = true;
            state.flagged_at_query = state.total_queries;
            newly_flagged = true;
        }
        Observed {
            near_duplicate,
            verdict_flip,
            newly_flagged,
        }
    }

    /// Clients currently tracked.
    pub fn tracked_clients(&self) -> usize {
        self.clients.len()
    }

    /// Clients currently flagged.
    pub fn flagged_clients(&self) -> usize {
        self.clients.values().filter(|c| c.flagged).count()
    }

    /// The full inspection report, rows sorted by client id.
    pub fn report(&self) -> SentinelReport {
        let mut clients: Vec<SentinelClientReport> = self
            .clients
            .iter()
            .map(|(id, s)| {
                let elapsed = s.last_seen.duration_since(s.first_seen).as_secs_f64();
                SentinelClientReport {
                    client_id: id.clone(),
                    queries: s.total_queries,
                    near_duplicates: s.total_near_duplicates,
                    verdict_flips: s.total_verdict_flips,
                    window_near_duplicates: s.window_near_duplicates,
                    window_verdict_flips: s.window_verdict_flips,
                    flagged: s.flagged,
                    flagged_at_query: s.flagged_at_query,
                    throttled: s.throttled,
                    poisoned: s.poisoned,
                    observed_rps: if elapsed > 0.0 {
                        (s.total_queries as f64 - 1.0) / elapsed
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        clients.sort_by(|a, b| a.client_id.cmp(&b.client_id));
        SentinelReport {
            enabled: self.config.enabled,
            action: self.config.action.name().to_string(),
            tracked_clients: self.clients.len(),
            flagged_clients: clients.iter().filter(|c| c.flagged).count(),
            clients,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled(action: SentinelAction) -> SentinelConfig {
        SentinelConfig {
            enabled: true,
            action,
            min_queries: 4,
            dup_flag_count: 3,
            flip_flag_count: 2,
            ..SentinelConfig::default()
        }
    }

    fn key(bits: &[i64]) -> Vec<i64> {
        bits.to_vec()
    }

    #[test]
    fn disabled_sentinel_never_tracks_or_flags() {
        let mut s = Sentinel::new(SentinelConfig::default());
        for i in 0..1000i64 {
            assert_eq!(s.decide("c"), SentinelDecision::Allow);
            let obs = s.record("c", key(&[i % 2, 0, 0, 0]), Some(i % 2 == 0));
            assert_eq!(obs, Observed::default());
        }
        assert_eq!(s.tracked_clients(), 0);
    }

    #[test]
    fn exact_repeats_never_count_as_near_duplicates() {
        // Benign replay traffic: the same handful of samples over and
        // over (what a cache-warm client or `serve_load` does).
        let mut s = Sentinel::new(enabled(SentinelAction::Throttle));
        // Keys must be mutually distant (> hamming_threshold), like
        // real distinct samples in a 491-dim feature space.
        let pool = [key(&[1; 32]), key(&[2; 32]), key(&[3; 32])];
        for i in 0..500 {
            assert_eq!(s.decide("benign"), SentinelDecision::Allow);
            let obs = s.record("benign", pool[i % pool.len()].clone(), Some(false));
            assert!(!obs.near_duplicate, "iteration {i}");
            assert!(!obs.newly_flagged);
        }
        assert_eq!(s.flagged_clients(), 0);
    }

    #[test]
    fn unrelated_queries_never_flag() {
        // Distinct benign samples differ in (far) more than the
        // Hamming threshold of coordinates.
        let mut s = Sentinel::new(enabled(SentinelAction::Throttle));
        for i in 0..200i64 {
            let k: Vec<i64> = (0..32).map(|j| i * 1000 + j).collect();
            s.record("benign", k, Some(false));
        }
        assert_eq!(s.flagged_clients(), 0);
    }

    #[test]
    fn near_duplicate_probing_flags_and_throttles() {
        let mut s = Sentinel::new(enabled(SentinelAction::Throttle));
        let base: Vec<i64> = (0..32).collect();
        let mut flagged_at = None;
        for i in 0..40 {
            if s.decide("attacker") != SentinelDecision::Allow {
                break;
            }
            // One coordinate flipped per probe: classic Jacobian probing.
            let mut k = base.clone();
            k[i % 32] += 1;
            let obs = s.record("attacker", k, Some(false));
            if obs.newly_flagged {
                flagged_at = Some(i + 1);
            }
        }
        let at = flagged_at.expect("probing attacker must flag");
        assert!(at >= 4, "grace period respected, flagged at {at}");
        // The loop's own post-flag decide() counted one throttle.
        match s.decide("attacker") {
            SentinelDecision::Throttle { retry_after_ms } => assert_eq!(retry_after_ms, 25),
            other => panic!("expected throttle, got {other:?}"),
        }
        // Sticky: still throttled many queries later.
        for _ in 0..10 {
            assert!(matches!(
                s.decide("attacker"),
                SentinelDecision::Throttle { .. }
            ));
        }
        let report = s.report();
        let row = &report.clients[0];
        assert!(row.flagged);
        assert_eq!(row.flagged_at_query, at as u64);
        assert_eq!(row.throttled, 12);
    }

    #[test]
    fn verdict_oscillation_flags_faster_than_duplicates_alone() {
        let mut cfg = enabled(SentinelAction::Throttle);
        cfg.dup_flag_count = 1000; // disable the dup path
        let mut s = Sentinel::new(cfg);
        let base: Vec<i64> = (0..32).collect();
        let mut flagged = false;
        for i in 0..40 {
            let mut k = base.clone();
            k[i % 32] += 1;
            // Alternating verdicts: the client straddles the boundary.
            let obs = s.record("attacker", k, Some(i % 2 == 0));
            if obs.newly_flagged {
                flagged = true;
                break;
            }
        }
        assert!(flagged, "oscillating attacker must flag via the flip path");
    }

    #[test]
    fn poison_action_poisons_after_flagging() {
        let mut s = Sentinel::new(enabled(SentinelAction::Poison));
        let base: Vec<i64> = (0..32).collect();
        for i in 0..40 {
            let mut k = base.clone();
            k[i % 32] += 1;
            s.record("attacker", k, Some(false));
        }
        assert_eq!(s.decide("attacker"), SentinelDecision::Poison);
        assert_eq!(s.report().clients[0].poisoned, 1);
    }

    #[test]
    fn poison_score_is_deterministic_and_key_sensitive() {
        let a = key(&[1, 2, 3]);
        let b = key(&[1, 2, 4]);
        assert_eq!(poison_score(7, &a), poison_score(7, &a));
        assert!((0.0..1.0).contains(&poison_score(7, &a)));
        assert_ne!(poison_score(7, &a), poison_score(7, &b));
        assert_ne!(poison_score(7, &a), poison_score(8, &a));
    }

    #[test]
    fn decisions_replay_exactly_for_the_same_history() {
        // Pure function of (seed, history): replay the same interleaved
        // query sequence twice, assert identical decisions and reports
        // (modulo wall-clock rates).
        let run = || {
            let mut s = Sentinel::new(enabled(SentinelAction::Throttle));
            let mut decisions = Vec::new();
            let base: Vec<i64> = (0..16).collect();
            for i in 0..60i64 {
                let (cid, k, v) = if i % 3 == 0 {
                    (
                        "benign",
                        (0..16).map(|j| i * 1000 + j).collect(),
                        Some(false),
                    )
                } else {
                    let mut k = base.clone();
                    k[(i % 16) as usize] += 1;
                    ("attacker", k, Some(i % 2 == 0))
                };
                let d = s.decide(cid);
                let refused = matches!(d, SentinelDecision::Throttle { .. });
                decisions.push((cid, d));
                s.record(cid, k, if refused { None } else { v });
            }
            let mut rep = s.report();
            for c in &mut rep.clients {
                c.observed_rps = 0.0; // wall clock: reporting only
            }
            (decisions, rep)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn max_clients_fails_open() {
        let mut cfg = enabled(SentinelAction::Throttle);
        cfg.max_clients = 2;
        let mut s = Sentinel::new(cfg);
        s.record("a", key(&[1]), Some(false));
        s.record("b", key(&[2]), Some(false));
        let obs = s.record("c", key(&[3]), Some(false));
        assert_eq!(obs, Observed::default());
        assert_eq!(s.tracked_clients(), 2);
        assert_eq!(s.decide("c"), SentinelDecision::Allow);
    }

    #[test]
    fn window_eviction_decays_old_evidence() {
        let mut cfg = enabled(SentinelAction::Throttle);
        cfg.window = 4;
        cfg.dup_flag_count = 100; // never flag; observe window counters
        cfg.flip_flag_count = 100;
        let mut s = Sentinel::new(cfg);
        let base: Vec<i64> = (0..16).collect();
        for i in 0..3 {
            let mut k = base.clone();
            k[i] += 1;
            s.record("c", k, Some(false));
        }
        // Three mutual near-duplicates in the window (first one had no
        // neighbour yet).
        assert_eq!(s.report().clients[0].window_near_duplicates, 2);
        // Push unrelated queries until the probes evict.
        for i in 0..8i64 {
            s.record("c", key(&[i * 1000; 16]), Some(false));
        }
        assert_eq!(s.report().clients[0].window_near_duplicates, 0);
        assert!(s.report().clients[0].near_duplicates >= 2, "totals persist");
    }
}
