//! Deterministic fault injection for the serving path.
//!
//! A [`FaultPlan`] names *where* faults fire (a [`FaultSite`]) and *how
//! often* (a [`FaultAction`]); a [`FaultInjector`] executes the plan
//! with one atomic sequence counter per site, so the decision for the
//! N-th event at a site is a pure function of `(seed, site, N)` —
//! rerunning the same workload with the same seed injects the same
//! faults at the same points regardless of thread interleaving.
//!
//! Sites cover the failure modes a production scorer must survive:
//! connections reset at accept or mid-response, slow/partial reads and
//! writes, scorer-thread panics (batch-level and per-row), and
//! artificial scoring latency. The server wires each site into its
//! acceptor, connection, and scorer threads; the chaos soak test and the
//! `serve_load` degraded phase drive traffic against an injected server
//! and assert nothing is lost or corrupted.
//!
//! Plans parse from a compact spec string (also read from the
//! `MALEVA_FAULTS` environment variable by the CLI):
//!
//! ```text
//! seed=7,accept_reset=@5,write_reset=p0.02,slow_read=@23,batch_panic=@7,delay_ms=2
//! ```
//!
//! `@N` fires every N-th event at the site (phase-shifted by the seed);
//! `pF` (or a bare float) fires with probability F, drawn from a
//! counter-based hash of `(seed, site, sequence)`. `delay_ms` sets the
//! sleep used by the slow/latency sites.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Where in the serving path a fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Close the connection immediately after accepting it.
    AcceptReset,
    /// Sleep before reading the next request line (slow client read).
    SlowRead,
    /// Write the response in two chunks with a pause between them
    /// (slow, partial write).
    SlowWrite,
    /// Drop the connection instead of writing a response — the request
    /// was processed but the reply is lost on the wire.
    WriteReset,
    /// Panic inside the batched forward pass (the whole batch).
    BatchPanic,
    /// Panic inside the per-row fallback pass (a poisoned row).
    RowPanic,
    /// Sleep before scoring a batch (artificial scorer latency).
    ScoreDelay,
}

/// Every site, in wire/counter order.
pub const ALL_SITES: [FaultSite; 7] = [
    FaultSite::AcceptReset,
    FaultSite::SlowRead,
    FaultSite::SlowWrite,
    FaultSite::WriteReset,
    FaultSite::BatchPanic,
    FaultSite::RowPanic,
    FaultSite::ScoreDelay,
];

impl FaultSite {
    /// Stable machine-readable name (spec key and health/metrics label).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::AcceptReset => "accept_reset",
            FaultSite::SlowRead => "slow_read",
            FaultSite::SlowWrite => "slow_write",
            FaultSite::WriteReset => "write_reset",
            FaultSite::BatchPanic => "batch_panic",
            FaultSite::RowPanic => "row_panic",
            FaultSite::ScoreDelay => "score_delay",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::AcceptReset => 0,
            FaultSite::SlowRead => 1,
            FaultSite::SlowWrite => 2,
            FaultSite::WriteReset => 3,
            FaultSite::BatchPanic => 4,
            FaultSite::RowPanic => 5,
            FaultSite::ScoreDelay => 6,
        }
    }
}

/// How often a site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Never fires (the default for every site).
    Never,
    /// Fires on every N-th event at the site (N >= 1), phase-shifted
    /// deterministically by the plan seed.
    EveryNth(u64),
    /// Fires with probability `p` in `[0, 1]`, decided by a
    /// counter-based hash of `(seed, site, sequence)`.
    Prob(f64),
}

/// A complete, seedable fault configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all per-site decision streams.
    pub seed: u64,
    /// Sleep used by [`FaultSite::SlowRead`], [`FaultSite::SlowWrite`],
    /// and [`FaultSite::ScoreDelay`] when they fire.
    pub delay: Duration,
    actions: [FaultAction; ALL_SITES.len()],
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::disabled()
    }
}

impl FaultPlan {
    /// A plan where no site ever fires.
    pub fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            delay: Duration::from_millis(2),
            actions: [FaultAction::Never; ALL_SITES.len()],
        }
    }

    /// Whether any site can fire at all.
    pub fn is_enabled(&self) -> bool {
        self.actions
            .iter()
            .any(|a| !matches!(a, FaultAction::Never))
    }

    /// The action configured for `site`.
    pub fn action(&self, site: FaultSite) -> FaultAction {
        self.actions[site.index()]
    }

    /// Builder-style: sets the action for one site.
    #[must_use]
    pub fn with(mut self, site: FaultSite, action: FaultAction) -> Self {
        self.actions[site.index()] = action;
        self
    }

    /// Builder-style: sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: sets the slow/latency sleep.
    #[must_use]
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// Parses a spec string like
    /// `seed=7,accept_reset=@5,write_reset=p0.02,delay_ms=2`.
    ///
    /// Site values are `@N` (every N-th event), `pF`, or a bare float
    /// in `[0, 1]` (probability). An empty spec is the disabled plan.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::disabled();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry `{entry}` is not key=value"))?;
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad fault seed `{value}`: {e}"))?;
                }
                "delay_ms" => {
                    let ms: u64 = value
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad delay_ms `{value}`: {e}"))?;
                    plan.delay = Duration::from_millis(ms);
                }
                key => {
                    let site = ALL_SITES
                        .into_iter()
                        .find(|s| s.name() == key)
                        .ok_or_else(|| format!("unknown fault site `{key}`"))?;
                    plan.actions[site.index()] = parse_action(value.trim())?;
                }
            }
        }
        Ok(plan)
    }

    /// Reads the plan from the `MALEVA_FAULTS` environment variable
    /// (disabled when unset or empty).
    ///
    /// # Errors
    ///
    /// Returns the parse error for a malformed spec.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("MALEVA_FAULTS") {
            Ok(spec) => FaultPlan::parse(&spec),
            Err(_) => Ok(FaultPlan::disabled()),
        }
    }
}

fn parse_action(value: &str) -> Result<FaultAction, String> {
    if let Some(n) = value.strip_prefix('@') {
        let n: u64 = n
            .parse()
            .map_err(|e| format!("bad period `{value}`: {e}"))?;
        if n == 0 {
            return Err(format!("bad period `{value}`: must be >= 1"));
        }
        return Ok(FaultAction::EveryNth(n));
    }
    let p: f64 = value
        .strip_prefix('p')
        .unwrap_or(value)
        .parse()
        .map_err(|e| format!("bad probability `{value}`: {e}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability `{value}` outside [0, 1]"));
    }
    if p == 0.0 {
        Ok(FaultAction::Never)
    } else {
        Ok(FaultAction::Prob(p))
    }
}

/// SplitMix64: a tiny, high-quality mixing function — the decision for
/// event N at a site is `mix(seed ^ site_salt ^ N)`, so streams are
/// independent across sites and reproducible per seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-site salt so identical sequence numbers draw independently.
fn site_salt(site: FaultSite) -> u64 {
    0x5157_badc_0ffe_e000 ^ ((site.index() as u64 + 1).wrapping_mul(0x0b4c_9d2a_8f31_77d1))
}

struct SiteState {
    seq: AtomicU64,
    fired: AtomicU64,
}

/// Executes a [`FaultPlan`]: one atomic event counter and one fired
/// counter per site. Cheap to consult when the plan is disabled (a
/// single branch, no atomics).
pub struct FaultInjector {
    plan: FaultPlan,
    enabled: bool,
    sites: [SiteState; ALL_SITES.len()],
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("fired", &self.fired_counts())
            .finish()
    }
}

impl FaultInjector {
    /// Builds an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let enabled = plan.is_enabled();
        FaultInjector {
            plan,
            enabled,
            sites: std::array::from_fn(|_| SiteState {
                seq: AtomicU64::new(0),
                fired: AtomicU64::new(0),
            }),
        }
    }

    /// Whether any site can fire.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The plan's slow/latency sleep.
    pub fn delay(&self) -> Duration {
        self.plan.delay
    }

    /// Consumes one event at `site` and reports whether the fault
    /// fires. Decision N at a site is a pure function of
    /// `(seed, site, N)`.
    pub fn should_fire(&self, site: FaultSite) -> bool {
        if !self.enabled {
            return false;
        }
        let action = self.plan.action(site);
        if matches!(action, FaultAction::Never) {
            return false;
        }
        let state = &self.sites[site.index()];
        let seq = state.seq.fetch_add(1, Ordering::Relaxed);
        let salt = site_salt(site);
        let fire = match action {
            FaultAction::Never => false,
            FaultAction::EveryNth(n) => {
                // Phase-shift by a seed-derived offset so different
                // seeds fire at different points of the same workload.
                let phase = splitmix64(self.plan.seed ^ salt) % n;
                seq % n == phase
            }
            FaultAction::Prob(p) => {
                let draw = splitmix64(self.plan.seed ^ salt ^ seq);
                // Top 53 bits -> uniform f64 in [0, 1).
                let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
                unit < p
            }
        };
        if fire {
            state.fired.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// How many times `site` has fired.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.sites[site.index()].fired.load(Ordering::Relaxed)
    }

    /// `(site name, fired count)` for every site, in stable order.
    pub fn fired_counts(&self) -> Vec<(&'static str, u64)> {
        ALL_SITES
            .into_iter()
            .map(|s| (s.name(), self.fired(s)))
            .collect()
    }

    /// Total faults fired across all sites.
    pub fn total_fired(&self) -> u64 {
        ALL_SITES.into_iter().map(|s| self.fired(s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::disabled());
        assert!(!inj.enabled());
        for _ in 0..100 {
            assert!(!inj.should_fire(FaultSite::BatchPanic));
        }
        assert_eq!(inj.total_fired(), 0);
    }

    #[test]
    fn every_nth_fires_exactly_once_per_period() {
        let plan = FaultPlan::disabled()
            .with_seed(9)
            .with(FaultSite::WriteReset, FaultAction::EveryNth(5));
        let inj = FaultInjector::new(plan);
        let fired: Vec<bool> = (0..25)
            .map(|_| inj.should_fire(FaultSite::WriteReset))
            .collect();
        assert_eq!(fired.iter().filter(|&&f| f).count(), 5);
        // Exactly one firing in every window of 5 consecutive events.
        for window in fired.chunks(5) {
            assert_eq!(window.iter().filter(|&&f| f).count(), 1);
        }
    }

    #[test]
    fn decision_streams_are_deterministic_per_seed() {
        let plan = FaultPlan::disabled()
            .with_seed(1234)
            .with(FaultSite::SlowRead, FaultAction::Prob(0.3))
            .with(FaultSite::BatchPanic, FaultAction::EveryNth(7));
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        for _ in 0..200 {
            assert_eq!(
                a.should_fire(FaultSite::SlowRead),
                b.should_fire(FaultSite::SlowRead)
            );
            assert_eq!(
                a.should_fire(FaultSite::BatchPanic),
                b.should_fire(FaultSite::BatchPanic)
            );
        }
        assert_eq!(a.fired_counts(), b.fired_counts());
    }

    #[test]
    fn different_seeds_shift_periodic_phase() {
        let firing_index = |seed: u64| -> usize {
            let plan = FaultPlan::disabled()
                .with_seed(seed)
                .with(FaultSite::RowPanic, FaultAction::EveryNth(50));
            let inj = FaultInjector::new(plan);
            (0..50)
                .position(|_| inj.should_fire(FaultSite::RowPanic))
                .expect("one firing per period")
        };
        let indices: std::collections::HashSet<usize> = (0..20).map(firing_index).collect();
        assert!(indices.len() > 1, "seed never changes the phase");
    }

    #[test]
    fn probability_rate_is_roughly_honored() {
        let plan = FaultPlan::disabled()
            .with_seed(42)
            .with(FaultSite::SlowWrite, FaultAction::Prob(0.25));
        let inj = FaultInjector::new(plan);
        let n = 4000;
        for _ in 0..n {
            inj.should_fire(FaultSite::SlowWrite);
        }
        let rate = inj.fired(FaultSite::SlowWrite) as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn sites_draw_independent_streams() {
        let plan = FaultPlan::disabled()
            .with_seed(7)
            .with(FaultSite::SlowRead, FaultAction::Prob(0.5))
            .with(FaultSite::SlowWrite, FaultAction::Prob(0.5));
        let inj = FaultInjector::new(plan);
        let mut same = 0;
        for _ in 0..256 {
            let a = inj.should_fire(FaultSite::SlowRead);
            let b = inj.should_fire(FaultSite::SlowWrite);
            same += usize::from(a == b);
        }
        // Perfectly correlated streams would agree 256 times.
        assert!((64..=192).contains(&same), "agreement {same}/256");
    }

    #[test]
    fn spec_round_trip_and_errors() {
        let plan = FaultPlan::parse(
            "seed=7, accept_reset=@5, write_reset=p0.02, slow_read=0.1, delay_ms=3",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.delay, Duration::from_millis(3));
        assert_eq!(
            plan.action(FaultSite::AcceptReset),
            FaultAction::EveryNth(5)
        );
        assert_eq!(plan.action(FaultSite::WriteReset), FaultAction::Prob(0.02));
        assert_eq!(plan.action(FaultSite::SlowRead), FaultAction::Prob(0.1));
        assert_eq!(plan.action(FaultSite::BatchPanic), FaultAction::Never);
        assert!(plan.is_enabled());

        assert!(FaultPlan::parse("").unwrap() == FaultPlan::disabled());
        assert!(
            FaultPlan::parse("slow_read=p0")
                .unwrap()
                .action(FaultSite::SlowRead)
                == FaultAction::Never
        );
        for bad in [
            "nonsense",
            "unknown_site=@3",
            "slow_read=@0",
            "slow_read=p1.5",
            "seed=abc",
            "delay_ms=-1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
    }
}
