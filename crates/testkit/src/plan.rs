//! The `FaultPlan` DSL: seeded, replayable fault schedules.
//!
//! A plan is data — a list of [`FaultRule`]s, each naming a fault point
//! (see `nemfpga_runtime::faults`), a firing condition over the site's
//! hit ordinal, and the fault to inject. Plans print themselves
//! ([`FaultPlan::describe`]) so a CI failure is replayable from its log,
//! and [`FaultPlan::randomized`] derives a whole plan from one seed so a
//! chaos sweep is just a seed range.
//!
//! Arming mutates a process-global registry, so arming is guarded:
//! [`FaultScope`] holds a global lock for its lifetime and disarms
//! everything on drop. Tests in one binary that touch fault points are
//! thereby serialized instead of cross-talking.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use nemfpga_runtime::faults::{self, FaultAction};
use nemfpga_runtime::mix_seed;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::sync::Probe;

/// The injectable faults, by intent (each lowers to a
/// [`FaultAction`]; sites interpret actions they understand and ignore
/// the rest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Fail a disk operation (`cache.read_disk` / `cache.write_disk`).
    IoError,
    /// Flip a byte in the bytes the operation handles.
    CorruptBytes,
    /// Truncate the bytes the operation handles (torn write).
    ShortRead,
    /// Sleep this many milliseconds at the site.
    DelayMillis(u64),
    /// Panic at the site.
    Panic,
    /// Make the executor return an error (`scheduler.execute`).
    ExecError,
    /// Pull a deadline earlier by this many ms (`scheduler.deadline`).
    SkewMillis(u64),
    /// Generic "take the guarded branch" switch (`bug.*` sites).
    Trigger,
}

impl FaultSpec {
    /// Lowers the spec to the runtime-level action.
    pub fn action(self) -> FaultAction {
        match self {
            Self::IoError => FaultAction::Err("injected i/o error".to_owned()),
            Self::CorruptBytes => FaultAction::Corrupt,
            Self::ShortRead => FaultAction::ShortRead,
            Self::DelayMillis(ms) => FaultAction::Delay(Duration::from_millis(ms)),
            Self::Panic => FaultAction::Panic("injected panic".to_owned()),
            Self::ExecError => FaultAction::Err("injected executor error".to_owned()),
            Self::SkewMillis(ms) => FaultAction::SkewMillis(ms),
            Self::Trigger => FaultAction::Trigger,
        }
    }
}

/// When a rule fires, as a predicate over the site's 1-based hit
/// ordinal. Ordinal-based conditions make schedules independent of
/// wall-clock time, so replays see the same faults in the same places.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FireRule {
    /// Every hit.
    Always,
    /// Exactly the `n`-th hit.
    Nth(u64),
    /// The first `n` hits.
    FirstN(u64),
    /// Hits `n, 2n, 3n, …`.
    EveryNth(u64),
    /// Every hit strictly after the `n`-th — "the disk dies at ordinal
    /// `n` and stays dead", the crash-freeze shape restart scenarios
    /// use. Not in the randomized menu: a frozen site makes most plans'
    /// invariants vacuous.
    AfterN(u64),
    /// Deterministically pseudo-random: fires when
    /// `mix_seed(salt, ordinal) % 1000 < permille`.
    Permille { permille: u16, salt: u64 },
}

impl FireRule {
    /// Does the rule fire on this hit?
    pub fn fires(&self, ordinal: u64) -> bool {
        match *self {
            Self::Always => true,
            Self::Nth(n) => ordinal == n,
            Self::FirstN(n) => ordinal <= n,
            Self::EveryNth(n) => n > 0 && ordinal.is_multiple_of(n),
            Self::AfterN(n) => ordinal > n,
            Self::Permille { permille, salt } => {
                mix_seed(salt, ordinal) % 1000 < u64::from(permille)
            }
        }
    }
}

/// One armed behavior: at `site`, when `when` fires, inject `fault`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Fault-point name (e.g. `"cache.read_disk"`).
    pub site: String,
    /// Firing condition over the site's hit ordinal.
    pub when: FireRule,
    /// The fault to inject.
    pub fault: FaultSpec,
}

/// A seeded, self-describing schedule of faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Human-readable name (`randomized(seed)` encodes the seed here).
    pub name: String,
    /// Rules; several rules may target one site (first match wins).
    pub rules: Vec<FaultRule>,
}

/// The sites [`FaultPlan::randomized`] draws from, with the fault menu
/// each supports. `bug.*` switches and `Panic` on `workers.job` are
/// deliberately excluded: the former are for guard-verification runs,
/// the latter loses jobs by design (a worker dying *between* dequeue and
/// the scheduler's own panic guard strands the job record), which is a
/// pool-level property tested directly, not a serving invariant.
const RANDOM_MENU: &[(&str, &[FaultSpec])] = &[
    ("cache.read_disk", &[FaultSpec::IoError, FaultSpec::CorruptBytes, FaultSpec::ShortRead]),
    ("cache.write_disk", &[FaultSpec::IoError, FaultSpec::CorruptBytes, FaultSpec::ShortRead]),
    // Architecture graph snapshots are a derived cache: every fault
    // here degrades to an in-memory rebuild, never a changed result,
    // so the site does not widen `allows_recompute`.
    ("graph.store", &[FaultSpec::IoError, FaultSpec::CorruptBytes, FaultSpec::ShortRead]),
    ("scheduler.execute", &[FaultSpec::DelayMillis(0), FaultSpec::Panic, FaultSpec::ExecError]),
    ("scheduler.pre_table_lock", &[FaultSpec::DelayMillis(0)]),
    ("scheduler.deadline", &[FaultSpec::SkewMillis(0)]),
    ("workers.job", &[FaultSpec::DelayMillis(0)]),
];

impl FaultPlan {
    /// An empty plan (useful as a no-fault baseline).
    pub fn named(name: &str) -> Self {
        Self { name: name.to_owned(), rules: Vec::new() }
    }

    /// Builder: appends a rule.
    #[must_use]
    pub fn with_rule(mut self, site: &str, when: FireRule, fault: FaultSpec) -> Self {
        self.rules.push(FaultRule { site: site.to_owned(), when, fault });
        self
    }

    /// Derives a whole plan from one seed: 1–4 rules over the safe
    /// site/fault menu, with seeded firing conditions and magnitudes.
    /// Same seed → same plan, always.
    pub fn randomized(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(mix_seed(seed, 0xC4A05));
        let mut plan = Self::named(&format!("randomized-{seed}"));
        let n_rules = rng.gen_range(1usize..5);
        for rule_idx in 0..n_rules {
            let &(site, menu) = RANDOM_MENU.choose(&mut rng).expect("menu is non-empty");
            let fault = match *menu.choose(&mut rng).expect("site menu is non-empty") {
                FaultSpec::DelayMillis(_) => FaultSpec::DelayMillis(rng.gen_range(1u64..40)),
                // Sometimes beyond the job timeout, to force queue-side
                // timeouts; sometimes harmless.
                FaultSpec::SkewMillis(_) => FaultSpec::SkewMillis(rng.gen_range(0u64..5_000)),
                other => other,
            };
            let when = match rng.gen_range(0u32..4) {
                0 => FireRule::Always,
                1 => FireRule::EveryNth(rng.gen_range(2u64..5)),
                2 => FireRule::FirstN(rng.gen_range(1u64..4)),
                _ => FireRule::Permille {
                    permille: rng.gen_range(100u16..700),
                    salt: mix_seed(seed, rule_idx as u64),
                },
            };
            plan.rules.push(FaultRule { site: site.to_owned(), when, fault });
        }
        plan
    }

    /// True when any rule targets `site`.
    pub fn targets(&self, site: &str) -> bool {
        self.rules.iter().any(|r| r.site == site)
    }

    /// Whether this plan legitimately allows a key to be computed more
    /// than once: cache faults turn hits into misses, executor
    /// panics/errors produce Failed jobs that don't cache, and deadline
    /// skew times jobs out before they produce output. A plan with none
    /// of these must see **at most one compute per key** — that is the
    /// coalescing + double-check guarantee the chaos suite enforces.
    pub fn allows_recompute(&self) -> bool {
        self.rules.iter().any(|r| {
            r.site.starts_with("cache.")
                || r.site == "scheduler.deadline"
                || (r.site == "scheduler.execute"
                    && matches!(r.fault, FaultSpec::Panic | FaultSpec::ExecError))
        })
    }

    /// One line per rule, replayable from a CI log.
    pub fn describe(&self) -> String {
        let mut out = format!("plan `{}`:", self.name);
        if self.rules.is_empty() {
            out.push_str(" (no faults)");
        }
        for r in &self.rules {
            out.push_str(&format!("\n  at {:<26} when {:?} inject {:?}", r.site, r.when, r.fault));
        }
        out
    }

    /// Arms the plan on the global registry and returns the guard that
    /// keeps it armed. Dropping the guard disarms everything.
    pub fn arm(&self) -> FaultScope {
        let scope = FaultScope::begin();
        scope.arm_plan(self);
        scope
    }
}

fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // A test that panicked mid-scope poisons the lock; the Drop impl
    // already reset the registry, so recovery is safe.
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Exclusive ownership of the process-global fault registry.
///
/// All arming — plans, bug switches, probes — goes through a scope, so
/// concurrently running tests cannot observe each other's faults; they
/// queue on the scope lock instead.
pub struct FaultScope {
    _guard: MutexGuard<'static, ()>,
}

impl FaultScope {
    /// Acquires the registry (blocking other scopes) and clears it.
    pub fn begin() -> Self {
        let guard = registry_lock();
        faults::reset();
        Self { _guard: guard }
    }

    /// Removes every armed hook and zeroes the hit counts, keeping the
    /// registry owned.
    pub fn disarm(&self) {
        faults::reset();
    }

    /// Installs every rule of `plan`. Rules targeting the same site are
    /// merged into one hook; the first rule whose condition fires wins.
    pub fn arm_plan(&self, plan: &FaultPlan) {
        let mut by_site: Vec<(String, Vec<(FireRule, FaultAction)>)> = Vec::new();
        for rule in &plan.rules {
            let lowered = (rule.when, rule.fault.action());
            match by_site.iter_mut().find(|(s, _)| *s == rule.site) {
                Some((_, actions)) => actions.push(lowered),
                None => by_site.push((rule.site.clone(), vec![lowered])),
            }
        }
        for (site, actions) in by_site {
            faults::install(
                &site,
                Arc::new(move |ordinal| {
                    actions
                        .iter()
                        .find(|(when, _)| when.fires(ordinal))
                        .map_or(FaultAction::None, |(_, action)| action.clone())
                }),
            );
        }
    }

    /// Arms `site` to fire [`FaultAction::Trigger`] on every hit — the
    /// shape every `bug.*` reintroduction switch expects.
    pub fn arm_trigger(&self, site: &str) {
        faults::install(site, Arc::new(|_| FaultAction::Trigger));
    }

    /// Installs a counting [`Probe`] on each of `sites` (sharing one
    /// counter), replacing any hook armed there. The probe injects
    /// nothing; it exists so tests can block on "these sites fired N
    /// times in total" instead of sleeping.
    pub fn probe(&self, sites: &[&str]) -> Probe {
        let probe = Probe::new();
        for site in sites {
            let p = probe.clone();
            faults::install(
                site,
                Arc::new(move |_| {
                    p.bump();
                    FaultAction::None
                }),
            );
        }
        probe
    }

    /// Times `site` fired while armed (plans, triggers, and probes all
    /// count).
    pub fn hits(&self, site: &str) -> u64 {
        faults::hits(site)
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        faults::reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fire_rules_are_deterministic_predicates() {
        assert!(FireRule::Always.fires(1) && FireRule::Always.fires(999));
        assert!(FireRule::Nth(3).fires(3) && !FireRule::Nth(3).fires(2));
        assert!(FireRule::FirstN(2).fires(2) && !FireRule::FirstN(2).fires(3));
        assert!(FireRule::EveryNth(2).fires(4) && !FireRule::EveryNth(2).fires(5));
        assert!(FireRule::AfterN(2).fires(3) && !FireRule::AfterN(2).fires(2));
        let p = FireRule::Permille { permille: 500, salt: 7 };
        let first: Vec<bool> = (1..100).map(|n| p.fires(n)).collect();
        let second: Vec<bool> = (1..100).map(|n| p.fires(n)).collect();
        assert_eq!(first, second, "permille firing must replay identically");
        assert!(first.iter().any(|&b| b) && !first.iter().all(|&b| b));
    }

    #[test]
    fn randomized_plans_replay_from_their_seed() {
        for seed in 0..32 {
            let a = FaultPlan::randomized(seed);
            let b = FaultPlan::randomized(seed);
            assert_eq!(a, b, "seed {seed} must regenerate the same plan");
            assert!(!a.rules.is_empty() && a.rules.len() <= 4);
        }
        assert_ne!(FaultPlan::randomized(1), FaultPlan::randomized(2));
    }

    #[test]
    fn armed_plan_drives_fault_points_and_disarms_on_drop() {
        let plan = FaultPlan::named("unit")
            .with_rule("test.plan_site", FireRule::Nth(2), FaultSpec::IoError)
            .with_rule("test.plan_site", FireRule::Nth(3), FaultSpec::CorruptBytes);
        {
            let _scope = plan.arm();
            assert!(faults::hit("test.plan_site").is_none());
            assert!(matches!(faults::hit("test.plan_site"), FaultAction::Err(_)));
            assert_eq!(faults::hit("test.plan_site"), FaultAction::Corrupt);
            assert!(faults::hit("test.plan_site").is_none());
        }
        assert!(faults::hit("test.plan_site").is_none(), "scope drop must disarm");
        assert_eq!(faults::hits("test.plan_site"), 0);
    }

    #[test]
    fn recompute_classification_matches_fault_semantics() {
        assert!(!FaultPlan::named("benign")
            .with_rule("scheduler.execute", FireRule::Always, FaultSpec::DelayMillis(5))
            .allows_recompute());
        assert!(FaultPlan::named("diskless")
            .with_rule("cache.read_disk", FireRule::Always, FaultSpec::IoError)
            .allows_recompute());
        assert!(FaultPlan::named("panics")
            .with_rule("scheduler.execute", FireRule::EveryNth(2), FaultSpec::Panic)
            .allows_recompute());
        assert!(FaultPlan::named("skewed")
            .with_rule("scheduler.deadline", FireRule::Always, FaultSpec::SkewMillis(9_999))
            .allows_recompute());
    }

    #[test]
    fn describe_names_every_rule() {
        let plan = FaultPlan::randomized(5);
        let text = plan.describe();
        for rule in &plan.rules {
            assert!(text.contains(&rule.site), "describe() must mention {}", rule.site);
        }
    }
}
