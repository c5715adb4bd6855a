//! Deterministic fault injection for the WWT stack.
//!
//! A **failpoint** is a named site in production code where a test (or a
//! chaos-enabled deployment) can inject a fault: a panic, an I/O error,
//! or a delay. Sites are compiled in permanently and are designed to be
//! free when nothing is armed: [`evaluate`] is two relaxed atomic loads
//! and a predictable branch — no locks, no allocation, no syscalls.
//!
//! Arming happens through the `WWT_CHAOS` environment variable (read
//! once, at the first evaluation) or programmatically via [`arm`]. The
//! grammar is a comma-separated list of `site=behavior` entries:
//!
//! ```text
//! WWT_CHAOS='journal.append=error*3,probe.shard=panic,map.batch=delay:50~1in4'
//! ```
//!
//! * behavior — `panic`, `error` (an injected `io::Error`), or
//!   `delay:MS` (sleep that many milliseconds, then proceed);
//! * `*N` — fire at most N times, then the site goes inert (this is how
//!   the CI chaos smoke recovers: the fault "heals" deterministically);
//! * `~1inK` — fire on roughly 1 in K evaluations, decided by a seeded
//!   hash of `(seed, site, hit index)` so a run with the same
//!   `WWT_CHAOS_SEED` (default 0) fires on exactly the same hits.
//!
//! Faults are deterministic by construction: no wall clock, no global
//! RNG — rerunning the same binary with the same spec and seed injects
//! the same faults at the same hit indices.
//!
//! Tests that arm failpoints share process-global state; serialize them
//! (e.g. behind a `static Mutex`) and call [`disarm_all`] when done.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// What an armed site does when it fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Panic at the site (exercises panic-isolation paths).
    Panic,
    /// Fail the site with an injected error.
    Error,
    /// Sleep this long at the site, then proceed normally.
    Delay(Duration),
}

struct Site {
    name: String,
    fault: Fault,
    /// Fire on ~1 in `one_in` evaluations (1 = every evaluation).
    one_in: u64,
    /// Evaluations so far (the deterministic sampling counter).
    hits: u64,
    /// Fires left before the site goes inert (`u64::MAX` = unlimited).
    remaining: u64,
}

/// Fast-path flag: false ⇒ no site is armed and [`evaluate`] returns
/// immediately. Never true while the registry is empty.
static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: OnceLock<Mutex<Vec<Site>>> = OnceLock::new();
/// One-shot env read; `get_or_init` on the hot path is a single
/// acquire load once initialized.
static ENV_INIT: OnceLock<()> = OnceLock::new();
static SEED: OnceLock<u64> = OnceLock::new();

fn registry() -> &'static Mutex<Vec<Site>> {
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn seed() -> u64 {
    *SEED.get_or_init(|| {
        std::env::var("WWT_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    })
}

fn init_from_env() {
    ENV_INIT.get_or_init(|| {
        if let Ok(spec) = std::env::var("WWT_CHAOS") {
            if !spec.trim().is_empty() {
                if let Err(e) = arm(&spec) {
                    eprintln!("wwt-chaos: ignoring bad WWT_CHAOS spec: {e}");
                }
            }
        }
    });
}

/// FNV-1a over the site name: stable across runs, feeds the sampler.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates `(seed, site, hit)` into a
/// uniform-ish u64 without any global RNG state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Evaluates the failpoint `site`. `None` (the overwhelmingly common
/// answer) means proceed normally; `Some(fault)` means the caller must
/// act on the injected fault. The disarmed path is two relaxed atomic
/// loads.
#[inline]
pub fn evaluate(site: &str) -> Option<Fault> {
    init_from_env();
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    evaluate_armed(site)
}

#[cold]
fn evaluate_armed(site: &str) -> Option<Fault> {
    let mut sites = registry().lock().unwrap();
    let entry = sites.iter_mut().find(|s| s.name == site)?;
    let hit = entry.hits;
    entry.hits += 1;
    if entry.remaining == 0 {
        return None;
    }
    if entry.one_in > 1 {
        let roll = splitmix64(seed() ^ fnv1a64(entry.name.as_bytes()) ^ hit);
        if !roll.is_multiple_of(entry.one_in) {
            return None;
        }
    }
    if entry.remaining != u64::MAX {
        entry.remaining -= 1;
    }
    Some(entry.fault.clone())
}

/// Convenience for I/O sites: panics on [`Fault::Panic`], sleeps on
/// [`Fault::Delay`], returns an injected [`std::io::Error`] on
/// [`Fault::Error`]. The error message names the site so it is
/// attributable end to end.
#[inline]
pub fn io_failpoint(site: &str) -> std::io::Result<()> {
    match evaluate(site) {
        None => Ok(()),
        Some(Fault::Panic) => panic!("wwt-chaos: injected panic at {site}"),
        Some(Fault::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(Fault::Error) => Err(std::io::Error::other(format!(
            "wwt-chaos: injected fault at {site}"
        ))),
    }
}

/// Arms failpoints from a spec (`site=behavior[*N][~1inK]`, comma-
/// separated — the `WWT_CHAOS` grammar). Re-arming a site replaces its
/// previous behavior and resets its counters.
pub fn arm(spec: &str) -> Result<(), String> {
    let mut parsed = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, behavior) = entry
            .split_once('=')
            .ok_or_else(|| format!("entry {entry:?} is not site=behavior"))?;
        parsed.push(parse_site(name.trim(), behavior.trim())?);
    }
    if parsed.is_empty() {
        return Err("empty chaos spec".to_string());
    }
    let mut sites = registry().lock().unwrap();
    for site in parsed {
        sites.retain(|s| s.name != site.name);
        sites.push(site);
    }
    ARMED.store(true, Ordering::Relaxed);
    Ok(())
}

fn parse_site(name: &str, behavior: &str) -> Result<Site, String> {
    if name.is_empty() {
        return Err("empty site name".to_string());
    }
    let (behavior, one_in) = match behavior.split_once('~') {
        Some((b, sampler)) => {
            let k = sampler
                .strip_prefix("1in")
                .and_then(|k| k.parse::<u64>().ok())
                .filter(|&k| k >= 1)
                .ok_or_else(|| format!("bad sampler {sampler:?} (want 1inK)"))?;
            (b, k)
        }
        None => (behavior, 1),
    };
    let (behavior, remaining) = match behavior.split_once('*') {
        Some((b, count)) => {
            let n = count
                .parse::<u64>()
                .map_err(|_| format!("bad fire count {count:?}"))?;
            (b, n)
        }
        None => (behavior, u64::MAX),
    };
    let fault = if behavior == "panic" {
        Fault::Panic
    } else if behavior == "error" {
        Fault::Error
    } else if let Some(ms) = behavior.strip_prefix("delay:") {
        let ms = ms
            .parse::<u64>()
            .map_err(|_| format!("bad delay {ms:?} (want delay:MS)"))?;
        Fault::Delay(Duration::from_millis(ms))
    } else {
        return Err(format!(
            "unknown behavior {behavior:?} (want panic|error|delay:MS)"
        ));
    };
    Ok(Site {
        name: name.to_string(),
        fault,
        one_in,
        hits: 0,
        remaining,
    })
}

/// Disarms every failpoint and restores the zero-cost fast path.
pub fn disarm_all() {
    // Order matters: clear the flag first so a racing `evaluate` that
    // sees it armed still finds a consistent (possibly empty) registry.
    ARMED.store(false, Ordering::Relaxed);
    if let Some(sites) = REGISTRY.get() {
        sites.lock().unwrap().clear();
    }
}

/// Whether any failpoint is currently armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

// ------------------------------------------------------------------
// Failpoint site names. Centralized so call sites and tests cannot
// drift apart on spelling.
// ------------------------------------------------------------------

/// Journal append/fsync (the durability write path).
pub const JOURNAL_APPEND: &str = "journal.append";
/// Persisted-index shard load.
pub const PERSIST_LOAD: &str = "persist.load";
/// Persisted-index shard save.
pub const PERSIST_SAVE: &str = "persist.save";
/// One shard's retrieval probe inside the scatter-gather fan-out.
pub const PROBE_SHARD: &str = "probe.shard";
/// The column-mapping batch (one fires per mapper run).
pub const MAP_BATCH: &str = "map.batch";
/// Engine rebuild during `POST /admin/reload`.
pub const RELOAD_BUILD: &str = "reload.build";

#[cfg(test)]
mod tests {
    use super::*;

    /// Failpoints are process-global: every test that arms them holds
    /// this lock so parallel test threads cannot interleave specs.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_sites_are_inert() {
        let _guard = TEST_LOCK.lock().unwrap();
        disarm_all();
        assert!(!armed());
        assert_eq!(evaluate("anything"), None);
        assert!(io_failpoint("anything").is_ok());
    }

    #[test]
    fn arm_fires_and_disarm_restores() {
        let _guard = TEST_LOCK.lock().unwrap();
        arm("x.y=error").unwrap();
        assert!(armed());
        assert_eq!(evaluate("x.y"), Some(Fault::Error));
        assert_eq!(evaluate("other.site"), None);
        let err = io_failpoint("x.y").unwrap_err();
        assert!(err.to_string().contains("x.y"), "error names the site");
        disarm_all();
        assert_eq!(evaluate("x.y"), None);
    }

    #[test]
    fn fire_count_exhausts_deterministically() {
        let _guard = TEST_LOCK.lock().unwrap();
        arm("j.a=error*3").unwrap();
        for _ in 0..3 {
            assert_eq!(evaluate("j.a"), Some(Fault::Error));
        }
        // The fourth and every later evaluation passes: the fault healed.
        for _ in 0..10 {
            assert_eq!(evaluate("j.a"), None);
        }
        disarm_all();
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let _guard = TEST_LOCK.lock().unwrap();
        let run = || -> Vec<bool> {
            arm("s.p=delay:1~1in3").unwrap();
            let fired = (0..64).map(|_| evaluate("s.p").is_some()).collect();
            disarm_all();
            fired
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same spec => same firing pattern");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(fired > 0 && fired < 64, "1in3 fires sometimes, not always");
    }

    #[test]
    fn rearming_replaces_behavior() {
        let _guard = TEST_LOCK.lock().unwrap();
        arm("r.s=error").unwrap();
        assert_eq!(evaluate("r.s"), Some(Fault::Error));
        arm("r.s=delay:7").unwrap();
        assert_eq!(
            evaluate("r.s"),
            Some(Fault::Delay(Duration::from_millis(7)))
        );
        disarm_all();
    }

    #[test]
    fn bad_specs_are_rejected() {
        let _guard = TEST_LOCK.lock().unwrap();
        for bad in [
            "",
            "justasite",
            "a=explode",
            "a=delay:soon",
            "a=error*many",
            "a=error~2in3",
            "=panic",
        ] {
            assert!(arm(bad).is_err(), "spec {bad:?} must be rejected");
        }
        assert!(!armed(), "failed arms must not flip the armed flag");
    }

    #[test]
    fn panic_fault_panics_at_the_site() {
        let _guard = TEST_LOCK.lock().unwrap();
        arm("p.q=panic").unwrap();
        let caught = std::panic::catch_unwind(|| io_failpoint("p.q"));
        disarm_all();
        let payload = caught.expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("p.q"), "panic names the site: {msg}");
    }
}
