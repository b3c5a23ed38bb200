//! Content-addressed LRU cache of compiled programs.
//!
//! The offline pass is a pure function of `(circuit, configuration)` —
//! only the online pass consumes randomness — so a service sweeping many
//! seeds over one circuit should compile exactly once. [`ProgramCache`]
//! makes that automatic: programs are keyed by the combination of the
//! circuit's [structural hash](oneperc_circuit::Circuit::structural_hash)
//! and the configuration's [fingerprint](crate::CompilerConfig::fingerprint)
//! (both stable 64-bit hashes, so keys are reproducible across processes —
//! which is also what makes one cache safely shareable across
//! [`Session`](crate::Session)s: see
//! [`SessionBuilder::shared_program_cache`](crate::SessionBuilder::shared_program_cache)),
//! stored as `Arc<CompiledProgram>` so a hit is one atomic increment, and
//! evicted least-recently-used once the configurable capacity fills.
//!
//! # Per-key single-flight
//!
//! Misses are **single-flight per key**, and the compile itself runs
//! **outside the cache lock**:
//!
//! * Concurrent submitters of the *same* key elect one leader; the rest
//!   wait on a condvar and are served the leader's artifact as a hit.
//! * Submitters of *distinct* keys compile concurrently — the state lock
//!   is only ever held for map bookkeeping, never across a compile.
//! * Observability reads ([`ProgramCache::stats`],
//!   [`ProgramCache::len`]) never block behind anyone's compile.
//! * A compile that fails — by returning an error **or by panicking** —
//!   resolves its in-flight entry on the way out (a drop guard), so
//!   waiters wake, re-check, and elect a new leader instead of hanging;
//!   the panic unwinds only through the leader's own caller and the cache
//!   keeps serving every other key. The state mutex is never poisoned
//!   because no user code runs under it.
//!
//! With capacity `0` (caching disabled) there is nothing for a waiter to
//! be served afterwards, so the single-flight map is bypassed: every
//! lookup compiles privately.

use std::collections::{HashMap, HashSet};
use crate::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use oneperc_circuit::{Circuit, StableHasher};

use crate::compiler::CompiledProgram;
use crate::config::CompilerConfig;
use crate::report::CacheStats;

/// The content address of a compiled program: circuit structure × compiler
/// configuration (seed excluded — see
/// [`CompilerConfig::fingerprint`](crate::CompilerConfig::fingerprint)).
pub fn program_key(config: &CompilerConfig, circuit: &Circuit) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(circuit.structural_hash());
    h.write_u64(config.fingerprint());
    h.finish()
}

/// The result of one cache lookup: the shared program plus the per-lookup
/// telemetry stamped on reports.
///
/// `stats` is snapshotted **atomically with the lookup's own counter
/// update** (under the same state-lock critical section), so a report
/// stamped from it reflects exactly the traffic up to and including this
/// lookup — concurrent tenants cannot smear the numbers between the
/// lookup and a separate [`ProgramCache::stats`] call.
#[derive(Debug, Clone)]
#[must_use]
pub struct CacheLookup {
    /// The compiled artifact (shared allocation).
    pub program: Arc<CompiledProgram>,
    /// Whether this lookup was answered from the cache (waiters served by
    /// another submitter's in-flight compile count as hits).
    pub hit: bool,
    /// Counter snapshot taken atomically as the lookup resolved.
    pub stats: CacheStats,
}

#[derive(Debug)]
struct CacheEntry {
    program: Arc<CompiledProgram>,
    /// Logical timestamp of the last lookup that touched this entry.
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheState {
    entries: HashMap<u64, CacheEntry>,
    /// Keys whose compile is in flight: a leader is running the offline
    /// pass outside the lock and will resolve the key (insert + notify, or
    /// remove + notify on failure).
    in_flight: HashSet<u64>,
    /// Monotone lookup counter driving the LRU order.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CacheState {
    fn snapshot(&self, capacity: usize) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
            capacity,
        }
    }
}

/// A bounded, thread-safe, content-addressed cache of
/// [`CompiledProgram`]s with per-key single-flight misses.
///
/// Owned by — or [shared across](crate::SessionBuilder::shared_program_cache)
/// — [`Session`](crate::Session)s; the cached entry points
/// ([`Session::compile_cached`](crate::Session::compile_cached),
/// [`Session::submit_circuit`](crate::Session::submit_circuit),
/// [`Session::sweep`](crate::Session::sweep)) all go through it.
/// Capacity `0` disables caching: every lookup compiles, nothing is
/// retained (misses are still counted so the disabled state is
/// observable).
#[derive(Debug, Default)]
pub struct ProgramCache {
    capacity: usize,
    state: Mutex<CacheState>,
    /// Signalled whenever an in-flight compile resolves (successfully or
    /// not); waiters re-check the map and either hit or take over.
    resolved: Condvar,
}

/// Resolves `guard.key`'s in-flight entry on every leader exit path —
/// including a panicking compile — so waiters never hang and the panic
/// stays confined to the leader's own caller.
struct InFlightGuard<'a> {
    cache: &'a ProgramCache,
    key: u64,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.cache.lock_state();
        state.in_flight.remove(&self.key);
        drop(state);
        self.cache.resolved.notify_all();
    }
}

impl ProgramCache {
    /// Creates a cache retaining at most `capacity` programs.
    pub fn new(capacity: usize) -> Self {
        ProgramCache {
            capacity,
            state: Mutex::new(CacheState::default()),
            resolved: Condvar::new(),
        }
    }

    /// The state lock, recovering from poisoning. No user code ever runs
    /// under this lock (compiles happen outside it), so poisoning cannot
    /// leave the map mid-mutation — recovering keeps the cache serving
    /// even if an unforeseen panic crosses a guard.
    fn lock_state(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Maximum resident programs (`0` = caching disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Programs currently resident. Never blocks behind an in-flight
    /// compile.
    pub fn len(&self) -> usize {
        self.lock_state().entries.len()
    }

    /// Returns `true` when no program is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compiles currently in flight (leaders running the offline pass).
    pub fn in_flight(&self) -> usize {
        self.lock_state().in_flight.len()
    }

    /// Snapshot of the hit/miss/eviction counters. Never blocks behind an
    /// in-flight compile.
    pub fn stats(&self) -> CacheStats {
        let state = self.lock_state();
        state.snapshot(self.capacity)
    }

    /// Drops every resident program (counters are preserved — they describe
    /// lifetime traffic, not current residency).
    pub fn clear(&self) {
        self.lock_state().entries.clear();
    }

    /// Looks up `key`, compiling via `compile` on a miss and retaining the
    /// result (evicting the least-recently-used entry when full). Returns
    /// the shared program, whether this lookup hit, and the counter
    /// snapshot observed atomically as the lookup resolved.
    ///
    /// Misses are single-flight **per key**: one concurrent submitter
    /// becomes the leader and runs `compile` with no lock held, the rest
    /// wait and are served the inserted artifact as a hit. Distinct keys
    /// compile concurrently, and [`ProgramCache::stats`] /
    /// [`ProgramCache::len`] stay responsive throughout.
    ///
    /// # Errors
    ///
    /// Propagates whatever `compile` returns; the failed key's in-flight
    /// entry is resolved (waiters re-check and elect a new leader) and the
    /// cache is unchanged apart from the miss counter. A **panicking**
    /// `compile` behaves the same — the panic unwinds through this caller
    /// only, waiters retry, and the cache keeps serving.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: u64,
        compile: impl FnOnce() -> Result<CompiledProgram, E>,
    ) -> Result<CacheLookup, E> {
        let mut state = self.lock_state();
        loop {
            if state.entries.contains_key(&key) {
                state.tick += 1;
                state.hits += 1;
                let tick = state.tick;
                let entry = state.entries.get_mut(&key).expect("entry just observed");
                entry.last_used = tick;
                let program = Arc::clone(&entry.program);
                let stats = state.snapshot(self.capacity);
                return Ok(CacheLookup { program, hit: true, stats });
            }
            // With retention disabled there is nothing to share afterwards;
            // waiting would serialize lookups for no benefit.
            if self.capacity > 0 && state.in_flight.contains(&key) {
                state = self
                    .resolved
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            break;
        }
        // This lookup is the leader for `key` (or an uncached compile).
        state.misses += 1;
        if self.capacity > 0 {
            state.in_flight.insert(key);
        }
        drop(state);

        let guard = InFlightGuard { cache: self, key };
        // No lock held here: distinct keys compile concurrently, and a
        // panic unwinds through `guard`, waking this key's waiters.
        let program = Arc::new(compile()?);

        let mut state = self.lock_state();
        if self.capacity > 0 {
            if state.entries.len() >= self.capacity {
                // O(entries) LRU scan — capacities are small (a service
                // holds a handful of distinct programs hot at a time).
                if let Some(&lru) = state
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k)
                {
                    state.entries.remove(&lru);
                    state.evictions += 1;
                }
            }
            state.tick += 1;
            let tick = state.tick;
            state
                .entries
                .insert(key, CacheEntry { program: Arc::clone(&program), last_used: tick });
        }
        let stats = state.snapshot(self.capacity);
        drop(state);
        // Entry resident (when retained): resolve the in-flight marker and
        // wake waiters, who will now hit.
        drop(guard);
        Ok(CacheLookup { program, hit: false, stats })
    }
}

/// Exhaustive interleaving checks for the single-flight protocol (see
/// `CONCURRENCY.md`). Run with
/// `RUSTFLAGS="--cfg oneperc_model" cargo test -p oneperc model_`.
///
/// The compile closure clones one artifact built outside the model (the
/// offline pass is pure compute with no synchronization, so re-running it
/// inside every explored execution would only slow the search down).
#[cfg(all(test, oneperc_model))]
mod model_tests {
    use super::*;
    use crate::sync::atomic::{AtomicUsize, Ordering};
    use crate::sync::thread;
    use oneperc_circuit::benchmarks;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::OnceLock;

    fn program() -> CompiledProgram {
        static PROGRAM: OnceLock<CompiledProgram> = OnceLock::new();
        PROGRAM
            .get_or_init(|| {
                let config = CompilerConfig::for_sensitivity(36, 3, 0.85, 1);
                let circuit = benchmarks::qaoa(4, 2);
                crate::compiler::run_offline_pass(&config, &circuit)
                    .expect("offline pass succeeds")
            })
            .clone()
    }

    /// Three submitters of one key elect exactly one leader under every
    /// interleaving: one compile, one miss, two hits served from the
    /// leader's artifact (possibly via the condvar wait).
    #[test]
    fn model_single_flight_elects_exactly_one_leader() {
        let _ = program(); // materialize outside the model (std mode)
        let report = oneperc_verify::model(|| {
            let cache = Arc::new(ProgramCache::new(4));
            let compiles = Arc::new(AtomicUsize::new(0));
            let submitters: Vec<_> = (0..2)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let compiles = Arc::clone(&compiles);
                    thread::spawn(move || {
                        let lookup = cache
                            .get_or_try_insert_with(7, || {
                                compiles.fetch_add(1, Ordering::SeqCst);
                                Ok::<_, String>(program())
                            })
                            .expect("compile cannot fail");
                        lookup.hit
                    })
                })
                .collect();
            let root = cache
                .get_or_try_insert_with(7, || {
                    compiles.fetch_add(1, Ordering::SeqCst);
                    Ok::<_, String>(program())
                })
                .expect("compile cannot fail");
            let hits = submitters
                .into_iter()
                .map(|s| s.join().unwrap())
                .filter(|&hit| hit)
                .count()
                + usize::from(root.hit);
            assert_eq!(compiles.load(Ordering::SeqCst), 1, "single-flight");
            assert_eq!(hits, 2, "exactly one lookup may miss");
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses), (2, 1));
            assert_eq!(cache.in_flight(), 0);
        });
        assert!(report.complete, "exploration must be exhaustive");
    }

    /// A leader whose compile panics resolves its in-flight entry via
    /// `InFlightGuard` on the unwind path, so a concurrent waiter takes
    /// over instead of hanging — under every interleaving, including the
    /// waiter arriving before, during, and after the panic.
    #[test]
    fn model_leader_panic_lets_a_waiter_take_over() {
        let _ = program();
        let report = oneperc_verify::model(|| {
            let cache = Arc::new(ProgramCache::new(4));
            let panicker = {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        cache.get_or_try_insert_with(7, || -> Result<CompiledProgram, String> {
                            panic!("planted compile failure")
                        })
                    }));
                    // Either this submitter led (its own panic comes back)
                    // or it lost the race and was served the follower's
                    // healthy artifact — in which case its closure never
                    // ran, so the lookup must have been a hit.
                    match result {
                        Err(_) => {}
                        Ok(lookup) => {
                            assert!(lookup.expect("hit cannot fail").hit);
                        }
                    }
                })
            };
            let follower = {
                let cache = Arc::clone(&cache);
                // A waiter woken by the leader's failure re-checks and
                // takes over as the new leader inside the lookup itself —
                // the failure never propagates to it, so no retry is
                // needed here.
                thread::spawn(move || {
                    cache
                        .get_or_try_insert_with(7, || Ok::<_, String>(program()))
                        .expect("healthy compile cannot fail")
                })
            };
            panicker.join().unwrap();
            let _lookup = follower.join().unwrap();
            assert_eq!(cache.in_flight(), 0, "in-flight entry must resolve");
            assert_eq!(cache.len(), 1, "healthy artifact must be resident");
        });
        assert!(report.complete, "exploration must be exhaustive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompilerConfig;
    use oneperc_circuit::benchmarks;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn config() -> CompilerConfig {
        CompilerConfig::for_sensitivity(36, 3, 0.85, 1)
    }

    fn compile(config: &CompilerConfig, circuit: &Circuit) -> CompiledProgram {
        crate::compiler::run_offline_pass(config, circuit).expect("offline pass succeeds")
    }

    /// A reusable two-phase gate: waiters park until `open`, with a
    /// watchdog so a regression hangs the assertion, not CI.
    #[derive(Default)]
    struct Gate {
        open: Mutex<bool>,
        bell: Condvar,
    }

    impl Gate {
        fn open(&self) {
            *self.open.lock().unwrap() = true;
            self.bell.notify_all();
        }

        fn wait(&self, what: &str) {
            let guard = self.open.lock().unwrap();
            let (guard, timeout) = self
                .bell
                .wait_timeout_while(guard, Duration::from_secs(10), |open| !*open)
                .unwrap();
            assert!(!timeout.timed_out(), "{what} never happened: gate timed out");
            drop(guard);
        }
    }

    #[test]
    fn hit_returns_the_same_shared_program() {
        let cfg = config();
        let circuit = benchmarks::qaoa(4, 2);
        let cache = ProgramCache::new(4);
        let key = program_key(&cfg, &circuit);
        let first = cache
            .get_or_try_insert_with(key, || Ok::<_, ()>(compile(&cfg, &circuit)))
            .unwrap();
        let second = cache
            .get_or_try_insert_with(key, || -> Result<_, ()> { panic!("hit must not recompile") })
            .unwrap();
        assert!(!first.hit);
        assert!(second.hit);
        assert!(
            Arc::ptr_eq(&first.program, &second.program),
            "hit shares the identical allocation"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert_eq!(stats.entries, 1);
        // Per-lookup snapshots saw their own resolution.
        assert_eq!((first.stats.hits, first.stats.misses), (0, 1));
        assert_eq!((second.stats.hits, second.stats.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_under_tiny_capacity() {
        let cfg = config();
        let a = benchmarks::qaoa(4, 2);
        let b = benchmarks::qft(4);
        let cache = ProgramCache::new(1);
        let key_a = program_key(&cfg, &a);
        let key_b = program_key(&cfg, &b);
        assert_ne!(key_a, key_b);

        let ok = |circuit: &Circuit| Ok::<_, ()>(compile(&cfg, circuit));
        let _ = cache.get_or_try_insert_with(key_a, || ok(&a)).unwrap(); // miss, resident: A
        let _ = cache.get_or_try_insert_with(key_b, || ok(&b)).unwrap(); // miss, evicts A
        let _ = cache.get_or_try_insert_with(key_a, || ok(&a)).unwrap(); // miss again, evicts B
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 3, 2));
        assert_eq!(stats.entries, 1);
        // The survivor is A: looking it up now hits.
        let lookup = cache.get_or_try_insert_with(key_a, || ok(&a)).unwrap();
        assert!(lookup.hit);
    }

    #[test]
    fn lru_order_tracks_recency_not_insertion() {
        let cfg = config();
        let a = benchmarks::qaoa(4, 2);
        let b = benchmarks::qft(4);
        let c = benchmarks::rca(4);
        let cache = ProgramCache::new(2);
        let ok = |circuit: &Circuit| Ok::<_, ()>(compile(&cfg, circuit));
        let (ka, kb, kc) =
            (program_key(&cfg, &a), program_key(&cfg, &b), program_key(&cfg, &c));
        let _ = cache.get_or_try_insert_with(ka, || ok(&a)).unwrap();
        let _ = cache.get_or_try_insert_with(kb, || ok(&b)).unwrap();
        // Touch A so B becomes the LRU entry, then insert C.
        let _ = cache.get_or_try_insert_with(ka, || ok(&a)).unwrap();
        let _ = cache.get_or_try_insert_with(kc, || ok(&c)).unwrap();
        let a_again = cache.get_or_try_insert_with(ka, || ok(&a)).unwrap();
        assert!(a_again.hit, "recently touched entry survived");
        let b_again = cache.get_or_try_insert_with(kb, || ok(&b)).unwrap();
        assert!(!b_again.hit, "LRU entry was evicted");
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let cfg = config();
        let circuit = benchmarks::qaoa(4, 2);
        let cache = ProgramCache::new(0);
        let key = program_key(&cfg, &circuit);
        for _ in 0..3 {
            let lookup = cache
                .get_or_try_insert_with(key, || Ok::<_, ()>(compile(&cfg, &circuit)))
                .unwrap();
            assert!(!lookup.hit);
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 3));
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.capacity, 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn failed_compiles_insert_nothing() {
        let cache = ProgramCache::new(4);
        let err: Result<_, &str> = cache.get_or_try_insert_with(7, || Err("mapping failed"));
        assert_eq!(err.unwrap_err(), "mapping failed");
        assert!(cache.is_empty());
        assert_eq!(cache.in_flight(), 0, "a failed compile resolves its in-flight entry");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
    }

    #[test]
    fn seed_does_not_split_keys_but_knobs_do() {
        let circuit = benchmarks::qaoa(4, 2);
        let base = config();
        assert_eq!(program_key(&base, &circuit), program_key(&base.with_seed(99), &circuit));
        assert_ne!(
            program_key(&base, &circuit),
            program_key(&base.with_refresh_period(Some(7)), &circuit)
        );
        assert_ne!(
            program_key(&base, &circuit),
            program_key(&base, &benchmarks::qaoa(4, 3))
        );
    }

    #[test]
    fn clear_preserves_lifetime_counters() {
        let cfg = config();
        let circuit = benchmarks::qaoa(4, 2);
        let cache = ProgramCache::new(4);
        let key = program_key(&cfg, &circuit);
        let _ = cache
            .get_or_try_insert_with(key, || Ok::<_, ()>(compile(&cfg, &circuit)))
            .unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn panicking_compile_does_not_poison_the_cache() {
        // The PR-7 satellite: before the per-key rewrite, a panic inside
        // the compile closure unwound while the state mutex was held,
        // poisoning it — every later `stats()`/`len()`/lookup then
        // panicked on `expect("program cache poisoned")`. Now the compile
        // runs outside the lock: the panic is the leader's alone and the
        // cache keeps serving (lane-style recovery).
        let cfg = config();
        let circuit = benchmarks::qaoa(4, 2);
        let cache = ProgramCache::new(4);
        let key = program_key(&cfg, &circuit);

        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let _ = cache.get_or_try_insert_with(key, || -> Result<CompiledProgram, ()> {
                panic!("compile exploded")
            });
        }));
        assert!(panicked.is_err());

        // Observability is intact…
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.in_flight(), 0, "the panicked key resolved its in-flight entry");
        assert_eq!(cache.stats().misses, 1, "the doomed attempt still counted");
        // …and so is service: the same key compiles fine afterwards.
        let lookup = cache
            .get_or_try_insert_with(key, || Ok::<_, ()>(compile(&cfg, &circuit)))
            .unwrap();
        assert!(!lookup.hit);
        let again = cache
            .get_or_try_insert_with(key, || -> Result<_, ()> { panic!("must hit") })
            .unwrap();
        assert!(again.hit);
    }

    #[test]
    fn stats_and_len_do_not_block_behind_a_compile() {
        // The leader parks inside its compile on `entered`/`release`;
        // meanwhile the main thread reads stats()/len() — before the
        // rewrite this deadlocked (the compile held the state lock).
        let cfg = config();
        let circuit = benchmarks::qaoa(4, 2);
        let cache = Arc::new(ProgramCache::new(4));
        let key = program_key(&cfg, &circuit);
        let entered = Arc::new(Gate::default());
        let release = Arc::new(Gate::default());

        let leader = {
            let cache = Arc::clone(&cache);
            let entered = Arc::clone(&entered);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                cache
                    .get_or_try_insert_with(key, || {
                        entered.open();
                        release.wait("leader released");
                        Ok::<_, ()>(compile(&cfg, &circuit))
                    })
                    .unwrap()
            })
        };

        entered.wait("leader entered its compile");
        // The compile is provably in flight; reads must answer immediately.
        assert_eq!(cache.in_flight(), 1);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().misses, 1);
        release.open();
        let lookup = leader.join().expect("leader completed");
        assert!(!lookup.hit);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_compile_concurrently() {
        // Both compiles rendezvous inside their closures: if misses still
        // serialized on one lock, neither could reach the barrier while
        // the other is in flight and the gate watchdog would fire.
        let cfg = config();
        let cache = Arc::new(ProgramCache::new(4));
        let arrived = Arc::new(AtomicUsize::new(0));
        let both_in = Arc::new(Gate::default());

        let spawn = |circuit: Circuit| {
            let cache = Arc::clone(&cache);
            let arrived = Arc::clone(&arrived);
            let both_in = Arc::clone(&both_in);
            std::thread::spawn(move || {
                let key = program_key(&cfg, &circuit);
                cache
                    .get_or_try_insert_with(key, || {
                        if arrived.fetch_add(1, Ordering::SeqCst) + 1 == 2 {
                            both_in.open();
                        }
                        both_in.wait("the second distinct-key compile");
                        Ok::<_, ()>(compile(&cfg, &circuit))
                    })
                    .unwrap()
            })
        };

        let a = spawn(benchmarks::qaoa(4, 2));
        let b = spawn(benchmarks::qft(4));
        let la = a.join().expect("first compile");
        let lb = b.join().expect("second compile");
        assert!(!la.hit && !lb.hit);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn same_key_waiters_share_the_leaders_compile() {
        let cfg = config();
        let circuit = benchmarks::qaoa(4, 2);
        let cache = Arc::new(ProgramCache::new(4));
        let key = program_key(&cfg, &circuit);
        let compiles = Arc::new(AtomicUsize::new(0));
        let entered = Arc::new(Gate::default());
        let release = Arc::new(Gate::default());

        let leader = {
            let cache = Arc::clone(&cache);
            let compiles = Arc::clone(&compiles);
            let entered = Arc::clone(&entered);
            let release = Arc::clone(&release);
            let circuit = circuit.clone();
            std::thread::spawn(move || {
                cache
                    .get_or_try_insert_with(key, || {
                        compiles.fetch_add(1, Ordering::SeqCst);
                        entered.open();
                        release.wait("leader released");
                        Ok::<_, ()>(compile(&cfg, &circuit))
                    })
                    .unwrap()
            })
        };
        entered.wait("leader entered its compile");

        // Waiters arrive while the key is provably in flight.
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let compiles = Arc::clone(&compiles);
                let circuit = circuit.clone();
                std::thread::spawn(move || {
                    cache
                        .get_or_try_insert_with(key, || {
                            compiles.fetch_add(1, Ordering::SeqCst);
                            Ok::<_, ()>(compile(&cfg, &circuit))
                        })
                        .unwrap()
                })
            })
            .collect();
        // Give the waiters a moment to park on the condvar, then release.
        std::thread::sleep(Duration::from_millis(20));
        release.open();

        let led = leader.join().expect("leader");
        assert!(!led.hit);
        for waiter in waiters {
            let lookup = waiter.join().expect("waiter");
            assert!(lookup.hit, "waiters are served the leader's artifact");
            assert!(Arc::ptr_eq(&lookup.program, &led.program));
        }
        assert_eq!(compiles.load(Ordering::SeqCst), 1, "exactly one compile ran");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 1));
    }

    #[test]
    fn waiters_take_over_after_a_leader_panic() {
        let cfg = config();
        let circuit = benchmarks::qaoa(4, 2);
        let cache = Arc::new(ProgramCache::new(4));
        let key = program_key(&cfg, &circuit);
        let entered = Arc::new(Gate::default());
        let release = Arc::new(Gate::default());

        let leader = {
            let cache = Arc::clone(&cache);
            let entered = Arc::clone(&entered);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                catch_unwind(AssertUnwindSafe(|| {
                    let _ = cache.get_or_try_insert_with(key, || -> Result<CompiledProgram, ()> {
                        entered.open();
                        release.wait("doomed leader released");
                        panic!("compile exploded mid-flight")
                    });
                }))
            })
        };
        entered.wait("doomed leader entered its compile");

        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache
                    .get_or_try_insert_with(key, || Ok::<_, ()>(compile(&cfg, &circuit)))
                    .unwrap()
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        release.open();

        assert!(leader.join().expect("leader thread").is_err(), "leader observed its panic");
        let lookup = waiter.join().expect("waiter thread");
        assert!(!lookup.hit, "the waiter took over as the new leader");
        assert_eq!(cache.stats().misses, 2, "both attempts counted as misses");
        assert_eq!(cache.len(), 1, "the takeover's artifact is resident");
    }
}
