//! Concurrency integration tests: many client threads against one
//! shared [`Omos`] server.
//!
//! The server's whole premise is that it is *persistent and shared* —
//! these tests drive the `&self` request paths from real threads and
//! assert the tentpole invariants:
//!
//! * single-flight: N concurrent cold-starts of one program do exactly
//!   one eval+link, and every client maps the same frames;
//! * concurrent ≡ sequential: a mixed workload produces byte-identical
//!   images to a sequential replay, and the counters sum consistently;
//! * selective invalidation: binds only evict derivations that depended
//!   on the touched paths;
//! * the image cache keeps its byte budget and never invalidates a
//!   client's mapping under concurrent insert/hit interleavings.
//! * a warm exec maps the reply's own frames with one reference per
//!   segment, and gives every reference back when the process drops.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use omos::bench::{Scenario, WorkloadSizes, PROGRAMS};
use omos::core::cache::{CachedImage, ImageCache};
use omos::core::spill::SpillTier;
use omos::core::Omos;
use omos::isa::assemble;
use omos::link::LinkStats;
use omos::obj::ContentHash;
use omos::os::ipc::Transport;
use omos::os::{CostModel, ImageFrames, Process, SimClock, PAGE_SIZE};

/// A server with `n` programs that all share one library. The IPC
/// transport comes from `OMOS_TRANSPORT` (default SysV messages) so CI
/// can sweep the whole suite across the transport matrix.
fn world(n: usize) -> Omos {
    let s = Omos::new(CostModel::hpux(), Transport::from_env(Transport::SysVMsg));
    s.namespace.bind_object(
        "/libc/stdio.o",
        assemble("stdio.o", ".text\n.global _puts\n_puts: li r1, 7\n ret\n").unwrap(),
    );
    s.namespace
        .bind_blueprint(
            "/lib/libc",
            "(constraint-list \"T\" 0x1000000 \"D\" 0x41000000)\n(merge /libc/stdio.o)",
        )
        .unwrap();
    for i in 0..n {
        s.namespace.bind_object(
            &format!("/obj/p{i}.o"),
            assemble(
                &format!("p{i}.o"),
                &format!(".text\n.global _start\n_start: li r1, {i}\n call _puts\n sys 0\n"),
            )
            .unwrap(),
        );
        s.namespace
            .bind_blueprint(
                &format!("/bin/p{i}"),
                &format!("(merge /obj/p{i}.o /lib/libc)"),
            )
            .unwrap();
    }
    s
}

#[test]
fn concurrent_cold_start_links_exactly_once() {
    const THREADS: usize = 8;
    let s = world(1);
    let barrier = Barrier::new(THREADS);

    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let s = &s;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    s.instantiate("/bin/p0").expect("instantiate succeeds")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let st = s.stats();
    assert_eq!(st.requests, THREADS as u64);
    // The single-flight invariant: one build, period.
    assert_eq!(st.replies_built, 1, "exactly one reply built: {st:?}");
    assert_eq!(st.programs_built, 1, "exactly one program link: {st:?}");
    assert_eq!(st.libraries_built, 1, "one distinct library: {st:?}");
    // Every request is accounted for exactly once.
    assert_eq!(
        st.reply_cache_hits + st.coalesced + st.replies_built,
        st.requests,
        "{st:?}"
    );
    // Exactly the builder's reply is marked as a miss; everyone shares
    // the same physical frames.
    let misses = replies.iter().filter(|r| !r.cache_hit).count();
    assert_eq!(misses, 1, "only the leader's reply is a miss");
    for r in &replies {
        assert!(Arc::ptr_eq(&r.program, &replies[0].program));
        assert_eq!(r.libraries.len(), 1);
        assert!(Arc::ptr_eq(&r.libraries[0], &replies[0].libraries[0]));
    }
}

#[test]
fn mixed_workload_matches_sequential_oracle() {
    const THREADS: usize = 4;
    const PROGRAMS: usize = 4;
    const ITERS: usize = 8;

    // Sequential oracle: a fresh identical server, each program once.
    let oracle: Vec<(u64, Vec<u64>)> = {
        let s = world(PROGRAMS);
        (0..PROGRAMS)
            .map(|i| {
                let r = s.instantiate(&format!("/bin/p{i}")).unwrap();
                (
                    r.program.image.content_hash().0,
                    r.libraries
                        .iter()
                        .map(|l| l.image.content_hash().0)
                        .collect(),
                )
            })
            .collect()
    };

    let s = world(PROGRAMS);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let s = &s;
            let barrier = &barrier;
            let oracle = &oracle;
            scope.spawn(move || {
                barrier.wait();
                for iter in 0..ITERS {
                    // Interleave namespace defines the programs never
                    // depend on — they must not perturb anything.
                    if iter % 2 == 0 {
                        s.namespace.bind_object(
                            &format!("/scratch/t{t}-{iter}.o"),
                            assemble("u.o", ".text\nnop\n").unwrap(),
                        );
                    }
                    for m in 0..PROGRAMS {
                        let path = format!("/bin/p{}", (t + m) % PROGRAMS);
                        let r = s.instantiate(&path).expect("instantiate succeeds");
                        let want = &oracle[(t + m) % PROGRAMS];
                        assert_eq!(
                            r.program.image.content_hash().0,
                            want.0,
                            "{path}: concurrent image differs from sequential replay"
                        );
                        let libs: Vec<u64> = r
                            .libraries
                            .iter()
                            .map(|l| l.image.content_hash().0)
                            .collect();
                        assert_eq!(libs, want.1, "{path}: library set differs");
                    }
                }
            });
        }
    });

    let st = s.stats();
    assert_eq!(st.requests, (THREADS * ITERS * PROGRAMS) as u64);
    assert_eq!(
        st.reply_cache_hits + st.coalesced + st.replies_built,
        st.requests,
        "every request is a hit, a coalesce, or a build: {st:?}"
    );
    // The scratch binds are unrelated: nothing was ever rebuilt.
    assert_eq!(st.replies_built, PROGRAMS as u64, "{st:?}");
    assert_eq!(st.libraries_built, 1, "one shared library: {st:?}");
}

#[test]
fn unrelated_defines_do_not_evict_cached_replies() {
    let s = world(2);
    let first_p0 = s.instantiate("/bin/p0").unwrap();
    let _ = s.instantiate("/bin/p1").unwrap();

    // Define a brand-new meta-object and object the cached programs
    // never resolved.
    s.namespace.bind_object(
        "/new/tool.o",
        assemble("tool.o", ".text\n.global _start\n_start: sys 0\n").unwrap(),
    );
    s.namespace
        .bind_blueprint("/bin/tool", "(merge /new/tool.o)")
        .unwrap();

    let again = s.instantiate("/bin/p0").unwrap();
    assert!(again.cache_hit, "unrelated define must not evict /bin/p0");
    assert!(
        Arc::ptr_eq(&again.program, &first_p0.program),
        "the very same cached frames are served"
    );
    assert!(s.instantiate("/bin/p1").unwrap().cache_hit);
    assert_eq!(s.stats().replies_built, 2, "p0 and p1, once each");

    // Rebinding an actual dependency is key-scoped: p0 rebuilds, p1
    // keeps hitting.
    s.namespace.bind_object(
        "/obj/p0.o",
        assemble(
            "p0.o",
            ".text\n.global _start\n_start: li r1, 99\n call _puts\n sys 0\n",
        )
        .unwrap(),
    );
    let rebuilt = s.instantiate("/bin/p0").unwrap();
    assert!(!rebuilt.cache_hit, "touched dependency forces a rebuild");
    assert_ne!(
        rebuilt.program.image.content_hash(),
        first_p0.program.image.content_hash()
    );
    assert!(
        s.instantiate("/bin/p1").unwrap().cache_hit,
        "p1 never depended on /obj/p0.o"
    );
}

#[test]
fn concurrent_dyn_lookup_builds_the_instance_once() {
    const THREADS: usize = 8;
    let s = world(0);
    s.namespace.bind_object(
        "/obj/dynuser.o",
        assemble(
            "dynuser.o",
            ".text\n.global _start\n_start: call _puts\n sys 0\n",
        )
        .unwrap(),
    );
    s.namespace
        .bind_blueprint(
            "/bin/dyn",
            r#"(merge /obj/dynuser.o (specialize "lib-dynamic" /libc/stdio.o))"#,
        )
        .unwrap();
    let _ = s.instantiate("/bin/dyn").unwrap();

    let barrier = Barrier::new(THREADS);
    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let s = &s;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    s.dyn_lookup(0, "_puts").expect("lookup succeeds")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let builders = replies.iter().filter(|r| r.server_ns > 0).count();
    assert_eq!(builders, 1, "exactly one thread paid for the build");
    for r in &replies {
        assert_eq!(r.target, replies[0].target);
        assert_eq!(r.frames.total_pages(), replies[0].frames.total_pages());
    }
}

#[test]
fn concurrent_clear_and_insert_keep_byte_counter_consistent() {
    // Regression: `clear()` used to sum freed bytes across all shards
    // and do ONE deferred `fetch_sub` at the end, and `insert` credited
    // its bytes outside the shard lock. A clear draining a shard could
    // therefore count (and later subtract) an entry whose `fetch_add`
    // was still pending, wrapping the global byte counter below zero —
    // and while it is wrapped, every insert sees "over budget" and
    // budget-evicts everything it can. The fix does every counter
    // update while the owning shard's lock is held, so the total is
    // exact at every instant and can never read above what is
    // resident.
    //
    // The wrapped window opens when an insert thread is preempted
    // between releasing its shard lock and its (formerly deferred)
    // `fetch_add`, and a clear completes in that gap — so every thread
    // polls `bytes()` for an absurd reading while hammering the cache
    // for a fixed wall-clock slice. Post-fix the counter is exact, so
    // the poll can never trip no matter the schedule.
    const INSERTERS: u64 = 4;
    const CLEARERS: usize = 2;
    const KEYS: u64 = 64;
    const IMG_BYTES: usize = 100;
    // Resident bytes can never legitimately get anywhere near this: a
    // reading beyond it means the counter wrapped below zero.
    const WRAP: u64 = 1 << 63;

    let mk = |key: u64| image(key, IMG_BYTES);

    let cache = ImageCache::with_shards(u64::MAX, 4);
    let wrapped = AtomicBool::new(false);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    std::thread::scope(|scope| {
        for t in 0..INSERTERS {
            let (cache, wrapped, mk) = (&cache, &wrapped, &mk);
            scope.spawn(move || {
                let mut i = 0u64;
                loop {
                    cache.insert(mk(t * KEYS + i % KEYS));
                    if cache.bytes() > WRAP {
                        wrapped.store(true, Ordering::Relaxed);
                    }
                    i += 1;
                    if i.is_multiple_of(256)
                        && (wrapped.load(Ordering::Relaxed)
                            || std::time::Instant::now() >= deadline)
                    {
                        break;
                    }
                }
            });
        }
        for _ in 0..CLEARERS {
            let (cache, wrapped) = (&cache, &wrapped);
            scope.spawn(move || {
                let mut i = 0u64;
                loop {
                    cache.clear();
                    if cache.bytes() > WRAP {
                        wrapped.store(true, Ordering::Relaxed);
                    }
                    i += 1;
                    if i.is_multiple_of(64)
                        && (wrapped.load(Ordering::Relaxed)
                            || std::time::Instant::now() >= deadline)
                    {
                        break;
                    }
                }
            });
        }
    });

    assert!(
        !wrapped.load(Ordering::Relaxed),
        "byte counter wrapped below zero during a clear/insert race"
    );
    // And the final count must equal exactly what is resident.
    assert_eq!(
        cache.bytes(),
        cache.len() as u64 * IMG_BYTES as u64,
        "byte counter equals resident bytes after the clear/insert race"
    );
    cache.clear();
    assert!(cache.is_empty());
    assert_eq!(cache.bytes(), 0, "a drained cache holds zero bytes");
}

#[test]
fn injected_worker_panic_aborts_cleanly_and_server_recovers() {
    for jobs in [1, 8] {
        let s = world(2);
        s.set_eval_jobs(jobs);
        // Arm a one-shot panic inside one work unit of the next
        // evaluation of /bin/p0's blueprint on this thread.
        let bp = omos::blueprint::Blueprint::parse("(merge /obj/p0.o /lib/libc)").unwrap();
        omos::blueprint::plan::testhooks::arm_panic(bp.root.hash());

        let err = s
            .instantiate("/bin/p0")
            .expect_err("armed panic must abort the request");
        let msg = err.to_string();
        assert!(
            msg.contains("evaluation worker failed"),
            "jobs={jobs}: panic must surface as a clean eval error, got: {msg}"
        );

        // The failure is contained: no poisoned caches, no leaked
        // single-flight entries — the same request immediately rebuilds
        // (no hang, no stale error), an unrelated one is untouched, and
        // the rebuilt image matches a fresh server's bit for bit.
        let ok = s.instantiate("/bin/p0").expect("server recovered");
        assert!(!ok.cache_hit, "failed build must not have been cached");
        let p1 = s.instantiate("/bin/p1").expect("unrelated program works");
        assert!(!p1.cache_hit);
        let oracle = world(2);
        let want = oracle.instantiate("/bin/p0").unwrap();
        assert_eq!(
            ok.program.image.content_hash(),
            want.program.image.content_hash(),
            "jobs={jobs}: recovered build diverges from a fresh server's"
        );
        // Subtrees that completed before the panic were legitimately
        // cached (exactly as any aborted request leaves them), so the
        // retry can only be cheaper than a fully cold build.
        assert!(ok.server_ns <= want.server_ns);

        let st = s.stats();
        assert_eq!(
            st.reply_cache_hits + st.coalesced + st.replies_built,
            st.requests,
            "every request accounted for, failure included: {st:?}"
        );
    }
}

/// A one-segment image of `bytes` bytes under `key`.
fn image(key: u64, bytes: usize) -> CachedImage {
    let image = omos::link::LinkedImage {
        name: format!("img{key}"),
        segments: vec![omos::link::Segment {
            name: ".text".into(),
            kind: omos::obj::SectionKind::Text,
            vaddr: 0x1000,
            bytes: vec![key as u8; bytes].into(),
            zero: 0,
        }],
        symbols: Default::default(),
        entry: None,
    };
    CachedImage {
        key: ContentHash(key),
        frames: ImageFrames::from_image(&image),
        image,
        link_stats: LinkStats::default(),
        rebuild_ns: 0,
        epoch: 0,
    }
}

#[test]
fn image_cache_keeps_budget_and_mappings_under_concurrency() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 32;
    const IMG_BYTES: usize = 100;
    const BUDGET: u64 = 1_000;

    let mk = |key: u64| image(key, IMG_BYTES);

    let cache = ImageCache::with_shards(BUDGET, 4);
    let barrier = Barrier::new(THREADS as usize);
    let live_hits = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = &cache;
            let barrier = &barrier;
            let live_hits = &live_hits;
            let mk = &mk;
            scope.spawn(move || {
                barrier.wait();
                let mut held = Vec::new();
                for i in 0..PER_THREAD {
                    let key = t * 1_000 + i;
                    held.push(cache.insert(mk(key)));
                    // Interleave hits on this thread's recent keys to
                    // churn the LRU order while other shards evict.
                    if cache.get(ContentHash(key)).is_some() {
                        live_hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Every handle handed out stays fully mapped, evicted
                // from the cache or not.
                for img in &held {
                    assert_eq!(img.size_bytes(), IMG_BYTES as u64);
                    assert!(img.frames.total_pages() > 0);
                }
            });
        }
    });

    let st = cache.stats();
    assert!(
        cache.bytes() <= BUDGET,
        "byte budget holds after all inserts settle: {} > {BUDGET}",
        cache.bytes()
    );
    assert_eq!(st.insertions, THREADS * PER_THREAD);
    assert_eq!(
        cache.len() as u64,
        st.insertions - st.evictions,
        "every insert is either resident or was evicted: {st:?}"
    );
    assert_eq!(cache.bytes(), cache.len() as u64 * IMG_BYTES as u64);
    assert!(st.evictions > 0, "the budget actually bound");
    assert_eq!(st.hits, live_hits.load(Ordering::Relaxed));
}

#[test]
fn concurrent_fault_ins_are_counted_once_in_every_ledger() {
    const KEYS: u64 = 48;
    const GETS: u64 = 400;
    const IMG_BYTES: usize = 100;
    for tracing in [true, false] {
        let spill = Arc::new(SpillTier::new(u64::MAX, CostModel::hpux()));
        // Tier 1 holds four images: most gets miss and fault in.
        let cache = ImageCache::with_shards(4 * IMG_BYTES as u64, 2).with_spill(Arc::clone(&spill));
        let s = Omos::with_image_cache(CostModel::hpux(), Transport::SysVMsg, cache);
        s.set_tracing(tracing);
        let last_insert = (0..KEYS)
            .map(|k| s.images.insert(image(k, IMG_BYTES)).epoch)
            .max()
            .unwrap();
        let (cache0, spill0) = (s.images.stats(), spill.stats());
        assert!(spill0.spills >= KEYS - 4);

        // Both threads walk the same keys, so they race to fault in the
        // same spilled images.
        let barrier = Barrier::new(2);
        let seen: Vec<(Vec<u64>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2u64)
                .map(|t| {
                    let (s, barrier) = (&s, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let (mut epochs, mut misses) = (Vec::new(), 0);
                        for i in 0..GETS {
                            match s.images.get(ContentHash((i * 7 + t) % KEYS)) {
                                Some(img) => epochs.push(img.epoch),
                                None => misses += 1,
                            }
                        }
                        (epochs, misses)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let answered: u64 = seen.iter().map(|(e, _)| e.len() as u64).sum();
        let unanswered: u64 = seen.iter().map(|(_, m)| m).sum();
        // A fault-in installs a fresh epoch and answers its own get with
        // it, so the fresh epochs seen are the fault-ins that happened.
        let faulted = seen
            .iter()
            .flat_map(|(e, _)| e.iter().filter(|&&e| e > last_insert))
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u64;

        let (cache1, spill1) = (s.images.stats(), spill.stats());
        let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
        let fault_ins = spill1.fault_ins - spill0.fault_ins;
        assert!(fault_ins > 0, "tracing {tracing}: the run faulted in");
        assert_eq!(fault_ins, faulted, "tracing {tracing}: {spill1:?}");
        assert_eq!(hits + misses, 2 * GETS, "tracing {tracing}: {cache1:?}");
        assert_eq!(answered, hits + fault_ins, "tracing {tracing}");
        assert_eq!(unanswered + fault_ins, misses, "tracing {tracing}");
        assert_eq!(
            spill1.spills,
            spill1.resident + spill1.fault_ins + spill1.verify_drops + spill1.tier_evictions,
            "tracing {tracing}: every spill is resident or accounted for: {spill1:?}"
        );
        let c = s.trace_snapshot().counters;
        assert_eq!(
            (c.image_hits, c.image_misses),
            (cache1.hits, cache1.misses),
            "tracing {tracing}: one ledger"
        );
    }
}

/// Eval-cache probes `f` makes on `s`, as (hits, misses).
fn eval_probes(s: &Omos, f: impl FnOnce()) -> (u64, u64) {
    let before = s.trace_snapshot().counters;
    f();
    let after = s.trace_snapshot().counters;
    (
        after.eval_hits - before.eval_hits,
        after.eval_misses - before.eval_misses,
    )
}

#[test]
fn a_program_root_is_cached_once_as_its_reply() {
    let s = world(2);
    let cold = s.instantiate("/bin/p0").unwrap();
    assert!(!cold.cache_hit);
    // The built program's root module was not published to the eval
    // cache (the reply cache holds the program): re-deriving it misses
    // the root once, and hits its client object and libc.
    let (hits, misses) = eval_probes(&s, || {
        s.explain("/bin/p0").unwrap();
    });
    assert_eq!((hits, misses), (2, 1), "explain after a cold build");

    // A second program sharing libc still finds libc's module published,
    // and is billed what it was when program roots were published too.
    let mut second = None;
    let (hits, misses) = eval_probes(&s, || second = Some(s.instantiate("/bin/p1").unwrap()));
    // p1's root is not probed: a reply build never publishes it.
    assert_eq!((hits, misses), (1, 1), "libc hits; p1's object misses");
    assert_eq!(second.unwrap().server_ns, 371_424);
}

#[test]
fn a_library_class_blueprint_built_standalone_stays_published() {
    let s = world(1);
    // A program with a constraint-list of its own is library-class.
    s.namespace
        .bind_blueprint(
            "/bin/placed",
            "(constraint-list \"T\" 0x2000000 \"D\" 0x42000000)\n(merge /obj/p0.o /lib/libc)",
        )
        .unwrap();
    let placed = s.instantiate("/bin/placed").unwrap();
    assert!(!placed.cache_hit);
    let (hits, misses) = eval_probes(&s, || {
        s.explain("/bin/placed").unwrap();
    });
    assert_eq!(
        (hits, misses),
        (2, 0),
        "the root and libc modules are cached"
    );
}

/// The version a reply's library was built from: its `_verN` symbol.
fn library_version(reply: &omos::core::InstantiateReply) -> u64 {
    reply.libraries[0]
        .image
        .symbols
        .keys()
        .find_map(|name| name.strip_prefix("_ver")?.parse().ok())
        .expect("the library exports its version")
}

/// Binds `/libc/stdio.o` at `version` (a `_verN` symbol beside `_puts`).
fn bind_stdio(s: &Omos, version: u64) {
    s.namespace.bind_object(
        "/libc/stdio.o",
        assemble(
            "stdio.o",
            &format!(
                ".text\n.global _puts\n.global _ver{version}\n_puts: li r1, 7\n ret\n_ver{version}: ret\n"
            ),
        )
        .unwrap(),
    );
}

#[test]
fn a_request_after_a_rebind_never_sees_the_old_reply() {
    const READERS: usize = 7;
    const REBINDS: u64 = 40;
    let s = world(2);
    bind_stdio(&s, 0);
    // Rebinds of a path no program depends on move the generation, so
    // hits keep revalidating while the library changes under them.
    let noise = assemble("noise.o", ".text\n_n: ret\n").unwrap();
    // The last library version whose rebind has returned.
    let published = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(READERS + 1);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            barrier.wait();
            for v in 1..=REBINDS {
                bind_stdio(&s, v);
                published.store(v, Ordering::Release);
                s.namespace.bind_object("/obj/noise.o", noise.clone());
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
        for t in 0..READERS {
            let (s, published, done, barrier) = (&s, &published, &done, &barrier);
            scope.spawn(move || {
                barrier.wait();
                let path = format!("/bin/p{}", t % 2);
                while !done.load(Ordering::Acquire) {
                    let seen = published.load(Ordering::Acquire);
                    let reply = s.instantiate(&path).unwrap();
                    let got = library_version(&reply);
                    assert!(
                        got >= seen,
                        "{path} started after version {seen} was bound, got version {got}"
                    );
                }
            });
        }
    });
    // Quiet again: every program answers from the last version, and a
    // rebind of an unrelated path leaves the next probe of each a hit.
    for p in ["/bin/p0", "/bin/p1"] {
        assert_eq!(library_version(&s.instantiate(p).unwrap()), REBINDS);
    }
    s.namespace.bind_object("/obj/noise.o", noise);
    let hits = s.stats().reply_cache_hits;
    let barrier = Barrier::new(8);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let (s, barrier) = (&s, &barrier);
            scope.spawn(move || {
                barrier.wait();
                let reply = s.instantiate(&format!("/bin/p{}", t % 2)).unwrap();
                assert!(reply.cache_hit);
                assert_eq!(library_version(&reply), REBINDS);
            });
        }
    });
    assert_eq!(s.stats().reply_cache_hits, hits + 8);
}

/// Reference counts of every segment's frame list in `reply`, program
/// first.
fn frame_list_counts(reply: &omos::core::InstantiateReply) -> Vec<usize> {
    std::iter::once(&reply.program)
        .chain(&reply.libraries)
        .flat_map(|img| img.frames.segments.iter())
        .map(|seg| Arc::strong_count(&seg.frames))
        .collect()
}

/// Maps `reply` into a fresh process and checks that every page of
/// every segment is the reply's own frame.
fn map_reply(reply: &omos::core::InstantiateReply, cost: &CostModel) -> Process {
    let mut clock = SimClock::new();
    let mut proc = Process::spawn(&reply.program.frames, &mut clock, cost).unwrap();
    for lib in &reply.libraries {
        proc.map_more(&lib.frames, &mut clock, cost).unwrap();
    }
    let mut mapped = HashMap::new();
    proc.space.visit_pages(|pno, frame| {
        mapped.insert(pno, frame);
    });
    for img in std::iter::once(&reply.program).chain(&reply.libraries) {
        for seg in &img.frames.segments {
            for (i, frame) in seg.frames.iter().enumerate() {
                let pno = seg.vaddr / PAGE_SIZE + i as u32;
                assert_eq!(mapped[&pno], Some(Arc::as_ptr(frame)), "page {pno:#x}");
            }
        }
    }
    proc
}

#[test]
fn concurrent_warm_execs_take_one_reference_per_segment_and_return_it() {
    const THREADS: usize = 8;
    const EXECS: usize = 100;
    let mut scenario = Scenario::build(
        WorkloadSizes::small(),
        CostModel::hpux(),
        Transport::from_env(Transport::SysVMsg),
    );
    scenario.warm_up().unwrap();
    let (server, cost) = (&scenario.server, scenario.cost);
    let paths: Vec<String> = PROGRAMS.iter().map(|p| format!("/bin/{p}")).collect();
    // Held throughout, so the counts below move only with processes.
    let held: Vec<_> = paths
        .iter()
        .map(|p| server.instantiate(p).unwrap())
        .collect();
    let before: Vec<Vec<usize>> = held.iter().map(frame_list_counts).collect();
    for (reply, counts) in held.iter().zip(&before) {
        let proc = map_reply(reply, &cost);
        let one_more: Vec<usize> = counts.iter().map(|c| c + 1).collect();
        assert_eq!(frame_list_counts(reply), one_more);
        drop(proc);
    }
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (paths, held, barrier) = (&paths, &held, &barrier);
            scope.spawn(move || {
                barrier.wait();
                let mut live = Vec::new();
                for n in 0..EXECS {
                    let i = (t + n) % paths.len();
                    let reply = server.instantiate(&paths[i]).unwrap();
                    assert!(reply.cache_hit);
                    assert!(Arc::ptr_eq(&reply.program, &held[i].program));
                    live.push(map_reply(&reply, &cost));
                    // Keep a few processes alive at once, dropping the
                    // oldest, so drops overlap other threads' maps.
                    if live.len() > 3 {
                        live.remove(0);
                    }
                }
            });
        }
    });
    let after: Vec<Vec<usize>> = held.iter().map(frame_list_counts).collect();
    assert_eq!(after, before, "every process's references were returned");
}
