//! Trace well-formedness and counter-conservation tests (omos-trace).
//!
//! The tracer observes the request pipeline from many threads at once
//! and stores spans in a fixed-size overwrite-oldest ring, so its
//! guarantees are structural, not exhaustive:
//!
//! * every *retained* request tree is well formed — exactly one root,
//!   children strictly inside their ancestors, siblings non-overlapping
//!   on the request's SimClock timeline;
//! * counters obey conservation laws (`hits + misses == probes` per
//!   cache, `leaders + coalesced == flight entries`) no matter how the
//!   schedule interleaved;
//! * the ring bounds memory: retained spans never exceed capacity.

use std::sync::Barrier;

use proptest::prelude::*;

use omos::core::trace::{SpanKind, Stage, Tracer};
use omos::core::Omos;
use omos::isa::assemble;
use omos::os::ipc::Transport;
use omos::os::CostModel;

/// A server with `n` programs that all share one library.
fn world(n: usize) -> Omos {
    let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
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

/// Closed interval end on the request timeline.
fn end_ns(s: &omos::core::trace::SpanRecord) -> u64 {
    s.start_ns + s.dur_ns
}

/// Asserts one request's spans form a well-shaped tree: exactly one
/// depth-0 root starting at 0, every deeper span contained in the root,
/// same-depth interval spans non-overlapping, and any overlap between
/// different depths being strict containment of the deeper by the
/// shallower.
fn assert_well_formed(req: u64, spans: &[omos::core::trace::SpanRecord]) {
    let roots: Vec<_> = spans.iter().filter(|s| s.depth == 0).collect();
    assert_eq!(
        roots.len(),
        1,
        "request {req} has exactly one root span: {spans:#?}"
    );
    let root = roots[0];
    assert!(
        matches!(root.kind, SpanKind::Request | SpanKind::DynLookup),
        "request {req} root is a request-kind span, got {:?}",
        root.kind
    );
    assert_eq!(root.start_ns, 0, "request {req} timeline starts at zero");
    for s in spans {
        assert!(
            s.start_ns >= root.start_ns && end_ns(s) <= end_ns(root),
            "request {req}: span {s:?} escapes its root {root:?}"
        );
    }
    // Pairwise interval discipline among the non-root spans.
    let intervals: Vec<_> = spans.iter().filter(|s| s.depth > 0).collect();
    for (i, a) in intervals.iter().enumerate() {
        for b in intervals.iter().skip(i + 1) {
            // Strict overlap; zero-width instants at a boundary touch,
            // never overlap.
            let overlaps = a.start_ns < end_ns(b) && b.start_ns < end_ns(a);
            if !overlaps {
                continue;
            }
            let (outer, inner) = if a.depth <= b.depth { (a, b) } else { (b, a) };
            if a.depth == b.depth {
                // Same depth may only overlap when one is an instant
                // sitting inside the other interval.
                assert!(
                    a.dur_ns == 0 || b.dur_ns == 0,
                    "request {req}: sibling intervals overlap: {a:?} vs {b:?}"
                );
            }
            assert!(
                outer.start_ns <= inner.start_ns && end_ns(inner) <= end_ns(outer),
                "request {req}: deeper span not contained: {outer:?} vs {inner:?}"
            );
        }
    }
}

#[test]
fn eight_thread_workload_yields_well_formed_span_trees() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 12;

    let s = world(THREADS);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (s, barrier) = (&s, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for i in 0..PER_THREAD {
                    // Mix of colliding paths (coalescing + cache hits)
                    // and per-thread paths (cold builds).
                    let p = match i % 3 {
                        0 => "/bin/p0".to_string(),
                        1 => format!("/bin/p{t}"),
                        _ => format!("/bin/p{}", (t + i) % THREADS),
                    };
                    let r = s.instantiate(&p).expect("instantiate succeeds");
                    assert_ne!(r.req, 0, "tracing is on, replies carry request ids");
                }
            });
        }
    });

    let snap = s.trace_snapshot();

    // The workload is sized to fit the ring: nothing was overwritten,
    // so every request tree is complete.
    assert!(
        snap.counters.spans_recorded <= snap.ring_capacity as u64,
        "workload must fit the ring for this test ({} > {})",
        snap.counters.spans_recorded,
        snap.ring_capacity
    );
    assert_eq!(snap.spans.len() as u64, snap.counters.spans_recorded);

    // Every request that started also closed its root span.
    let reqs: std::collections::BTreeSet<u64> = snap.spans.iter().map(|s| s.req).collect();
    assert_eq!(
        reqs.len() as u64,
        snap.counters.requests + snap.counters.dyn_lookups,
        "one span tree per traced request"
    );
    for &req in &reqs {
        let spans = snap.request_spans(req);
        assert!(
            spans.len() <= snap.ring_capacity,
            "per-request span count is bounded by the ring"
        );
        assert_well_formed(req, &spans);
    }

    // Conservation laws, regardless of interleaving.
    let c = &snap.counters;
    assert_eq!(c.reply_hits + c.reply_misses, c.reply_probes);
    assert_eq!(c.eval_hits + c.eval_misses, c.eval_probes);
    assert_eq!(c.image_hits + c.image_misses, c.image_probes);
    assert!(c.reply_stale <= c.reply_misses);
    assert!(c.eval_stale <= c.eval_misses);
    assert_eq!(c.flight_leaders + c.flight_coalesced, c.flight_entries);

    // The tracer's request count matches the server's, and the server's
    // own books still balance.
    let st = s.stats();
    assert_eq!(c.requests, st.requests);
    assert_eq!(
        st.requests,
        st.reply_cache_hits + st.coalesced + st.replies_built
    );

    // Billed stages actually measured something.
    for stage in [Stage::Request, Stage::Eval, Stage::Link, Stage::Frame] {
        assert!(
            snap.stage(stage).count > 0,
            "stage {} saw at least one sample",
            stage.name()
        );
    }
}

#[test]
fn ring_bounds_retained_spans_under_overflow() {
    const CAPACITY: usize = 32;
    let t = Tracer::with_capacity(CAPACITY);
    for _ in 0..10 {
        let g = t.begin_request(SpanKind::Request);
        for _ in 0..20 {
            let span = t.open(SpanKind::Eval);
            t.close_leaf(span, Stage::Eval, 5);
        }
        drop(g);
    }
    let snap = t.snapshot();
    assert_eq!(snap.spans.len(), CAPACITY, "ring retains exactly capacity");
    assert_eq!(snap.counters.spans_recorded, 10 * 21);
    for req in snap.spans.iter().map(|s| s.req) {
        assert!(snap.request_spans(req).len() <= CAPACITY);
    }
    // Overwrite keeps the *newest* records (seqs start at 1).
    let min_seq = snap.spans.iter().map(|s| s.seq).min().unwrap();
    assert_eq!(min_seq, 10 * 21 - CAPACITY as u64 + 1);
}

/// A wide fan-out request: `n` independent constraint-placed libraries
/// under one client, so a parallel schedule has real sibling overlap.
fn fanout_world(n: usize) -> Omos {
    let s = Omos::new(CostModel::hpux(), Transport::SysVMsg);
    s.namespace.bind_object(
        "/obj/main.o",
        assemble("main.o", ".text\n.global _start\n_start: sys 0\n").unwrap(),
    );
    let mut uses = String::new();
    for i in 0..n {
        for half in ["a", "b"] {
            s.namespace.bind_object(
                &format!("/obj/f{i}{half}.o"),
                assemble(
                    &format!("f{i}{half}.o"),
                    &format!(".text\n.global _f{i}{half}\n_f{i}{half}: li r1, {i}\n ret\n"),
                )
                .unwrap(),
            );
        }
        s.namespace
            .bind_blueprint(
                &format!("/lib/f{i}"),
                &format!(
                    "(constraint-list \"T\" {:#x} \"D\" {:#x})\n(merge /obj/f{i}a.o /obj/f{i}b.o)",
                    0x0200_0000 + (i as u64) * 0x20_0000,
                    0x4200_0000 + (i as u64) * 0x20_0000,
                ),
            )
            .unwrap();
        uses.push_str(&format!(" /lib/f{i}"));
    }
    s.namespace
        .bind_blueprint("/bin/fan", &format!("(merge /obj/main.o{uses})"))
        .unwrap();
    s
}

/// What one build recorded: its span tree as (kind, depth, start,
/// duration), its reply's bill and its latency.
type Build = (Vec<(SpanKind, u16, u64, u64)>, u64, u64);

/// Every stage histogram as (count, sum, buckets).
type Stages = Vec<(u64, u64, Vec<u64>)>;

/// Runs one history on `fanout_world(4)` at `lanes` simulated lanes: a
/// cold build, a stale rebuild after one library object changes, a
/// monitored build and a `dynamic_load`. Returns each build and the
/// stage histograms.
fn lane_history(lanes: usize) -> (Vec<Build>, Stages) {
    let s = fanout_world(4);
    s.set_eval_jobs(lanes);
    let spans = |req: u64| -> Vec<(SpanKind, u16, u64, u64)> {
        s.trace_snapshot()
            .request_spans(req)
            .iter()
            .map(|sp| (sp.kind, sp.depth, sp.start_ns, sp.dur_ns))
            .collect()
    };
    let mut builds = Vec::new();
    let mut reply = |r: omos::core::InstantiateReply| {
        assert!(!r.cache_hit, "{lanes} lane(s)");
        builds.push((spans(r.req), r.server_ns, r.latency_ns));
    };
    reply(s.instantiate("/bin/fan").unwrap());
    s.namespace.bind_object(
        "/obj/f0a.o",
        assemble("f0a.o", ".text\n.global _f0a\n_f0a: li r1, 99\n ret\n").unwrap(),
    );
    reply(s.instantiate("/bin/fan").unwrap());
    reply(s.instantiate_monitored("/bin/fan", "^_start$").unwrap().0);
    let class = omos::blueprint::Blueprint::parse(
        r#"(merge (source "asm" ".text\n.global _m\n_m: call _f1a\n ret\n") /lib/f0 /lib/f1)"#,
    )
    .unwrap();
    let load = s
        .dynamic_load(&class, &["_m"], &std::collections::HashMap::new())
        .unwrap();
    let snap = s.trace_snapshot();
    // The load is the newest request; it reports no latency of its own.
    let last = snap.spans.iter().map(|sp| sp.req).max().unwrap();
    builds.push((spans(last), load.server_ns, load.server_ns));
    let stages = Stage::ALL
        .iter()
        .map(|&stage| {
            let h = snap.stage(stage);
            (h.count, h.sum_ns, h.buckets.clone())
        })
        .collect();
    (builds, stages)
}

/// The lane count moves only `latency_ns`: one request history gives
/// the same span trees (kind, depth, start, duration), the same stage
/// histograms and the same bills at 1, 2 and 8 simulated lanes, while
/// the cold build's critical path still shrinks at 8.
#[test]
fn one_timeline_at_every_lane_count() {
    let (one, one_stages) = lane_history(1);
    assert_eq!(one.len(), 4);
    for (spans, server_ns, latency_ns) in &one {
        assert!(!spans.is_empty());
        assert_eq!(latency_ns, server_ns, "one lane bills the critical path");
    }
    // Four libraries and the program, then the changed library (the
    // program reads none of its bindings, so its image is reused), the
    // monitored program, and the loaded class.
    let link = Stage::ALL.iter().position(|&st| st == Stage::Link).unwrap();
    assert_eq!(one_stages[link].0, 8);
    for lanes in [2, 8] {
        let (wide, wide_stages) = lane_history(lanes);
        for (i, (w, o)) in wide.iter().zip(&one).enumerate() {
            assert_eq!(w.0, o.0, "build {i}: span tree at {lanes} lanes against 1");
            assert_eq!(w.1, o.1, "build {i}: bill at {lanes} lanes against 1");
            assert!(w.2 <= o.2, "build {i}: latency at {lanes} lanes");
        }
        assert_eq!(wide_stages, one_stages, "stage histograms at {lanes} lanes");
        if lanes == 8 {
            assert!(
                wide[0].2 < one[0].2,
                "the cold build's four library links overlap on 8 lanes: {} vs {}",
                wide[0].2,
                one[0].2
            );
        }
    }
}

/// Drops the timing payload from a rendered span line — the `(dur)`
/// and `@ cursor` parts — keeping the indentation and the label: the
/// parts the snapshot pins.
fn normalize_line(line: &str) -> String {
    line.split(" (")
        .next()
        .unwrap_or(line)
        .split(" @ ")
        .next()
        .unwrap_or(line)
        .to_string()
}

/// A parallel request's sibling spans render in start-cursor order —
/// never completion order — so the tree is byte-stable run over run.
/// Spans carry no worker lane any more, so the old worker tie-break is
/// gone: the tree at three lanes is the one-lane tree.
#[test]
fn parallel_siblings_render_sorted_by_start_then_worker() {
    let render = |lanes: usize| {
        let s = fanout_world(4);
        s.set_eval_jobs(lanes);
        let r = s.instantiate("/bin/fan").unwrap();
        assert!(!r.cache_hit);
        let snap = s.trace_snapshot();
        omos::core::trace::render_tree(&snap.request_spans(r.req))
    };

    let tree = render(3);
    assert_eq!(tree, render(3), "parallel render is deterministic");
    assert_eq!(tree, render(1), "three lanes render the one-lane tree");

    let normalized: Vec<String> = tree.lines().map(normalize_line).collect();
    let mut expected = vec![
        "request",
        "  reply-cache probe: miss",
        "  single-flight: leader",
        "  eval",
    ];
    // One probe per planned node but the client merge, the program's
    // root, which is never published: 8 library objects, 4 library
    // metas, and the client object. They share one cursor, so record
    // order breaks the tie.
    expected.extend(std::iter::repeat_n("    eval-cache probe: miss", 13));
    // The four libraries build one after another, in ordinal order,
    // whatever the lane count...
    for _ in 0..4 {
        expected.extend([
            "  library-build",
            "    placement",
            "    image-cache probe: miss",
            "    link",
            "    frame",
        ]);
    }
    // ...then the program: probe, link, frame.
    expected.extend(["  image-cache probe: miss", "  link", "  frame"]);
    assert_eq!(
        normalized, expected,
        "snapshot of the parallel span tree (timings stripped):\n{tree}"
    );
}

/// A cold build on a fresh server counts one image miss per image it
/// links, at one lane and above one.
#[test]
fn cold_build_counts_one_image_miss_per_link() {
    for (libs, lanes) in [(1, 1), (3, 1), (3, 3)] {
        let s = fanout_world(libs);
        s.set_eval_jobs(lanes);
        assert!(!s.instantiate("/bin/fan").unwrap().cache_hit);
        let c = s.trace_snapshot().counters;
        assert_eq!(
            (c.libraries_built, c.programs_built),
            (libs as u64, 1),
            "{libs} libraries at {lanes} lane(s)"
        );
        assert_eq!(
            (c.image_hits, c.image_misses),
            (0, c.libraries_built + c.programs_built),
            "{libs} libraries at {lanes} lane(s)"
        );
    }
}

/// Every linked image is framed once, so the `Frame` histogram holds as
/// many samples as `Link`, and neither moves with the lane count: every
/// lane count records the one-lane timeline.
#[test]
fn frame_and_link_histograms_agree_at_every_lane_count() {
    let stages = |lanes: usize| {
        let s = fanout_world(2);
        s.set_eval_jobs(lanes);
        assert!(!s.instantiate("/bin/fan").unwrap().cache_hit);
        let snap = s.trace_snapshot();
        let (frame, link) = (snap.stage(Stage::Frame), snap.stage(Stage::Link));
        assert_eq!(frame.count, link.count, "{lanes} lane(s)");
        (frame.count, frame.sum_ns, link.count, link.sum_ns)
    };
    let one = stages(1);
    assert_eq!(one.0, 3, "two libraries and the program");
    for lanes in [2, 8] {
        assert_eq!(stages(lanes), one, "{lanes} lanes against 1");
    }
}

// --- Property: arbitrary op sequences keep the span tree well formed ------------

/// Interprets a fuzzer op sequence against a tracer inside one request,
/// maintaining a model of what the recorded spans must look like.
/// Returns (expected root duration, model spans as (depth, start, dur)).
fn run_ops(t: &Tracer, ops: &[(u8, u64)]) -> (u64, Vec<(u16, u64, u64)>) {
    struct ModelOpen {
        span: omos::core::trace::OpenSpan,
        depth: u16,
        start: u64,
    }
    let mut cursor = 0u64;
    let mut depth = 1u16;
    let mut open: Vec<ModelOpen> = Vec::new();
    let mut closed: Vec<(u16, u64, u64)> = Vec::new();
    for &(op, ns) in ops {
        match op {
            0 => {
                open.push(ModelOpen {
                    span: t.open(SpanKind::Link),
                    depth,
                    start: cursor,
                });
                depth += 1;
            }
            1 => {
                if let Some(m) = open.pop() {
                    t.close(m.span);
                    depth -= 1;
                    closed.push((m.depth, m.start, cursor - m.start));
                }
            }
            _ => {
                let span = t.open(SpanKind::Placement);
                t.close_leaf(span, Stage::Placement, ns);
                closed.push((depth, cursor, ns));
                cursor += ns;
            }
        }
    }
    while let Some(m) = open.pop() {
        t.close(m.span);
        depth -= 1;
        closed.push((m.depth, m.start, cursor - m.start));
    }
    let _ = depth;
    (cursor, closed)
}

proptest! {
    #[test]
    fn op_sequences_produce_well_formed_trees(
        ops in proptest::collection::vec((0u8..3, 0u64..10_000), 0..120),
    ) {
        let t = Tracer::new();
        let guard = t.begin_request(SpanKind::Request);
        let req = guard.req();
        let (expect_root, model) = run_ops(&t, &ops);
        drop(guard);

        let snap = t.snapshot();
        let spans = snap.request_spans(req);
        assert_well_formed(req, &spans);

        // The root span bills exactly the sum of leaves.
        let root = spans.iter().find(|s| s.depth == 0).expect("root span");
        prop_assert_eq!(root.dur_ns, expect_root);

        // Every model span was recorded with the modelled geometry
        // (ring order is push order; the root is recorded last).
        let recorded: Vec<(u16, u64, u64)> = spans
            .iter()
            .filter(|s| s.depth > 0)
            .map(|s| (s.depth, s.start_ns, s.dur_ns))
            .collect();
        prop_assert_eq!(recorded, model);

        // Histogram conservation: placement samples == leaf closes.
        let leaves = ops.iter().filter(|(op, _)| *op == 2).count() as u64;
        prop_assert_eq!(snap.stage(Stage::Placement).count, leaves);
    }
}

/// A stale reply probe and a stale eval probe, on a fixed history: the
/// request after a rebind of the library's object finds the program's
/// reply and the library's module stale. Each stale probe marks the
/// probe, then the drop, at one cursor, and counts the same with
/// tracing on and off.
#[test]
fn stale_probes_mark_the_probe_then_the_drop() {
    let run = |tracing: bool| {
        let s = world(2);
        s.set_tracing(tracing);
        s.instantiate("/bin/p0").unwrap();
        s.instantiate("/bin/p1").unwrap();
        let Some(omos::core::Entry::Object(obj)) = s.namespace.lookup("/libc/stdio.o") else {
            panic!("an object");
        };
        s.namespace.bind_object("/libc/stdio.o", (*obj).clone());
        let stale = s.instantiate("/bin/p0").unwrap();
        assert!(!stale.cache_hit);
        assert!(!s.instantiate("/bin/p1").unwrap().cache_hit);
        let snap = s.trace_snapshot();
        let spans: Vec<_> = snap
            .request_spans(stale.req)
            .iter()
            .map(|sp| (sp.kind, sp.start_ns))
            .collect();
        (snap.counters, spans)
    };
    let (on, spans) = run(true);
    let (off, untraced) = run(false);
    assert!(untraced.is_empty());
    assert_eq!(
        off,
        omos::core::trace::TraceCounters {
            spans_recorded: 0,
            ..on
        }
    );
    // Each build counts one reply miss: the leader's double-check inside
    // the flight counts a hit or a stale drop, not the miss again.
    assert_eq!(
        (
            on.requests,
            on.replies_built,
            on.reply_hits,
            on.reply_misses
        ),
        (4, 4, 0, 4)
    );
    // A program's root is never published to the eval cache, so no
    // build probes it: each of the four builds counts one eval miss
    // fewer than a build that probed its root.
    assert_eq!(
        (on.reply_stale, on.eval_hits, on.eval_misses, on.eval_stale),
        (2, 4, 6, 2)
    );
    assert_eq!(on.evict_invalidated, on.reply_stale + on.eval_stale);
    use omos::core::trace::{CacheKind, EvictReason, FlightRole, ProbeOutcome};
    let probe = |cache, outcome| SpanKind::CacheProbe(cache, outcome);
    let drop = |cache| SpanKind::Evict(cache, EvictReason::Invalidated);
    let (reply, eval) = (CacheKind::Reply, CacheKind::Eval);
    let stale = ProbeOutcome::Stale;
    let expected = vec![
        (probe(reply, stale), 0),
        (drop(reply), 0),
        (SpanKind::Flight(FlightRole::Leader), 0),
        (probe(eval, stale), 350_000),
        (drop(eval), 350_000),
        (probe(eval, stale), 350_000),
        (drop(eval), 350_000),
        (SpanKind::Eval, 350_000),
        (SpanKind::Placement, 362_800),
        (SpanKind::LibraryBuild, 362_800),
        (SpanKind::Request, 0),
    ];
    assert_eq!(spans, expected);
}
