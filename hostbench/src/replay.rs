//! The traced run: one request decomposed into its client-side steps,
//! then replayed layer by layer through each layer's public functions.
//!
//! [`traced_exec`] performs the same calls `exec_bootstrap` makes
//! (`Omos::instantiate`, transport billing, mapping) inside spans. The
//! [`Replayer`] then repeats the server's work for the same request from
//! this package: namespace lookup, blueprint hash, evaluation with a
//! context it owns, materialize, placement on an imported copy of the
//! solver state, image-cache probes, link, framing, manifest derivation
//! and relink planning. Comparing the replayed spans with the real
//! `core.request` span gives `trace.unattributed_us`, so a gap in the
//! replay shows.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use omos_analysis::manifest::{client_bases, derive_manifest_from_eval, diff, ResolutionManifest};
use omos_analysis::relink::plan_relink;
use omos_analysis::{LintContext, LintResolved};
use omos_blueprint::{
    eval_blueprint, Blueprint, CachedEval, EvalContext, EvalError, MNode, ResolvedNode,
};
use omos_constraint::{PlacementRequest, PlacementSolver, RegionClass, SegmentRequest};
use omos_core::{Entry, InstantiateReply, Namespace, Omos, OmosError};
use omos_link::{link, LinkOptions};
use omos_module::Module;
use omos_obj::{ContentHash, SectionKind};
use omos_os::ipc::{charge_request, IpcStats};
use omos_os::{CostModel, ImageFrames, Process, SimClock};

use crate::spans::SpanLog;

/// How the server answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reply-cache hit (or coalesced onto another client's build).
    Hit,
    /// Cache miss: a cold build.
    Miss,
    /// A cached reply invalidated by a rebind, rebuilt.
    Stale,
}

/// `exec_bootstrap`, decomposed into spans: the same calls in the same
/// order, with the reply kept for the replay.
pub fn traced_exec(
    server: &Omos,
    path: &str,
    clock: &mut SimClock,
    cost: &CostModel,
    ipc: &mut IpcStats,
    log: &mut SpanLog,
    req: u64,
) -> Result<(Process, InstantiateReply), OmosError> {
    let root = log.open("exec", req, None, false);
    clock.charge_system(cost.exec_overhead_ns);
    clock.charge_system(cost.bootstrap_load_ns);
    let (reply, _) = log.time("core.request", req, Some(root), true, || {
        server.instantiate(path)
    });
    let reply = match reply {
        Ok(r) => r,
        Err(e) => {
            log.close(root);
            return Err(e);
        }
    };
    let sim0 = clock.elapsed_ns;
    log.time("os.ipc.charge", req, Some(root), true, || {
        charge_request(
            clock,
            cost,
            server.transport,
            128,
            &reply.reply_shape(),
            reply.server_ns,
            ipc,
        );
    });
    let sim1 = clock.elapsed_ns;
    let (proc, _) = log.time("os.map", req, Some(root), true, || {
        let mut proc =
            Process::spawn(&reply.program.frames, clock, cost).map_err(OmosError::Client)?;
        for lib in &reply.libraries {
            proc.map_more(&lib.frames, clock, cost)
                .map_err(OmosError::Client)?;
        }
        Ok::<Process, OmosError>(proc)
    });
    log.close(root);
    // The client half of the request lands on the server's timeline
    // too, so the simulated ipc/map stages have samples.
    let tracer = server.tracer();
    tracer.client_span(reply.req, omos_core::trace::Stage::Ipc, sim1 - sim0);
    tracer.client_span(
        reply.req,
        omos_core::trace::Stage::Map,
        clock.elapsed_ns - sim1,
    );
    Ok((proc?, reply))
}

/// A cached evaluation: module, dependency record, and the namespace
/// generation it was derived at.
type EvalEntry = (Module, Arc<BTreeSet<String>>, u64);

/// An evaluation context the benchmark owns: resolves through the
/// server's namespace and keeps its own dependency-checked eval cache,
/// validated the way the server validates its own.
struct BenchEval<'a> {
    ns: &'a Namespace,
    gen: AtomicU64,
    cache: Mutex<HashMap<ContentHash, EvalEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EvalContext for BenchEval<'_> {
    fn resolve(&self, path: &str) -> Result<ResolvedNode, EvalError> {
        match self.ns.lookup(path) {
            Some(Entry::Object(o)) => Ok(ResolvedNode::Object(o)),
            Some(Entry::Meta(m)) => Ok(ResolvedNode::Meta((*m).clone())),
            None => Err(EvalError::Resolve(path.to_string())),
        }
    }

    fn cache_get(&self, key: ContentHash) -> Option<CachedEval> {
        let mut cache = self.cache.lock().expect("eval cache lock poisoned");
        let fresh = match cache.get(&key) {
            Some((module, deps, gen)) if !self.ns.any_touched_since(deps.iter(), *gen) => {
                Some(CachedEval {
                    module: module.clone(),
                    deps: Arc::clone(deps),
                })
            }
            Some(_) => {
                cache.remove(&key);
                None
            }
            None => None,
        };
        let counter = if fresh.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        fresh
    }

    fn cache_put(&self, key: ContentHash, module: &Module, deps: &Arc<BTreeSet<String>>) {
        let gen = self.gen.load(Ordering::Relaxed);
        self.cache
            .lock()
            .expect("eval cache lock poisoned")
            .insert(key, (module.clone(), Arc::clone(deps), gen));
    }

    fn register_dynamic_impl(&self, _: ContentHash, _: &Module) -> Result<u32, EvalError> {
        Err(EvalError::Misplaced(
            "the benchmark workloads declare no dynamic libraries".to_string(),
        ))
    }
}

struct NsLint<'a>(&'a Namespace);

impl LintContext for NsLint<'_> {
    fn resolve(&mut self, path: &str) -> LintResolved {
        match self.0.lookup(path) {
            Some(Entry::Object(o)) => LintResolved::Object(o),
            Some(Entry::Meta(m)) => LintResolved::Meta((*m).clone()),
            None => LintResolved::Missing,
        }
    }
}

/// Replays requests layer by layer; one per client thread.
pub struct Replayer<'a> {
    server: &'a Omos,
    eval: BenchEval<'a>,
    /// The last derived manifest per program: the "before" side of the
    /// relink plan when the program's reply next goes stale.
    before: HashMap<String, ResolutionManifest>,
    keep_manifests: bool,
    /// Highest image-cache epoch seen in a replayed reply: an image with
    /// a newer epoch was inserted by the request being replayed.
    epoch_mark: u64,
    pub replayed: u64,
}

fn round_page(v: u64) -> u64 {
    (v + 4095) & !4095
}

fn pref_for(cs: &[(RegionClass, u64)], class: RegionClass) -> Option<u64> {
    cs.iter().find(|(c, _)| *c == class).map(|&(_, a)| a)
}

/// Leaf objects merged directly into a program (through nested merges,
/// not through library meta-objects): the inputs of its n-ary merge.
fn merged_fragments(ns: &Namespace, node: &MNode, out: &mut Vec<Module>) {
    match node {
        MNode::Merge(children) => {
            for c in children {
                merged_fragments(ns, c, out);
            }
        }
        MNode::Leaf(path) => {
            if let Some(Entry::Object(o)) = ns.lookup(path) {
                out.push(Module::from_object((*o).clone()));
            }
        }
        _ => {}
    }
}

impl<'a> Replayer<'a> {
    /// A replayer over `server`; `keep_manifests` remembers each derived
    /// manifest for relink planning (only workloads with stale requests
    /// need it).
    pub fn new(server: &'a Omos, keep_manifests: bool) -> Replayer<'a> {
        Replayer {
            server,
            eval: BenchEval {
                ns: &server.namespace,
                gen: AtomicU64::new(0),
                cache: Mutex::new(HashMap::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            },
            before: HashMap::new(),
            keep_manifests,
            epoch_mark: 0,
            replayed: 0,
        }
    }

    /// Eval-cache (hits, misses) of the benchmark's own context.
    pub fn eval_counts(&self) -> (u64, u64) {
        (
            self.eval.hits.load(Ordering::Relaxed),
            self.eval.misses.load(Ordering::Relaxed),
        )
    }

    /// Notes the epochs of a reply that is not replayed, so a later
    /// replay does not mistake its images for fresh builds.
    pub fn observe(&mut self, reply: &InstantiateReply) {
        self.epoch_mark = self.epoch_mark.max(max_epoch(reply));
    }

    /// Replays `reply`'s request for `path` under a `replay` root span.
    pub fn replay(
        &mut self,
        log: &mut SpanLog,
        req: u64,
        path: &str,
        reply: &InstantiateReply,
        kind: Kind,
    ) {
        self.replayed += 1;
        let root = log.open("replay", req, None, false);
        self.replay_layers(log, req, root, path, reply, kind);
        log.close(root);
        self.observe(reply);
    }

    fn replay_layers(
        &mut self,
        log: &mut SpanLog,
        req: u64,
        root: usize,
        path: &str,
        reply: &InstantiateReply,
        kind: Kind,
    ) {
        let server = self.server;
        let p = Some(root);
        let (bp, _) = log.time("core.namespace.lookup", req, p, true, || {
            match server.namespace.lookup(path) {
                Some(Entry::Meta(bp)) => Some((*bp).clone()),
                _ => None,
            }
        });
        let Some(bp): Option<Blueprint> = bp else {
            return;
        };
        log.time("blueprint.hash", req, p, true, || bp.hash());
        if kind == Kind::Hit {
            return;
        }

        self.eval
            .gen
            .store(server.namespace.generation(), Ordering::Relaxed);
        let (out, eval_span) = log.time("blueprint.eval", req, p, true, || {
            eval_blueprint(&bp, &self.eval)
        });
        let Ok(out) = out else {
            return;
        };
        // The n-ary merge the evaluation performed, re-run on its own
        // after it: a child of the eval span (its time comes off eval's
        // self time), outside the attribution sum.
        let mut frags = Vec::new();
        merged_fragments(&server.namespace, &bp.root, &mut frags);
        if frags.len() > 1 {
            let _ = log.time("module.merge", req, Some(eval_span), false, || {
                Module::merge_all(&frags)
            });
        }

        // The server copies its solver state only to derive a relink
        // plan; for a cold build the copy is replay scaffolding.
        let ((state, mut solver), _) =
            log.time("constraint.state_copy", req, p, kind == Kind::Stale, || {
                let state = server.solver().export_state();
                let solver = PlacementSolver::import_state(&state);
                (state, solver)
            });

        let mut externs: HashMap<String, u32> = HashMap::new();
        if out.libraries.len() == reply.libraries.len() {
            for (lu, img) in out.libraries.iter().zip(&reply.libraries) {
                let (obj, _) = log.time("module.materialize", req, p, true, || {
                    lu.module.materialize()
                });
                let Ok(obj) = obj else {
                    return;
                };
                let text =
                    obj.size_of_kind(SectionKind::Text) + obj.size_of_kind(SectionKind::RoData);
                let data = obj.size_of_kind(SectionKind::Data) + obj.size_of_kind(SectionKind::Bss);
                let request = PlacementRequest {
                    name: lu.name.clone(),
                    key: lu.key.0,
                    segments: vec![
                        SegmentRequest {
                            class: RegionClass::Text,
                            size: round_page(text.max(1)),
                            align: 4096,
                            preferred: pref_for(&lu.constraints, RegionClass::Text),
                        },
                        SegmentRequest {
                            class: RegionClass::Data,
                            size: round_page(data.max(1)),
                            align: 4096,
                            preferred: pref_for(&lu.constraints, RegionClass::Data),
                        },
                    ],
                };
                let (placed, _) = log.time("constraint.place", req, p, true, || {
                    solver.place(&request, &[])
                });
                let Ok(placed) = placed else {
                    return;
                };
                log.time("core.cache.get", req, p, true, || {
                    server.images.get(img.key)
                });
                if img.epoch > self.epoch_mark {
                    let mut opts = LinkOptions::library(
                        &lu.name,
                        placed.allocations[0].base as u32,
                        placed.allocations[1].base as u32,
                    );
                    opts.externs = externs.clone();
                    let (linked, _) = log.time("link.link", req, p, true, || {
                        link(std::slice::from_ref(&obj), &opts)
                    });
                    if let Ok(linked) = linked {
                        log.time("os.frame", req, p, true, || {
                            ImageFrames::from_image(&linked.image)
                        });
                    }
                }
                for (s, a) in &img.image.symbols {
                    externs.entry(s.clone()).or_insert(*a);
                }
            }
        }

        let (obj, _) = log.time("module.materialize", req, p, true, || {
            out.module.materialize()
        });
        log.time("core.cache.get", req, p, true, || {
            server.images.get(reply.program.key)
        });
        if let Ok(obj) = obj {
            if reply.program.epoch > self.epoch_mark {
                let (text_base, data_base) = client_bases(&out.constraints);
                let mut opts = LinkOptions::program("program");
                opts.text_base = text_base;
                opts.data_base = data_base;
                opts.externs = externs;
                let (linked, _) = log.time("link.link", req, p, true, || link(&[obj], &opts));
                if let Ok(linked) = linked {
                    log.time("os.frame", req, p, true, || {
                        ImageFrames::from_image(&linked.image)
                    });
                }
            }
        }

        // A stale rebuild derives this manifest itself; a cold build
        // records one from the artifacts it linked instead.
        let (after, _) = log.time("analysis.manifest", req, p, kind == Kind::Stale, || {
            derive_manifest_from_eval(&bp, &out, &mut NsLint(&server.namespace), &state)
        });
        let Ok(after) = after else {
            return;
        };
        if kind == Kind::Stale {
            if let Some(before) = self.before.get(path) {
                log.time("analysis.relink_plan", req, p, true, || {
                    let d = diff(before, &after);
                    (d, plan_relink(before, &after))
                });
            }
        }
        if self.keep_manifests {
            self.before.insert(path.to_string(), after);
        }
    }
}

fn max_epoch(reply: &InstantiateReply) -> u64 {
    reply
        .libraries
        .iter()
        .map(|l| l.epoch)
        .chain(std::iter::once(reply.program.epoch))
        .max()
        .unwrap_or(0)
}
